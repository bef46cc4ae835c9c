#include "wir/interp.hh"

#include <cmath>
#include <cstring>

#include "support/deadline.hh"

namespace trips::wir {

namespace {

double
asF(u64 bits)
{
    double d;
    std::memcpy(&d, &bits, 8);
    return d;
}

u64
asU(double d)
{
    u64 bits;
    std::memcpy(&bits, &d, 8);
    return bits;
}

struct Machine
{
    const Module &m;
    MemImage &mem;
    RunResult res;
    u64 fuel;
    u64 blocks = 0;   ///< blocks entered, across calls (deadline polls)

    Machine(const Module &m, MemImage &mem, u64 fuel)
        : m(m), mem(mem), fuel(fuel)
    {}

    /** Execute one function; returns its return value. */
    u64
    exec(const Function &f, const std::vector<u64> &args, unsigned depth)
    {
        TRIPS_ASSERT(depth < 256, "call depth overflow in ", f.name);
        std::vector<u64> regs(f.nextVreg, 0);
        for (size_t i = 0; i < args.size(); ++i)
            regs[i] = args[i];

        u32 bb = 0;
        while (true) {
            pollDeadlineAt(++blocks);
            const BasicBlock &blk = f.blocks[bb];
            for (const Instr &in : blk.instrs) {
                if (res.dynOps >= fuel) {
                    res.fuelExhausted = true;
                    return 0;
                }
                ++res.dynOps;
                step(f, in, regs, depth);
                if (res.fuelExhausted)
                    return 0;
            }
            ++res.dynOps;  // terminator
            const Terminator &t = blk.term;
            switch (t.kind) {
              case TermKind::Br:
                bb = regs[t.cond] ? t.thenBlock : t.elseBlock;
                break;
              case TermKind::Jmp:
                bb = t.thenBlock;
                break;
              case TermKind::Ret:
                return t.retVal == NO_VREG ? 0 : regs[t.retVal];
            }
        }
    }

    void
    step(const Function &f, const Instr &in, std::vector<u64> &regs,
         unsigned depth)
    {
        auto S = [&](unsigned i) { return regs[in.srcs[i]]; };
        auto D = [&](u64 v) { if (in.dst != NO_VREG) regs[in.dst] = v; };
        switch (in.op) {
          case WOp::Const:
            D(in.isFloat ? asU(in.fimm) : static_cast<u64>(in.imm));
            break;
          case WOp::Copy: D(S(0)); break;
          case WOp::Add: D(S(0) + S(1)); break;
          case WOp::Sub: D(S(0) - S(1)); break;
          case WOp::Mul: D(S(0) * S(1)); break;
          case WOp::Div: {
            i64 b = static_cast<i64>(S(1));
            D(b ? static_cast<u64>(static_cast<i64>(S(0)) / b) : 0);
            break;
          }
          case WOp::DivU: D(S(1) ? S(0) / S(1) : 0); break;
          case WOp::Mod: {
            i64 b = static_cast<i64>(S(1));
            D(b ? static_cast<u64>(static_cast<i64>(S(0)) % b) : 0);
            break;
          }
          case WOp::ModU: D(S(1) ? S(0) % S(1) : 0); break;
          case WOp::And: D(S(0) & S(1)); break;
          case WOp::Or: D(S(0) | S(1)); break;
          case WOp::Xor: D(S(0) ^ S(1)); break;
          case WOp::Not: D(~S(0)); break;
          case WOp::Shl: D(S(0) << (S(1) & 63)); break;
          case WOp::Shr: D(S(0) >> (S(1) & 63)); break;
          case WOp::Sar:
            D(static_cast<u64>(static_cast<i64>(S(0)) >> (S(1) & 63)));
            break;
          case WOp::SextB: D(static_cast<u64>(static_cast<i64>(
              static_cast<i8>(S(0))))); break;
          case WOp::SextH: D(static_cast<u64>(static_cast<i64>(
              static_cast<i16>(S(0))))); break;
          case WOp::SextW: D(static_cast<u64>(static_cast<i64>(
              static_cast<i32>(S(0))))); break;
          case WOp::ZextB: D(S(0) & 0xff); break;
          case WOp::ZextH: D(S(0) & 0xffff); break;
          case WOp::ZextW: D(S(0) & 0xffffffffULL); break;
          case WOp::FAdd: D(asU(asF(S(0)) + asF(S(1)))); break;
          case WOp::FSub: D(asU(asF(S(0)) - asF(S(1)))); break;
          case WOp::FMul: D(asU(asF(S(0)) * asF(S(1)))); break;
          case WOp::FDiv: D(asU(asF(S(0)) / asF(S(1)))); break;
          case WOp::FNeg: D(asU(-asF(S(0)))); break;
          case WOp::IToF: D(asU(static_cast<double>(
              static_cast<i64>(S(0))))); break;
          case WOp::FToI: D(static_cast<u64>(static_cast<i64>(
              asF(S(0))))); break;
          case WOp::CmpEq: D(S(0) == S(1)); break;
          case WOp::CmpNe: D(S(0) != S(1)); break;
          case WOp::CmpLt:
            D(static_cast<i64>(S(0)) < static_cast<i64>(S(1)));
            break;
          case WOp::CmpLe:
            D(static_cast<i64>(S(0)) <= static_cast<i64>(S(1)));
            break;
          case WOp::CmpGt:
            D(static_cast<i64>(S(0)) > static_cast<i64>(S(1)));
            break;
          case WOp::CmpGe:
            D(static_cast<i64>(S(0)) >= static_cast<i64>(S(1)));
            break;
          case WOp::CmpLtU: D(S(0) < S(1)); break;
          case WOp::CmpGeU: D(S(0) >= S(1)); break;
          case WOp::FCmpEq: D(asF(S(0)) == asF(S(1))); break;
          case WOp::FCmpNe: D(asF(S(0)) != asF(S(1))); break;
          case WOp::FCmpLt: D(asF(S(0)) < asF(S(1))); break;
          case WOp::FCmpLe: D(asF(S(0)) <= asF(S(1))); break;
          case WOp::Load: {
            ++res.loads;
            Addr a = S(0) + static_cast<u64>(in.imm);
            unsigned bytes = static_cast<unsigned>(in.width);
            u64 v = mem.read(a, bytes);
            if (in.loadSigned && bytes < 8) {
                u64 sign = 1ULL << (8 * bytes - 1);
                v = (v ^ sign) - sign;
            }
            D(v);
            break;
          }
          case WOp::Store: {
            ++res.stores;
            Addr a = S(0) + static_cast<u64>(in.imm);
            mem.write(a, S(1), static_cast<unsigned>(in.width));
            break;
          }
          case WOp::Select: D(S(0) ? S(1) : S(2)); break;
          case WOp::Call: {
            std::vector<u64> args;
            args.reserve(in.srcs.size());
            for (Vreg s : in.srcs)
                args.push_back(regs[s]);
            u64 rv = exec(m.function(in.callee), args, depth + 1);
            D(rv);
            break;
          }
        }
        (void)f;
    }
};

} // namespace

RunResult
Interp::run(const Module &m, MemImage &mem, u64 fuel)
{
    Machine machine(m, mem, fuel);
    u64 rv = machine.exec(m.function(m.mainFunction), {}, 0);
    machine.res.retVal = static_cast<i64>(rv);
    return machine.res;
}

void
Interp::loadGlobals(const Module &m, MemImage &mem)
{
    for (const auto &g : m.globals) {
        if (!g.init.empty())
            mem.writeBytes(g.addr, g.init.data(), g.init.size());
    }
}

} // namespace trips::wir
