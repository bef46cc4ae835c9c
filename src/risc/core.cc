#include "risc/core.hh"

#include <cstring>

#include "support/deadline.hh"

namespace trips::risc {

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

} // namespace

Core::Core(const RProgram &prog, MemImage &mem)
    : prog(prog), mem(mem), pc(prog.entry)
{
    regs[REG_SP] = STACK_BASE;
    regs[REG_LR] = HALT_LR;
}

StepInfo
Core::step()
{
    StepInfo info;
    if (is_halted) {
        info.halted = true;
        return info;
    }
    const RInstr &in = prog.code.at(pc);
    info.pc = pc;
    info.inst = &in;
    u32 next = pc + 1;

    u64 a = regs[in.ra];
    u64 b = regs[in.rb];
    u64 c = regs[in.rc];
    auto set = [&](u64 v) {
        if (in.rd != REG_ZERO)
            regs[in.rd] = v;
        ++ctrs.regWrites;
    };

    ++ctrs.insts;
    ctrs.regReads += numSrcRegs(in);
    switch (rclass(in.op)) {
      case RClass::IntArith: ++ctrs.intOps; break;
      case RClass::FpArith: ++ctrs.fpOps; break;
      case RClass::Move: ++ctrs.moves; break;
      default: break;
    }

    switch (in.op) {
      case ROp::ADD: set(a + b); break;
      case ROp::SUB: set(a - b); break;
      case ROp::MUL: set(a * b); break;
      case ROp::DIV:
        set(static_cast<i64>(b)
                ? static_cast<u64>(static_cast<i64>(a) /
                                   static_cast<i64>(b))
                : 0);
        break;
      case ROp::DIVU: set(b ? a / b : 0); break;
      case ROp::MOD:
        set(static_cast<i64>(b)
                ? static_cast<u64>(static_cast<i64>(a) %
                                   static_cast<i64>(b))
                : 0);
        break;
      case ROp::MODU: set(b ? a % b : 0); break;
      case ROp::AND: set(a & b); break;
      case ROp::OR: set(a | b); break;
      case ROp::XOR: set(a ^ b); break;
      case ROp::SLL: set(a << (b & 63)); break;
      case ROp::SRL: set(a >> (b & 63)); break;
      case ROp::SRA:
        set(static_cast<u64>(static_cast<i64>(a) >> (b & 63)));
        break;
      case ROp::ADDI: set(a + static_cast<u64>(
          static_cast<i64>(in.imm))); break;
      case ROp::ANDI: set(a & static_cast<u64>(in.imm)); break;
      case ROp::ORI: set(a | static_cast<u64>(in.imm)); break;
      case ROp::XORI: set(a ^ static_cast<u64>(in.imm)); break;
      case ROp::SLLI: set(a << (in.imm & 63)); break;
      case ROp::SRLI: set(a >> (in.imm & 63)); break;
      case ROp::SRAI:
        set(static_cast<u64>(static_cast<i64>(a) >> (in.imm & 63)));
        break;
      case ROp::LI: set(static_cast<u64>(static_cast<i64>(in.imm)));
        break;
      case ROp::APPI:
        set((a << 16) | (static_cast<u64>(in.imm) & 0xffff));
        break;
      case ROp::NOT: set(~a); break;
      case ROp::EXTSB:
        set(static_cast<u64>(static_cast<i64>(static_cast<i8>(a))));
        break;
      case ROp::EXTSH:
        set(static_cast<u64>(static_cast<i64>(static_cast<i16>(a))));
        break;
      case ROp::EXTSW:
        set(static_cast<u64>(static_cast<i64>(static_cast<i32>(a))));
        break;
      case ROp::EXTUB: set(a & 0xff); break;
      case ROp::EXTUH: set(a & 0xffff); break;
      case ROp::EXTUW: set(a & 0xffffffffULL); break;
      case ROp::MR: set(a); break;
      case ROp::FADD: set(asU(asF(a) + asF(b))); break;
      case ROp::FSUB: set(asU(asF(a) - asF(b))); break;
      case ROp::FMUL: set(asU(asF(a) * asF(b))); break;
      case ROp::FDIV: set(asU(asF(a) / asF(b))); break;
      case ROp::FNEG: set(asU(-asF(a))); break;
      case ROp::ITOF:
        set(asU(static_cast<double>(static_cast<i64>(a))));
        break;
      case ROp::FTOI:
        set(static_cast<u64>(static_cast<i64>(asF(a))));
        break;
      case ROp::CMPEQ: set(a == b); break;
      case ROp::CMPNE: set(a != b); break;
      case ROp::CMPLT:
        set(static_cast<i64>(a) < static_cast<i64>(b));
        break;
      case ROp::CMPLE:
        set(static_cast<i64>(a) <= static_cast<i64>(b));
        break;
      case ROp::CMPGT:
        set(static_cast<i64>(a) > static_cast<i64>(b));
        break;
      case ROp::CMPGE:
        set(static_cast<i64>(a) >= static_cast<i64>(b));
        break;
      case ROp::CMPLTU: set(a < b); break;
      case ROp::CMPGEU: set(a >= b); break;
      case ROp::FCMPEQ: set(asF(a) == asF(b)); break;
      case ROp::FCMPNE: set(asF(a) != asF(b)); break;
      case ROp::FCMPLT: set(asF(a) < asF(b)); break;
      case ROp::FCMPLE: set(asF(a) <= asF(b)); break;
      case ROp::SELECT: set(a ? b : c); break;
      case ROp::LOAD: {
        ++ctrs.loads;
        Addr ea = a + static_cast<u64>(static_cast<i64>(in.imm));
        info.addr = ea;
        u64 v = mem.read(ea, in.width);
        if (in.loadSigned && in.width < 8) {
            u64 sign = 1ULL << (8 * in.width - 1);
            v = (v ^ sign) - sign;
        }
        set(v);
        break;
      }
      case ROp::STORE: {
        ++ctrs.stores;
        Addr ea = a + static_cast<u64>(static_cast<i64>(in.imm));
        info.addr = ea;
        mem.write(ea, b, in.width);
        break;
      }
      case ROp::BEQZ:
        ++ctrs.condBranches;
        info.taken = a == 0;
        if (info.taken) {
            next = in.target;
            ++ctrs.takenCondBranches;
        }
        break;
      case ROp::BNEZ:
        ++ctrs.condBranches;
        info.taken = a != 0;
        if (info.taken) {
            next = in.target;
            ++ctrs.takenCondBranches;
        }
        break;
      case ROp::J:
        next = in.target;
        break;
      case ROp::CALL:
        ++ctrs.calls;
        regs[REG_LR] = pc + 1;
        ++ctrs.regWrites;
        next = in.target;
        break;
      case ROp::RET:
        ++ctrs.returns;
        if (regs[REG_LR] == HALT_LR) {
            is_halted = true;
            info.halted = true;
        } else {
            next = static_cast<u32>(regs[REG_LR]);
        }
        break;
      case ROp::NUM_OPS:
        TRIPS_PANIC("bad opcode");
    }

    regs[REG_ZERO] = 0;
    pc = next;
    info.nextPc = next;
    return info;
}

i64
Core::run(u64 max_insts)
{
    for (u64 i = 0; i < max_insts && !is_halted; ++i) {
        pollDeadlineAt(i);
        step();
    }
    if (!is_halted)
        fuel_out = true;
    return static_cast<i64>(regs[REG_RET]);
}

} // namespace trips::risc
