/**
 * @file
 * The legacy token-scatter functional interpreter, kept verbatim as the
 * oracle for the pre-decoded engine (see func_reference.hh). Nothing in
 * src/ links this file. Do not optimise it: its value is that it
 * discovers each block instance's dataflow dynamically, independently
 * of the static schedule the production engine walks.
 */

#include "func_reference.hh"

#include <algorithm>
#include <optional>

#include "support/pool.hh"
#include "trips/exec_core.hh"

namespace trips::sim::ref {

using isa::Block;
using isa::Instruction;
using isa::Opcode;
using isa::OpClass;
using isa::PredMode;
using isa::Target;

namespace {

/** Token states during block dataflow execution. */
enum : u8 { TOK_EMPTY = 0, TOK_VALUE = 1, TOK_NULL = 2 };

struct Tok
{
    u8 st = TOK_EMPTY;
    u64 v = 0;
    i16 prod = PROD_NONE;
};

/** Instruction states. */
enum : u8 { ST_PENDING = 0, ST_FIRED = 1, ST_DEAD = 2 };

/** Static per-block metadata computed once and cached. */
struct BlockMeta
{
    /** producers[inst][operand 0..2] = producer encodings. */
    std::vector<std::array<std::vector<i16>, 3>> producers;
    /** Memory instructions sorted by (LSID, slot). */
    std::vector<u16> memOrder;

    explicit BlockMeta(const Block &b)
        : producers(b.insts.size())
    {
        auto note = [&](const Target &t, i16 prod) {
            switch (t.kind) {
              case Target::Kind::Op0:
                producers[t.index][0].push_back(prod);
                break;
              case Target::Kind::Op1:
                producers[t.index][1].push_back(prod);
                break;
              case Target::Kind::Pred:
                producers[t.index][2].push_back(prod);
                break;
              default:
                break;
            }
        };
        for (size_t r = 0; r < b.reads.size(); ++r) {
            for (const auto &t : b.reads[r].targets)
                note(t, static_cast<i16>(PROD_READ0 - static_cast<i16>(r)));
        }
        for (size_t i = 0; i < b.insts.size(); ++i) {
            for (const auto &t : b.insts[i].targets)
                note(t, static_cast<i16>(i));
            if (isMemory(b.insts[i].op))
                memOrder.push_back(static_cast<u16>(i));
        }
        std::sort(memOrder.begin(), memOrder.end(),
                  [&](u16 a, u16 c) {
                      if (b.insts[a].lsid != b.insts[c].lsid)
                          return b.insts[a].lsid < b.insts[c].lsid;
                      return a < c;
                  });
    }
};

/**
 * Per-block dataflow buffers, allocated once per simulator and reused
 * for every block instance (assign() keeps capacity, SmallVec keeps
 * its buffer), so steady-state block execution does not allocate.
 */
struct Scratch
{
    std::vector<std::array<Tok, 3>> opnd;
    std::vector<u8> state;
    std::vector<u8> data_ready;
    std::vector<i32> fired_idx;
    std::vector<Tok> write_tok;
    std::vector<u8> color;
    std::vector<u8> marked;
    SmallVec<u16, 128> readyq;
    SmallVec<u16, 128> mq;
};

/** Architectural state of one reference run. */
class RefSim
{
  public:
    RefSim(const isa::Program &prog, MemImage &mem,
           const std::vector<BlockObserver *> &observers)
        : prog(prog), mem(mem), observers(observers),
          metas(prog.numBlocks()), cur(prog.entry)
    {
        // Stack pointer convention: R1 starts at the module stack base.
        regfile[1] = STACK_BASE;
    }

    FuncResult run(u64 max_blocks);

  private:
    BlockRecord &executeBlock(u32 bidx);

    const BlockMeta &
    meta(u32 bidx)
    {
        if (!metas[bidx])
            metas[bidx].emplace(prog.block(bidx));
        return *metas[bidx];
    }

    const isa::Program &prog;
    MemImage &mem;
    const std::vector<BlockObserver *> &observers;
    std::array<u64, isa::NUM_REGS> regfile{};
    std::vector<u32> callStack;
    std::vector<std::optional<BlockMeta>> metas;
    Scratch scratch;
    BlockRecord workRec;
    IsaStats stats;
    u32 cur;
};

BlockRecord &
RefSim::executeBlock(u32 bidx)
{
    const Block &b = prog.block(bidx);
    const BlockMeta &m = meta(bidx);
    const size_t n = b.insts.size();

    auto &opnd = scratch.opnd;
    auto &state = scratch.state;
    auto &data_ready = scratch.data_ready;
    auto &fired_idx = scratch.fired_idx;
    auto &write_tok = scratch.write_tok;
    auto &readyq = scratch.readyq;
    opnd.assign(n, {});
    state.assign(n, ST_PENDING);
    data_ready.assign(n, 0);
    fired_idx.assign(n, -1);
    write_tok.assign(b.writes.size(), Tok{});
    readyq.clear();

    BlockRecord &rec = workRec;
    rec.blockIdx = bidx;
    rec.nextBlock = 0;
    rec.exitTaken = 0;
    rec.isCall = rec.isRet = rec.halts = false;
    rec.branchInst = 0;
    rec.fired.clear();
    rec.writeProducer.assign(b.writes.size(), PROD_NONE);
    rec.writeIsNull.assign(b.writes.size(), false);

    unsigned writes_done = 0;
    u32 store_done_mask = 0;
    int fired_branch = -1;
    u64 operand_msgs = 0;

    auto deliver = [&](const Target &t, const Tok &tok) {
        switch (t.kind) {
          case Target::Kind::None:
            return;
          case Target::Kind::Write:
            TRIPS_ASSERT(write_tok[t.index].st == TOK_EMPTY,
                         "write slot ", unsigned(t.index),
                         " received two tokens in block ", b.label);
            write_tok[t.index] = tok;
            rec.writeProducer[t.index] = tok.prod;
            rec.writeIsNull[t.index] = tok.st == TOK_NULL;
            ++writes_done;
            return;
          default: {
            unsigned k = t.kind == Target::Kind::Op0 ? 0
                       : t.kind == Target::Kind::Op1 ? 1 : 2;
            auto &slot = opnd[t.index][k];
            TRIPS_ASSERT(slot.st == TOK_EMPTY,
                         "operand ", k, " of inst ", unsigned(t.index),
                         " received two tokens in block ", b.label);
            slot = tok;
            if (tok.prod >= 0 && k < 2)
                ++operand_msgs;
            else if (tok.prod >= 0)
                ++operand_msgs;  // predicate delivery is also a message
            readyq.push_back(t.index);
            return;
          }
        }
    };

    auto record_fire = [&](u16 i, bool null_tok, Addr addr, u8 width) {
        FiredOp f;
        f.inst = i;
        f.prodOp0 = opnd[i][0].st != TOK_EMPTY ? opnd[i][0].prod : PROD_NONE;
        f.prodOp1 = opnd[i][1].st != TOK_EMPTY ? opnd[i][1].prod : PROD_NONE;
        f.prodPred = opnd[i][2].st != TOK_EMPTY ? opnd[i][2].prod : PROD_NONE;
        f.addr = addr;
        f.width = width;
        f.nullToken = null_tok;
        fired_idx[i] = static_cast<i32>(rec.fired.size());
        rec.fired.push_back(f);
        state[i] = ST_FIRED;
    };

    // Fire a data-ready non-memory instruction.
    auto fire_compute = [&](u16 i) {
        const Instruction &in = b.insts[i];
        const auto &info = opInfo(in.op);
        if (isBranch(in.op)) {
            TRIPS_ASSERT(fired_branch < 0,
                         "two branches fired in block ", b.label);
            fired_branch = i;
            record_fire(i, false, 0, 0);
            return;
        }
        bool any_null = false;
        for (unsigned k = 0; k < info.numInputs; ++k)
            any_null |= opnd[i][k].st == TOK_NULL;
        Tok out;
        out.prod = static_cast<i16>(i);
        if (in.op == Opcode::NULLW || any_null) {
            out.st = TOK_NULL;
        } else {
            out.st = TOK_VALUE;
            out.v = evalOp(in.op, opnd[i][0].v, opnd[i][1].v, in.imm);
        }
        record_fire(i, out.st == TOK_NULL, 0, 0);
        for (const auto &t : in.targets)
            deliver(t, out);
    };

    auto fire_memory = [&](u16 i) {
        const Instruction &in = b.insts[i];
        unsigned width = memWidth(in.op);
        bool addr_null = opnd[i][0].st == TOK_NULL;
        Addr ea = opnd[i][0].v + static_cast<u64>(static_cast<i64>(in.imm));
        if (isLoad(in.op)) {
            Tok out;
            out.prod = static_cast<i16>(i);
            if (addr_null) {
                out.st = TOK_NULL;
            } else {
                out.st = TOK_VALUE;
                out.v = extendLoad(in.op, mem.read(ea, width));
            }
            record_fire(i, out.st == TOK_NULL, addr_null ? 0 : ea,
                        static_cast<u8>(width));
            for (const auto &t : in.targets)
                deliver(t, out);
        } else {
            bool val_null = opnd[i][1].st == TOK_NULL;
            bool is_null = addr_null || val_null;
            if (!is_null)
                mem.write(ea, opnd[i][1].v, width);
            record_fire(i, is_null, is_null ? 0 : ea,
                        static_cast<u8>(width));
            store_done_mask |= 1u << in.lsid;
        }
    };

    // Examine an instruction: fire it, queue it for memory issue, or
    // mark it dead on a mismatched/null predicate.
    auto examine = [&](u16 i) {
        if (state[i] != ST_PENDING || data_ready[i])
            return;
        const Instruction &in = b.insts[i];
        const auto &info = opInfo(in.op);
        if (in.predicated()) {
            const auto &p = opnd[i][2];
            if (p.st == TOK_EMPTY)
                return;
            bool want = in.pr == PredMode::OnTrue;
            if (p.st == TOK_NULL || (p.v != 0) != want) {
                state[i] = ST_DEAD;
                if (isStore(in.op))
                    store_done_mask |= 0;  // settled via deadness below
                return;
            }
        }
        for (unsigned k = 0; k < info.numInputs; ++k) {
            if (opnd[i][k].st == TOK_EMPTY)
                return;
        }
        if (isMemory(in.op)) {
            data_ready[i] = 1;
        } else {
            fire_compute(i);
        }
    };

    // Conservative reachability: can instruction i still fire?
    // colors: 0 unvisited, 1 visiting, 2 yes, 3 no.
    auto &color = scratch.color;
    color.assign(n, 0);
    auto can_still_fire = [&](auto &&self, u16 i) -> bool {
        if (state[i] == ST_FIRED || state[i] == ST_DEAD)
            return false;
        if (color[i] == 2)
            return true;
        if (color[i] == 3 || color[i] == 1)
            return false;  // cycle: treat as cannot fire
        color[i] = 1;
        const Instruction &in = b.insts[i];
        const auto &info = opInfo(in.op);
        bool possible = true;
        auto operand_possible = [&](unsigned k) {
            if (opnd[i][k].st != TOK_EMPTY)
                return true;
            for (i16 p : m.producers[i][k]) {
                if (isReadProducer(p))
                    return true;
                if (self(self, static_cast<u16>(p)))
                    return true;
            }
            return false;
        };
        if (in.predicated()) {
            const auto &p = opnd[i][2];
            bool want = in.pr == PredMode::OnTrue;
            if (p.st == TOK_NULL ||
                (p.st == TOK_VALUE && (p.v != 0) != want))
                possible = false;
            else if (p.st == TOK_EMPTY && !operand_possible(2))
                possible = false;
        }
        for (unsigned k = 0; possible && k < info.numInputs; ++k)
            possible = operand_possible(k);
        color[i] = possible ? 2 : 3;
        return possible;
    };

    // Inject register reads.
    for (size_t r = 0; r < b.reads.size(); ++r) {
        Tok tok;
        tok.st = TOK_VALUE;
        tok.v = regfile[b.reads[r].reg];
        tok.prod = static_cast<i16>(PROD_READ0 - static_cast<i16>(r));
        for (const auto &t : b.reads[r].targets)
            deliver(t, tok);
    }
    // Zero-input instructions (GENS, NULLW, unpredicated branches) are
    // ready immediately.
    for (u16 i = 0; i < n; ++i) {
        const auto &in = b.insts[i];
        if (opInfo(in.op).numInputs == 0 && !in.predicated())
            readyq.push_back(i);
    }

    size_t mem_ptr = 0;
    auto mem_settled = [&](u16 i) {
        return state[i] == ST_FIRED || state[i] == ST_DEAD;
    };

    while (true) {
        bool progress = false;
        while (!readyq.empty()) {
            u16 i = readyq.back();
            readyq.pop_back();
            examine(i);
            progress = true;
        }
        // Issue memory operations in LSID order.
        while (mem_ptr < m.memOrder.size()) {
            u16 i = m.memOrder[mem_ptr];
            if (mem_settled(i)) {
                ++mem_ptr;
                progress = true;
                continue;
            }
            if (data_ready[i]) {
                fire_memory(i);
                ++mem_ptr;
                progress = true;
                // Loads may enable more compute; drain before advancing.
                break;
            }
            break;
        }
        if (!readyq.empty())
            continue;
        if (progress)
            continue;
        // Quiescent: resolve provable deadness at the memory head.
        if (mem_ptr < m.memOrder.size()) {
            u16 i = m.memOrder[mem_ptr];
            std::fill(color.begin(), color.end(), 0);
            if (!can_still_fire(can_still_fire, i)) {
                state[i] = ST_DEAD;
                ++mem_ptr;
                continue;
            }
        }
        break;
    }

    bool stores_complete =
        (store_done_mask & b.storeMask) == b.storeMask;
    if (writes_done != b.writes.size() || !stores_complete ||
        fired_branch < 0) {
        TRIPS_PANIC("block ", b.label, " did not complete: writes ",
                    writes_done, "/", b.writes.size(), " storeMask 0x",
                    std::hex, store_done_mask, " vs 0x", b.storeMask,
                    std::dec, " branch ", fired_branch);
    }

    // Commit: architectural register update.
    const Instruction &br = b.insts[fired_branch];
    rec.branchInst = static_cast<u16>(fired_branch);
    rec.exitTaken = br.exit;
    rec.isCall = br.op == Opcode::CALLO;
    rec.isRet = br.op == Opcode::RET;
    if (br.op != Opcode::RET)
        rec.nextBlock = static_cast<u32>(br.targetBlock);

    for (size_t w = 0; w < b.writes.size(); ++w) {
        if (write_tok[w].st == TOK_VALUE)
            regfile[b.writes[w].reg] = write_tok[w].v;
    }

    // ---- ISA statistics ----
    ++stats.blocks;
    stats.fetched += n;
    stats.readsFetched += b.reads.size();
    stats.operandMessages += operand_msgs;
    for (size_t w = 0; w < b.writes.size(); ++w) {
        if (write_tok[w].st == TOK_VALUE)
            ++stats.writesCommitted;
    }

    // Usefulness marking: backward from committed outputs.
    auto &marked = scratch.marked;
    auto &mq = scratch.mq;
    marked.assign(n, 0);
    mq.clear();
    auto seed = [&](i16 p) {
        if (p >= 0 && !marked[p]) {
            marked[p] = 1;
            mq.push_back(static_cast<u16>(p));
        }
    };
    seed(static_cast<i16>(fired_branch));
    for (size_t w = 0; w < b.writes.size(); ++w) {
        if (write_tok[w].st == TOK_VALUE)
            seed(write_tok[w].prod);
    }
    for (const auto &f : rec.fired) {
        if (isStore(b.insts[f.inst].op) && !f.nullToken)
            seed(static_cast<i16>(f.inst));
    }
    while (!mq.empty()) {
        u16 i = mq.back();
        mq.pop_back();
        const auto &f = rec.fired[fired_idx[i]];
        seed(f.prodOp0);
        seed(f.prodOp1);
        seed(f.prodPred);
    }

    for (u16 i = 0; i < n; ++i) {
        if (state[i] != ST_FIRED) {
            ++stats.fetchedNotExecuted;
            continue;
        }
        ++stats.fired;
        const auto &in = b.insts[i];
        const auto &f = rec.fired[fired_idx[i]];
        OpClass cls = opInfo(in.op).cls;
        if (cls == OpClass::Move) {
            ++stats.moves;
        } else if (marked[i] && !f.nullToken) {
            ++stats.useful;
            switch (cls) {
              case OpClass::IntArith:
              case OpClass::FpArith:
                ++stats.usefulArith;
                break;
              case OpClass::Load:
              case OpClass::Store:
                ++stats.usefulMemory;
                break;
              case OpClass::Branch:
                ++stats.usefulControl;
                break;
              case OpClass::Test:
                ++stats.usefulTests;
                break;
              default:
                break;
            }
        } else {
            ++stats.executedNotUsed;
        }
        if (isLoad(in.op) && !f.nullToken)
            ++stats.loadsExecuted;
        if (isStore(in.op) && !f.nullToken)
            ++stats.storesCommitted;
    }

    return rec;
}

FuncResult
RefSim::run(u64 max_blocks)
{
    FuncResult result;
    for (u64 count = 0; count < max_blocks; ++count) {
        BlockRecord &rec = executeBlock(cur);
        const auto &br = prog.block(cur).insts[rec.branchInst];
        if (rec.isCall) {
            TRIPS_ASSERT(br.returnBlock >= 0);
            callStack.push_back(static_cast<u32>(br.returnBlock));
        } else if (rec.isRet) {
            if (callStack.empty()) {
                rec.halts = true;
            } else {
                rec.nextBlock = callStack.back();
                callStack.pop_back();
            }
        }
        for (auto *obs : observers)
            obs->onBlockCommit(prog.block(cur), rec);
        if (rec.halts) {
            result.retVal =
                static_cast<i64>(regfile[FuncSim::RETVAL_REG]);
            result.stats = stats;
            return result;
        }
        cur = rec.nextBlock;
    }
    result.fuelExhausted = true;
    result.stats = stats;
    return result;
}

} // namespace

FuncResult
refRun(const isa::Program &prog, MemImage &mem, u64 max_blocks,
       const std::vector<BlockObserver *> &observers)
{
    return RefSim(prog, mem, observers).run(max_blocks);
}

} // namespace trips::sim::ref
