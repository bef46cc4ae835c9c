#include "trips/func_sim.hh"

#include <cstring>

#include "sim/checkpoint.hh"
#include "trips/exec_core.hh"
#include "trips/predecode.hh"

namespace trips::sim {

using isa::Opcode;
using isa::OpClass;
using isa::PredMode;

namespace {

/** Slot states of the engine's result array. */
enum : u8 { TOK_EMPTY = 0, TOK_VALUE = 1, TOK_NULL = 2 };

/**
 * The result-array index whose token reached slot @p enc this instance:
 * the producer itself for a plain ref, the one candidate that fired for
 * a merge slot, SRC_NONE_SLOT (never filled) when nothing arrived.
 */
inline SrcRef
deliverer(SrcRef enc, const u8 *fst, const SrcRef *pool)
{
    if (enc < SRC_MERGE)
        return fst[enc] != TOK_EMPTY ? enc : SRC_NONE_SLOT;
    const SrcRef *m = pool + (enc & SRC_PAYLOAD);
    for (SrcRef c = 1; c <= m[0]; ++c) {
        if (fst[m[c]] != TOK_EMPTY)
            return m[c];
    }
    return SRC_NONE_SLOT;
}

} // namespace

/** Per-block-instance buffers, allocated once per simulator. */
struct FuncSim::Scratch
{
    // Result buffers, fixed to the architectural limits (decodeBlock
    // refuses larger blocks) so a block instance costs one small
    // memset, never an allocation. The pull model stores exactly
    // one result word and one state byte per instruction — consumers
    // read them back through their pre-resolved SrcRefs — so there is
    // no token array to clear or scatter into. Layout matches SrcRef:
    // [0, n) instructions, [n, n + numReads) injected header reads,
    // index SRC_NONE_SLOT a permanently empty slot.
    u64 res[isa::MAX_INSTS + isa::MAX_READS + 1];
    u8 fst[isa::MAX_INSTS + isa::MAX_READS + 1];
    u8 fmarked[isa::MAX_INSTS];
    u16 fmq[isa::MAX_INSTS];

    // One-entry page cache for loads/stores (page buffers are
    // pointer-stable, see MemImage::pageMutable). Invalidated at run()
    // entry, on restore(), and after a page-crossing store.
    Addr pageIdx = ~0ull;
    const u8 *pageR = nullptr;  ///< null: page not resident at lookup
    u8 *pageW = nullptr;        ///< null: not yet fetched mutable

    void invalidatePageCache()
    {
        pageIdx = ~0ull;
        pageR = nullptr;
        pageW = nullptr;
    }
};

FuncSim::FuncSim(const isa::Program &prog, MemImage &mem)
    : prog(prog), mem(mem), scratch(std::make_unique<Scratch>()),
      decoded(std::make_unique<DecodedProgram>(prog)), cur(prog.entry)
{
    // Stack pointer convention: R1 starts at the module stack base.
    regfile[1] = STACK_BASE;
}

FuncSim::~FuncSim() = default;

u64 FuncSim::decodedBlocks() const
{
    return decoded->blocksDecoded();
}

u64 FuncSim::decodedBytes() const
{
    return decoded->bytes();
}

namespace {

/** Fold one memoized block-instance contribution into the aggregate. */
inline void
applyDelta(IsaStats &st, const StatsDelta &dl)
{
    st.fired += dl.fired;
    st.moves += dl.moves;
    st.useful += dl.useful;
    st.operandMessages += dl.operandMessages;
    st.usefulArith += dl.usefulArith;
    st.usefulMemory += dl.usefulMemory;
    st.usefulControl += dl.usefulControl;
    st.usefulTests += dl.usefulTests;
    st.executedNotUsed += dl.executedNotUsed;
    st.fetchedNotExecuted += dl.fetchedNotExecuted;
    st.loadsExecuted += dl.loadsExecuted;
    st.storesCommitted += dl.storesCommitted;
    st.writesCommitted += dl.writesCommitted;
}

} // namespace

/**
 * One block instance. The decoded block's fire schedule is a
 * topological order of the dataflow + LSID-chain graph, so by the time
 * an instruction is visited every producer that can ever feed it has
 * settled: execution is a single direct-threaded walk that *pulls*
 * each operand from its pre-resolved producer slot instead of
 * scattering tokens. Block entry injects the header-read values into
 * the result array (slots n..n+numReads-1), so the common operand
 * resolution is one indexed load; an unfired producer means the
 * operand never arrives — a token interpreter's terminal pending state.
 * Firing order does not affect architectural results or IsaStats — the
 * verifier's exactly-one-token-per-slot guarantee makes the fired set,
 * token values and provenance order-independent — which is what makes
 * this bit-identical to a dynamic token interpreter (the test oracle,
 * tests/func_reference.hh).
 *
 * Dispatch is direct-threaded: each DecInst carries a handler index
 * assigned at decode, every handler ends by jumping straight to the
 * next instruction's handler (computed goto, so each handler's
 * indirect branch trains its own predictor slot), and a sentinel entry
 * terminates the walk without a bounds check. Instructions proven at
 * decode to always fire (unpredicated, every operand fed by an
 * always-firing single producer) take specialized per-opcode handlers
 * with no predicate or arrival checks and a branchless
 * null-propagation rule; evalOp is called with a compile-time-constant
 * opcode there so its inner dispatch constant-folds into the handler
 * body. On a null input those handlers still compute a result from
 * whatever bytes the operand slot holds — safe because consumers gate
 * on the state byte and never read a null result value, and the only
 * ops that could trap on garbage (integer divides) take a guarded
 * variant.
 *
 * The usefulness/classification pass is memoized per block, keyed on
 * the raw fired/null state bytes, which fully determine it for a fixed
 * block (the write-commit set is itself a function of them).
 */
FuncSim::FastExit
FuncSim::executeBlockFast(u32 bidx, DecodedBlock &d)
{
    Scratch &s = *scratch;
    const u16 n = d.n;
    u64 *const res = s.res;
    u8 *const fst = s.fst;
    // Clear up to an 8-byte boundary so the memo hash reads whole
    // deterministic words; header reads land just past n and always
    // inject TOK_VALUE, so any overlap stays deterministic.
    std::memset(fst, TOK_EMPTY, (n + 7u) & ~7u);
    fst[SRC_NONE_SLOT] = TOK_EMPTY;
    for (u16 r = 0; r < d.numReads; ++r) {
        res[n + r] = regfile[d.readReg[r]];
        fst[n + r] = TOK_VALUE;
    }

    u32 store_done_mask = 0;
    int fired_branch = -1;

    const DecInst *const insts = d.insts.data();
    const SrcRef *const pool = d.mergePool.data();

    // Resolve one slot to its delivered token: returns the token state
    // (TOK_EMPTY when the producer never fired) and leaves the value
    // in @p out. Plain refs are one indexed load; merge slots scan
    // their candidates for the one that fired — two delivering is a
    // double-delivery panic. Force-inlined: the post-walk merge
    // and write loops call it per slot and the call overhead shows.
    auto resolve = [&](SrcRef enc,
                       u64 &out) __attribute__((always_inline)) -> u8 {
        if (enc < SRC_MERGE) {
            out = res[enc];
            return fst[enc];
        }
        const SrcRef *m = pool + (enc & SRC_PAYLOAD);
        u8 st = TOK_EMPTY;
        for (SrcRef c = 1; c <= m[0]; ++c) {
            const SrcRef e = m[c];
            if (fst[e] != TOK_EMPTY) {
                TRIPS_ASSERT(st == TOK_EMPTY,
                             "slot received two tokens in block ", bidx);
                st = fst[e];
                out = res[e];
            }
        }
        return st;
    };

    // Generic-handler preamble: predicate gate plus operand arrival.
    // False means the instruction never fires this instance — empty
    // operand, null predicate, and predicate mismatch all look the
    // same afterwards (fst stays TOK_EMPTY).
    auto genReady = [&](const DecInst *di, u64 &a, u64 &b, u8 &sa,
                        u8 &sb) -> bool {
        if (di->pred != static_cast<u8>(PredMode::None)) {
            u64 pv;
            if (resolve(di->srcP, pv) != TOK_VALUE)
                return false;
            if ((pv != 0) !=
                (di->pred == static_cast<u8>(PredMode::OnTrue)))
                return false;
        }
        if (di->numIn >= 1 && (sa = resolve(di->src0, a)) == TOK_EMPTY)
            return false;
        if (di->numIn == 2 && (sb = resolve(di->src1, b)) == TOK_EMPTY)
            return false;
        return true;
    };

    // Force-inlined so the constant width at each call site unrolls
    // the byte loop (the outlined form costs a call per memory op).
    auto loadRaw = [&](Addr ea,
                       unsigned width) __attribute__((always_inline))
        -> u64 {
        const Addr off = ea & (MemImage::PAGE_SIZE - 1);
        if (off + width <= MemImage::PAGE_SIZE) {
            if ((ea >> MemImage::PAGE_BITS) != s.pageIdx) {
                s.pageIdx = ea >> MemImage::PAGE_BITS;
                s.pageR = mem.pageData(s.pageIdx);
                s.pageW = nullptr;
            }
            u64 raw = 0;
            if (s.pageR) {
                for (unsigned k = 0; k < width; ++k)
                    raw |= static_cast<u64>(s.pageR[off + k]) << (8 * k);
            }
            return raw;
        }
        return mem.read(ea, width);
    };

    auto storeRaw = [&](Addr ea, u64 v,
                        unsigned width) __attribute__((always_inline)) {
        const Addr off = ea & (MemImage::PAGE_SIZE - 1);
        if (off + width <= MemImage::PAGE_SIZE) {
            if ((ea >> MemImage::PAGE_BITS) != s.pageIdx || !s.pageW) {
                s.pageIdx = ea >> MemImage::PAGE_BITS;
                s.pageW = mem.pageMutable(ea);
                s.pageR = s.pageW;
            }
            for (unsigned k = 0; k < width; ++k)
                s.pageW[off + k] = static_cast<u8>(v >> (8 * k));
        } else {
            mem.write(ea, v, width);
            // A page-crossing write can create a page this cache
            // recorded as absent (pageR == nullptr); drop the entry so
            // the next fast-path access re-resolves it.
            s.invalidatePageCache();
        }
    };

    // Handler label table, indexed by DecInst::handler: the five
    // generic kinds, then one hot handler per opcode in enum order
    // (the three branch opcodes share a label), then the terminator.
    static const void *const L[] = {
        &&g_compute, &&g_nullw, &&g_load, &&g_store, &&g_branch,
        &&h_ADD, &&h_SUB, &&h_MUL, &&h_DIV, &&h_DIVU, &&h_MOD,
        &&h_MODU, &&h_AND, &&h_OR, &&h_XOR, &&h_NOT, &&h_SLL,
        &&h_SRL, &&h_SRA, &&h_ADDI, &&h_MULI, &&h_ANDI, &&h_ORI,
        &&h_XORI, &&h_SLLI, &&h_SRLI, &&h_SRAI, &&h_EXTSB, &&h_EXTSH,
        &&h_EXTSW, &&h_EXTUB, &&h_EXTUH, &&h_EXTUW, &&h_GENS,
        &&h_APP, &&h_FADD, &&h_FSUB, &&h_FMUL, &&h_FDIV, &&h_ITOF,
        &&h_FTOI, &&h_FNEG, &&h_TEQ, &&h_TNE, &&h_TLT, &&h_TLE,
        &&h_TGT, &&h_TGE, &&h_TLTU, &&h_TGEU, &&h_TEQI, &&h_TNEI,
        &&h_TLTI, &&h_TGTI, &&h_TFEQ, &&h_TFNE, &&h_TFLT, &&h_TFLE,
        &&h_LB, &&h_LBU, &&h_LH, &&h_LHU, &&h_LW, &&h_LWU, &&h_LD,
        &&h_SB, &&h_SH, &&h_SW, &&h_SD, &&h_branch, &&h_branch,
        &&h_branch, &&h_MOV, &&h_NULLW,
        &&l_done,
    };
    static_assert(sizeof(L) / sizeof(L[0]) == H_DONE + 1,
                  "handler table out of sync with FastHandler ids");

    u32 ip = 0;
    const DecInst *dp = insts;
#define DISPATCH()                                                      \
    do {                                                                \
        dp = &insts[++ip];                                              \
        goto *L[dp->handler];                                           \
    } while (0)

    goto *L[dp->handler];

    // ---- hot handlers: proven always-firing, no checks ----
    // Null propagation is branchless: input states here are TOK_VALUE
    // (01) or TOK_NULL (10), never empty, so bit 1 of their OR says
    // "some input null" and TOK_VALUE + that bit is the output state.
#define H_ALU2(OP)                                                      \
  h_##OP: {                                                             \
    const u8 nl = ((fst[dp->src0] | fst[dp->src1]) >> 1) & 1;           \
    res[ip] = evalOp(Opcode::OP, res[dp->src0], res[dp->src1],          \
                     dp->imm);                                          \
    fst[ip] = static_cast<u8>(TOK_VALUE + nl);                          \
    DISPATCH();                                                         \
  }
// Guarded variant: INT64_MIN / -1 traps in hardware, so the integer
// divides must not run on the garbage a null input leaves behind.
#define H_ALU2_DIV(OP)                                                  \
  h_##OP: {                                                             \
    const u8 nl = ((fst[dp->src0] | fst[dp->src1]) >> 1) & 1;           \
    if (!nl)                                                            \
        res[ip] = evalOp(Opcode::OP, res[dp->src0], res[dp->src1],      \
                         dp->imm);                                      \
    fst[ip] = static_cast<u8>(TOK_VALUE + nl);                          \
    DISPATCH();                                                         \
  }
#define H_ALU1(OP)                                                      \
  h_##OP: {                                                             \
    const u8 nl = (fst[dp->src0] >> 1) & 1;                             \
    res[ip] = evalOp(Opcode::OP, res[dp->src0], 0, dp->imm);            \
    fst[ip] = static_cast<u8>(TOK_VALUE + nl);                          \
    DISPATCH();                                                         \
  }
#define H_LOAD(OP)                                                      \
  h_##OP: {                                                             \
    if (fst[dp->src0] == TOK_VALUE) {                                   \
        res[ip] = extendLoad(                                           \
            Opcode::OP,                                                 \
            loadRaw(res[dp->src0] + static_cast<u64>(dp->imm),          \
                    memWidth(Opcode::OP)));                             \
        fst[ip] = TOK_VALUE;                                            \
    } else {                                                            \
        fst[ip] = TOK_NULL;                                             \
    }                                                                   \
    DISPATCH();                                                         \
  }
#define H_STORE(OP)                                                     \
  h_##OP: {                                                             \
    if (((fst[dp->src0] | fst[dp->src1]) & TOK_NULL) == 0) {            \
        storeRaw(res[dp->src0] + static_cast<u64>(dp->imm),             \
                 res[dp->src1], memWidth(Opcode::OP));                  \
        fst[ip] = TOK_VALUE;                                            \
    } else {                                                            \
        fst[ip] = TOK_NULL;                                             \
    }                                                                   \
    store_done_mask |= 1u << dp->lsid;                                  \
    DISPATCH();                                                         \
  }

    H_ALU2(ADD) H_ALU2(SUB) H_ALU2(MUL)
    H_ALU2_DIV(DIV) H_ALU2_DIV(DIVU) H_ALU2_DIV(MOD) H_ALU2_DIV(MODU)
    H_ALU2(AND) H_ALU2(OR) H_ALU2(XOR) H_ALU1(NOT)
    H_ALU2(SLL) H_ALU2(SRL) H_ALU2(SRA)
    H_ALU1(ADDI) H_ALU1(MULI) H_ALU1(ANDI) H_ALU1(ORI) H_ALU1(XORI)
    H_ALU1(SLLI) H_ALU1(SRLI) H_ALU1(SRAI)
    H_ALU1(EXTSB) H_ALU1(EXTSH) H_ALU1(EXTSW)
    H_ALU1(EXTUB) H_ALU1(EXTUH) H_ALU1(EXTUW)
  h_GENS: {
    res[ip] = evalOp(Opcode::GENS, 0, 0, dp->imm);
    fst[ip] = TOK_VALUE;
    DISPATCH();
  }
    H_ALU1(APP)
    H_ALU2(FADD) H_ALU2(FSUB) H_ALU2(FMUL) H_ALU2(FDIV)
    H_ALU1(ITOF) H_ALU1(FTOI) H_ALU1(FNEG)
    H_ALU2(TEQ) H_ALU2(TNE) H_ALU2(TLT) H_ALU2(TLE)
    H_ALU2(TGT) H_ALU2(TGE) H_ALU2(TLTU) H_ALU2(TGEU)
    H_ALU1(TEQI) H_ALU1(TNEI) H_ALU1(TLTI) H_ALU1(TGTI)
    H_ALU2(TFEQ) H_ALU2(TFNE) H_ALU2(TFLT) H_ALU2(TFLE)
    H_LOAD(LB) H_LOAD(LBU) H_LOAD(LH) H_LOAD(LHU)
    H_LOAD(LW) H_LOAD(LWU) H_LOAD(LD)
    H_STORE(SB) H_STORE(SH) H_STORE(SW) H_STORE(SD)
  h_branch: {
    TRIPS_ASSERT(fired_branch < 0, "two branches fired in block ",
                 bidx);
    fired_branch = static_cast<int>(ip);
    fst[ip] = TOK_VALUE;  // branches never carry null
    DISPATCH();
  }
    H_ALU1(MOV)
  h_NULLW: {
    fst[ip] = TOK_NULL;
    DISPATCH();
  }
#undef H_ALU2
#undef H_ALU2_DIV
#undef H_ALU1
#undef H_LOAD
#undef H_STORE

    // ---- generic handlers: predicated / conditionally-fed ----
  g_compute: {
    u64 a = 0, b = 0;
    u8 sa = TOK_VALUE, sb = TOK_VALUE;
    if (genReady(dp, a, b, sa, sb)) {
        u64 v = 0;
        const bool is_null = sa == TOK_NULL || sb == TOK_NULL;
        if (!is_null)
            v = evalOp(dp->op, a, b, dp->imm);
        res[ip] = v;
        fst[ip] = is_null ? TOK_NULL : TOK_VALUE;
    }
    DISPATCH();
  }
  g_nullw: {
    u64 a = 0, b = 0;
    u8 sa = TOK_VALUE, sb = TOK_VALUE;
    if (genReady(dp, a, b, sa, sb)) {
        fst[ip] = TOK_NULL;
    }
    DISPATCH();
  }
  g_load: {
    u64 a = 0, b = 0;
    u8 sa = TOK_VALUE, sb = TOK_VALUE;
    if (genReady(dp, a, b, sa, sb)) {
        if (sa == TOK_NULL) {
            fst[ip] = TOK_NULL;
        } else {
            res[ip] = extendLoad(
                dp->op,
                loadRaw(a + static_cast<u64>(dp->imm), dp->width));
            fst[ip] = TOK_VALUE;
        }
    }
    DISPATCH();
  }
  g_store: {
    u64 a = 0, b = 0;
    u8 sa = TOK_VALUE, sb = TOK_VALUE;
    if (genReady(dp, a, b, sa, sb)) {
        const bool is_null = sa == TOK_NULL || sb == TOK_NULL;
        if (!is_null)
            storeRaw(a + static_cast<u64>(dp->imm), b, dp->width);
        fst[ip] = is_null ? TOK_NULL : TOK_VALUE;
        store_done_mask |= 1u << dp->lsid;
    }
    DISPATCH();
  }
  g_branch: {
    u64 a = 0, b = 0;
    u8 sa = TOK_VALUE, sb = TOK_VALUE;
    if (genReady(dp, a, b, sa, sb)) {
        TRIPS_ASSERT(fired_branch < 0,
                     "two branches fired in block ", bidx);
        fired_branch = static_cast<int>(ip);
        fst[ip] = TOK_VALUE;
    }
    DISPATCH();
  }
#undef DISPATCH

  l_done:
    // Re-resolve every merge slot so a doubly delivered slot panics
    // even when its consumer never pulled it — a token interpreter's
    // delivery-time safety net.
    for (SrcRef mref : d.mergeRefs) {
        u64 dummy;
        resolve(mref, dummy);
    }

    // Header writes: resolve every slot before touching the register
    // file — a write fed straight from a header read must capture the
    // pre-commit register value, exactly as read injection does.
    u64 wVal[isa::MAX_WRITES];
    u8 wSt[isa::MAX_WRITES];
    unsigned writes_done = 0;
    for (u16 w = 0; w < d.numWrites; ++w) {
        wSt[w] = resolve(d.writeSrc[w], wVal[w]);
        writes_done += wSt[w] != TOK_EMPTY;
    }

    const bool stores_complete =
        (store_done_mask & d.storeMask) == d.storeMask;
    if (writes_done != d.numWrites || !stores_complete ||
        fired_branch < 0) {
        TRIPS_PANIC("block ", prog.block(bidx).label,
                    " did not complete: writes ", writes_done, "/",
                    d.numWrites, " storeMask 0x", std::hex,
                    store_done_mask, " vs 0x", d.storeMask, std::dec,
                    " branch ", fired_branch);
    }

    // Commit: architectural register update and control transfer.
    const u16 fb = static_cast<u16>(fired_branch);
    FastExit fx;
    fx.branch = fb;
    fx.isCall = insts[fb].op == Opcode::CALLO;
    fx.isRet = insts[fb].op == Opcode::RET;
    if (!fx.isRet)
        fx.nextBlock = static_cast<u32>(d.targetBlock[fb]);
    fx.returnBlock = d.returnBlock[fb];

    for (u16 w = 0; w < d.numWrites; ++w) {
        if (wSt[w] == TOK_VALUE)
            regfile[d.writeReg[w]] = wVal[w];
    }

    // ---- ISA statistics ----
    ++stats.blocks;
    stats.fetched += n;
    stats.readsFetched += d.numReads;

    // The usefulness marking and per-class counts are a pure function
    // of the fired/null state bytes for a fixed block (the
    // write-commit set is itself derived from them), so the raw fst
    // prefix is the memo key: hash whole words, compare bytes.
    u64 h = n;
    for (unsigned c = 0; c < ((n + 7u) >> 3); ++c) {
        u64 chunk;
        std::memcpy(&chunk, fst + 8 * c, 8);
        h = h * 0x9E3779B97F4A7C15ull ^ chunk;
    }
    const unsigned way = (h >> 59) & (DecodedBlock::MEMO_WAYS - 1);
    u8 *const mslot = d.memoFst.data() + static_cast<size_t>(way) * n;
    if (d.memoValid[way] && std::memcmp(mslot, fst, n) == 0) {
        applyDelta(stats, d.memoVal[way]);
        return fx;
    }

    StatsDelta delta;
    std::memset(s.fmarked, 0, n);
    u16 mq_top = 0;
    auto seed = [&](i16 p) {
        if (p >= 0 && !s.fmarked[p]) {
            s.fmarked[p] = 1;
            s.fmq[mq_top++] = static_cast<u16>(p);
        }
    };
    // Producer of a slot's delivered token: PROD_NONE when the token
    // never arrived or came from a header read — marking only follows
    // instruction producers.
    auto prodOf = [&](SrcRef enc) -> i16 {
        const SrcRef e = deliverer(enc, fst, pool);
        return e < n ? static_cast<i16>(e) : PROD_NONE;
    };
    seed(static_cast<i16>(fb));
    for (u16 w = 0; w < d.numWrites; ++w) {
        if (wSt[w] == TOK_VALUE) {
            ++delta.writesCommitted;
            seed(prodOf(d.writeSrc[w]));
        }
    }
    for (u16 i = 0; i < n; ++i) {
        if (fst[i] == TOK_VALUE &&
            static_cast<DecKind>(insts[i].kind) == DecKind::Store)
            seed(static_cast<i16>(i));
    }
    while (mq_top) {
        const u16 i = s.fmq[--mq_top];
        const DecInst &di = insts[i];
        seed(prodOf(di.src0));
        seed(prodOf(di.src1));
        seed(prodOf(di.srcP));
    }

    for (u16 i = 0; i < n; ++i) {
        if (fst[i] == TOK_EMPTY) {
            ++delta.fetchedNotExecuted;
            continue;
        }
        ++delta.fired;
        delta.operandMessages += insts[i].opMsgs;
        const bool is_null = fst[i] == TOK_NULL;
        const OpClass cls = static_cast<OpClass>(insts[i].cls);
        if (cls == OpClass::Move) {
            ++delta.moves;
        } else if (s.fmarked[i] && !is_null) {
            ++delta.useful;
            switch (cls) {
              case OpClass::IntArith:
              case OpClass::FpArith:
                ++delta.usefulArith;
                break;
              case OpClass::Load:
              case OpClass::Store:
                ++delta.usefulMemory;
                break;
              case OpClass::Branch:
                ++delta.usefulControl;
                break;
              case OpClass::Test:
                ++delta.usefulTests;
                break;
              default:
                break;
            }
        } else {
            ++delta.executedNotUsed;
        }
        if (cls == OpClass::Load && !is_null)
            ++delta.loadsExecuted;
        if (cls == OpClass::Store && !is_null)
            ++delta.storesCommitted;
    }

    std::memcpy(mslot, fst, n);
    d.memoVal[way] = delta;
    d.memoValid[way] = 1;
    applyDelta(stats, delta);
    return fx;
}

/**
 * Observed mode: rebuild the committed instance's record from the
 * walk's result/state arrays. Runs after executeBlockFast, whose
 * fst[]/res[] still hold the instance; costs nothing when no observer
 * is attached. Fired instructions are listed in schedule order, with
 * the provenance and addresses a token interpreter records at fire
 * time: in a topological order every token an instruction ever receives
 * has arrived before it is visited.
 */
void
FuncSim::buildRecord(u32 bidx, const DecodedBlock &d, const FastExit &fx,
                     u32 next, bool halts)
{
    const isa::Block &b = prog.block(bidx);
    const u16 n = d.n;
    const u8 *const fst = scratch->fst;
    const u64 *const res = scratch->res;
    const SrcRef *const pool = d.mergePool.data();

    // Result-array index -> record provenance: block slot of an
    // instruction, PROD_READ0 - r for header read r.
    auto provenance = [&](SrcRef src) -> i16 {
        if (src == SRC_NONE_SLOT)
            return PROD_NONE;
        if (src < n)
            return static_cast<i16>(d.origSlot[src]);
        return static_cast<i16>(PROD_READ0 - static_cast<i16>(src - n));
    };

    BlockRecord &rec = workRec;
    rec.blockIdx = bidx;
    rec.nextBlock = next;
    rec.branchInst = d.origSlot[fx.branch];
    rec.exitTaken = b.insts[rec.branchInst].exit;
    rec.isCall = fx.isCall;
    rec.isRet = fx.isRet;
    rec.halts = halts;

    rec.fired.clear();
    for (u16 k = 0; k < n; ++k) {
        if (fst[k] == TOK_EMPTY)
            continue;
        const DecInst &di = d.insts[k];
        const SrcRef a = deliverer(di.src0, fst, pool);
        FiredOp f;
        f.inst = d.origSlot[k];
        f.prodOp0 = provenance(a);
        f.prodOp1 = provenance(deliverer(di.src1, fst, pool));
        f.prodPred = provenance(deliverer(di.srcP, fst, pool));
        f.width = di.width;
        f.nullToken = fst[k] == TOK_NULL;
        // A memory op that fired with a value touched ea = src0 + imm.
        if (di.width && !f.nullToken)
            f.addr = res[a] + static_cast<u64>(di.imm);
        rec.fired.push_back(f);
    }

    rec.writeProducer.resize(d.numWrites);
    rec.writeIsNull.resize(d.numWrites);
    for (u16 w = 0; w < d.numWrites; ++w) {
        const SrcRef src = deliverer(d.writeSrc[w], fst, pool);
        rec.writeProducer[w] = provenance(src);
        rec.writeIsNull[w] = fst[src] == TOK_NULL;
    }
}

FuncResult
FuncSim::run(u64 max_blocks)
{
    FuncResult result;
    if (haltedFlag) {
        result.retVal = finalRet;
        result.stats = stats;
        return result;
    }
    const bool observed = !observers.empty();
    // Callers may have mutated the bound memory image between run()
    // slices; revalidate the borrowed page pointer lazily.
    scratch->invalidatePageCache();
    for (u64 count = 0; count < max_blocks; ++count) {
        DecodedBlock &d = decoded->block(cur);
        const FastExit fx = executeBlockFast(cur, d);
        ++blocksDone;
        u32 next = fx.nextBlock;
        bool halts = false;
        if (fx.isCall) {
            TRIPS_ASSERT(fx.returnBlock >= 0);
            callStack.push_back(static_cast<u32>(fx.returnBlock));
        } else if (fx.isRet) {
            if (callStack.empty()) {
                halts = true;
            } else {
                next = callStack.back();
                callStack.pop_back();
            }
        }
        if (observed) {
            buildRecord(cur, d, fx, next, halts);
            for (auto *obs : observers)
                obs->onBlockCommit(prog.block(cur), workRec);
        }
        if (halts) {
            haltedFlag = true;
            finalRet = static_cast<i64>(regfile[RETVAL_REG]);
            result.retVal = finalRet;
            result.stats = stats;
            return result;
        }
        cur = next;
    }
    result.fuelExhausted = true;
    result.stats = stats;
    return result;
}

void
FuncSim::snapshot(Checkpoint &ck) const
{
    TRIPS_ASSERT(!haltedFlag, "cannot checkpoint a halted program");
    ck.regfile = regfile;
    ck.callStack = callStack;
    ck.nextBlock = cur;
    ck.blocksExecuted = blocksDone;
    ck.stats = stats;
    ck.mem = mem;
}

void
FuncSim::restore(const Checkpoint &ck)
{
    regfile = ck.regfile;
    callStack = ck.callStack;
    cur = ck.nextBlock;
    blocksDone = ck.blocksExecuted;
    stats = ck.stats;
    haltedFlag = false;
    finalRet = 0;
    mem = ck.mem;
    // The assignment above rebuilt every page buffer.
    scratch->invalidatePageCache();
}

} // namespace trips::sim
