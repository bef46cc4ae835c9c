/**
 * @file
 * Pre-decoded threaded-code representation of TRIPS blocks: the one
 * functional engine's block format.
 *
 * A token-scatter interpreter re-discovers every block instance's
 * dataflow: each fired instruction pushes its consumers onto a ready
 * queue, consumers are re-examined once per delivered token, and memory
 * operations poll a separate LSID queue. That discovery work is
 * identical for every instance of the same block, so it is done once.
 * (Such an interpreter survives as the test oracle,
 * tests/func_reference.hh.)
 *
 * decodeBlock() lowers a block into a dense threaded-code record built
 * around two ideas:
 *
 *   1. A topological fire schedule over the combined dataflow +
 *      LSID-chain graph, with instructions *renumbered into schedule
 *      order*: execution is one sequential walk, and by the time an
 *      instruction is visited every producer that can ever feed it has
 *      already fired, so "token never arrives" becomes "producer did
 *      not fire" — a plain array lookup.
 *
 *   2. Pull dataflow: instead of scattering produced tokens to
 *      consumers, every operand/predicate slot is resolved at decode
 *      time to a SrcRef — an index into one dense result/state array
 *      holding instruction results (0..n-1) and block-entry-injected
 *      header reads (n..n+numReads-1), a dedicated always-empty slot
 *      for unproducible operands, or a merge list when several
 *      predicated producers statically target one slot (scan for the
 *      one that fired; two firing is a malformed-program panic).
 *      Steady-state execution therefore writes one result word and one
 *      state byte per instruction and never materializes tokens at all.
 *
 * Each instruction is one packed 24-byte DecInst (predicate mode,
 * materialized immediate, memory width, LSID, operand SrcRefs, and a
 * handler id for the engine's direct-threaded dispatch — instructions
 * proven to always fire get specialized per-opcode handlers with no
 * predicate or arrival checks). The per-instance ISA-stat contribution
 * (usefulness marking + classification) is a pure function of the
 * fired/null state bytes for a fixed block, and real programs revisit
 * very few distinct patterns per block, so it is memoized in a small
 * set-associative table keyed by those bytes.
 *
 * Every valid block decodes: isa::validateBlock (run by
 * Program::finalize) rejects blocks whose combined graph is cyclic (a
 * later-LSID memory op feeding an earlier one, or a dataflow cycle) and
 * slots fed by two header reads. A block mutated after finalize into
 * one of those shapes makes decodeBlock throw TripsError{InvalidArgument,
 * Sim}; no block is ever run another way.
 *
 * DecodedProgram is the per-Program decoded-block cache (the analogue
 * of the cycle-level InstMeta cache): blocks decode lazily on first
 * execution and are never invalidated because programs are immutable
 * after compilation. Simulators over the same Program may share one
 * cache; lazy decoding and the stats memo are not synchronized, so
 * sharing is single-thread only (sweep workers build per-worker
 * programs anyway).
 */

#ifndef TRIPSIM_TRIPS_PREDECODE_HH
#define TRIPSIM_TRIPS_PREDECODE_HH

#include <memory>
#include <vector>

#include "isa/program.hh"

namespace trips::sim {

/** Dense dispatch kind of a decoded instruction (the stats/marking
 *  classification; the hot loop dispatches on the opcode itself). */
enum class DecKind : u8 {
    Compute,  ///< ALU/test/move/constant-gen: evalOp over ready operands
    NullW,    ///< NULLW: unconditionally produces a null token
    Load,     ///< sized load, LSID-ordered
    Store,    ///< sized store, LSID-ordered
    Branch,   ///< block exit (BRO/CALLO/RET)
};

/**
 * Resolved producer of an operand/predicate/write slot. Values below
 * SRC_MERGE are plain indices into the engine's result/state arrays:
 * 0..n-1 are instructions (schedule order), n..n+numReads-1 are header
 * reads (whose values are injected at block start), and SRC_NONE_SLOT
 * is a dedicated always-empty slot for statically unproducible
 * operands — so the common resolution is one indexed load with no
 * branching at all. SRC_MERGE | poolIdx marks a multi-producer slot
 * (offset into mergePool, [count, entries...]).
 */
using SrcRef = u16;
constexpr SrcRef SRC_MERGE = 0x8000;
constexpr SrcRef SRC_PAYLOAD = 0x7FFF;
constexpr SrcRef SRC_NONE_SLOT = isa::MAX_INSTS + isa::MAX_READS;

/**
 * Dispatch handler ids for the direct-threaded walk (DecInst::handler
 * indexes the engine's label table). Instructions whose firing is
 * statically unconditional — unpredicated, every required operand fed
 * by an always-firing single producer — get a specialized "hot"
 * handler (H_HOT_BASE + opcode) that skips the predicate and
 * operand-arrival checks; everything else takes the generic handler of
 * its kind, and a sentinel H_DONE entry terminates the walk.
 */
enum FastHandler : u8 {
    H_GEN_COMPUTE = 0,
    H_GEN_NULLW,
    H_GEN_LOAD,
    H_GEN_STORE,
    H_GEN_BRANCH,
    H_HOT_BASE,
};
constexpr u8 H_DONE =
    H_HOT_BASE + static_cast<u8>(isa::Opcode::NUM_OPCODES);

/** Packed per-instruction record; every hot-loop field in 24 bytes.
 *  Instructions are numbered in fire-schedule order. */
struct DecInst
{
    u8 kind;        ///< DecKind (stats classification)
    u8 pred;        ///< isa::PredMode
    u8 numIn;       ///< value operands required to fire
    u8 width;       ///< memory access bytes (else 0)
    u8 lsid;
    u8 cls;         ///< isa::OpClass (stats classification)
    isa::Opcode op;
    u8 handler;     ///< FastHandler label index
    i64 imm;        ///< immediate, sign-extended once
    SrcRef src0, src1, srcP;  ///< operand/predicate producers
    u16 opMsgs;     ///< operand-message targets (stats)
};
static_assert(sizeof(DecInst) == 24);

/** ISA-stat contribution of one block instance (memoized per dynamic
 *  fired/null pattern; see DecodedBlock::memo*). */
struct StatsDelta
{
    u32 fired = 0, moves = 0, useful = 0, operandMessages = 0;
    u32 usefulArith = 0, usefulMemory = 0, usefulControl = 0,
        usefulTests = 0;
    u32 executedNotUsed = 0, fetchedNotExecuted = 0;
    u32 loadsExecuted = 0, storesCommitted = 0, writesCommitted = 0;
};

/** A block decoded for the fast engine (see file comment). */
struct DecodedBlock
{
    u16 n = 0;           ///< compute instructions
    u16 numReads = 0;
    u16 numWrites = 0;
    u32 storeMask = 0;

    /** Instructions in fire-schedule order, plus one trailing
     *  H_DONE sentinel so the threaded walk needs no bounds check
     *  (n + 1 entries). */
    std::vector<DecInst> insts;

    /** Multi-producer slot lists: [count, SrcRef...] runs, indexed by
     *  the payload of a SRC_MERGE SrcRef. Entries are instruction or
     *  read refs only (never nested merges). */
    std::vector<SrcRef> mergePool;

    /** Every SRC_MERGE ref in the block (operand, predicate, or write
     *  slot). The engine re-resolves each after the walk so a doubly
     *  delivered slot panics even when its consumer never fired — a
     *  token interpreter's delivery-time check. */
    std::vector<SrcRef> mergeRefs;

    std::vector<u8> readReg;       ///< register per header read slot
    std::vector<u8> writeReg;      ///< register per header write slot
    std::vector<SrcRef> writeSrc;  ///< producer per header write slot

    // Cold branch fields, indexed like insts (only the one fired
    // branch per instance touches them).
    std::vector<i32> targetBlock;  ///< branch destination (BRO/CALLO)
    std::vector<i32> returnBlock;  ///< continuation block (CALLO)

    /** Block slot of each schedule index (isa::fireSchedule order);
     *  read only when building observer records. */
    std::vector<u16> origSlot;

    /**
     * Direct-mapped stats-delta memo. Key = the instance's raw
     * fired/null state bytes (the fst array, which fully determines
     * the marking, the write-commit set, and every per-class count for
     * a fixed block); value = the IsaStats contribution of any
     * instance with that state. Collisions simply overwrite (the delta
     * is recomputed if the old pattern returns).
     */
    static constexpr unsigned MEMO_WAYS = 16;
    std::vector<u8> memoFst;  ///< MEMO_WAYS runs of n state bytes
    StatsDelta memoVal[MEMO_WAYS] = {};
    u8 memoValid[MEMO_WAYS] = {};

    /** Decoded footprint in bytes (cache accounting). */
    u64 bytes() const;
};

/** Decode one block (pure function of the immutable block). Throws
 *  TripsError{InvalidArgument, Sim} when @p b has no static schedule
 *  (see file comment). */
DecodedBlock decodeBlock(const isa::Block &b);

/** Lazy per-Program cache of decoded blocks. */
class DecodedProgram
{
  public:
    explicit DecodedProgram(const isa::Program &prog)
        : prog_(prog), blocks_(prog.numBlocks()) {}

    /** The decoded form of block @p idx (decoded on first use).
     *  Non-const: the block carries its own stats memo. */
    DecodedBlock &block(u32 idx)
    {
        if (!blocks_[idx])
            decode(idx);
        return *blocks_[idx];
    }

    const isa::Program &program() const { return prog_; }

    // Cache accounting.
    u64 blocksDecoded() const { return decoded_; }
    u64 bytes() const { return bytes_; }

  private:
    void decode(u32 idx);

    const isa::Program &prog_;
    std::vector<std::unique_ptr<DecodedBlock>> blocks_;
    u64 decoded_ = 0;
    u64 bytes_ = 0;
};

} // namespace trips::sim

#endif // TRIPSIM_TRIPS_PREDECODE_HH
