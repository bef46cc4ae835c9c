/**
 * @file
 * TRIPS functional simulator: block-atomic dataflow execution of a
 * compiled TRIPS program.
 *
 * Each block executes as a token dataflow graph: register reads inject
 * values, instructions fire when their value operands have arrived and
 * their predicate (if any) matches, null tokens satisfy store/write
 * outputs without side effects, and memory operations issue in LSID
 * order. A block commits when every write slot and every store-mask
 * LSID has completed and exactly one branch has fired.
 *
 * There is one engine: every block instance is one walk over the
 * block's static fire schedule (see predecode.hh). Program::finalize
 * guarantees the schedule exists, so no block is run any other way.
 *
 * The simulator exposes a BlockObserver stream of per-block dynamic
 * records (fired instructions with operand provenance, memory addresses,
 * exits). The ISA-evaluation stats (paper §4), the next-block predictor
 * study (Fig. 7), and the ideal-machine limit study (Fig. 10) are all
 * observers of this stream. With observers attached, run() rebuilds
 * each committed instance's record from the same walk's state; with
 * none attached it builds nothing.
 */

#ifndef TRIPSIM_TRIPS_FUNC_SIM_HH
#define TRIPSIM_TRIPS_FUNC_SIM_HH

#include <array>
#include <memory>
#include <vector>

#include "isa/program.hh"
#include "support/memimage.hh"
#include "support/stats.hh"

namespace trips::sim {

/** Provenance encoding for operand producers. */
constexpr i16 PROD_NONE = -1;
/** Producer was header read instruction k: encoded as PROD_READ0 - k. */
constexpr i16 PROD_READ0 = -2;

inline bool isReadProducer(i16 p) { return p <= PROD_READ0; }
inline unsigned readProducerIndex(i16 p)
{
    return static_cast<unsigned>(PROD_READ0 - p);
}

/** One fired instruction within a committed block instance. */
struct FiredOp
{
    u16 inst;           ///< slot index in the block
    i16 prodOp0 = PROD_NONE;
    i16 prodOp1 = PROD_NONE;
    i16 prodPred = PROD_NONE;
    Addr addr = 0;      ///< effective address (memory ops)
    u8 width = 0;       ///< access bytes (memory ops)
    bool nullToken = false;  ///< produced/propagated a null token
};

/** Dynamic record of one committed block. */
struct BlockRecord
{
    u32 blockIdx = 0;
    u32 nextBlock = 0;
    u8 exitTaken = 0;
    bool isCall = false;
    bool isRet = false;
    bool halts = false;
    u16 branchInst = 0;          ///< slot of the firing branch
    /**
     * Fired instructions in schedule order: a topological order of the
     * block's dataflow edges ∪ LSID chain (isa::fireSchedule), so every
     * instruction producer precedes its consumers and memory ops appear
     * in (LSID, slot) order. Consumers may rely on exactly this and on
     * nothing more specific about the order.
     */
    std::vector<FiredOp> fired;
    /** Per write slot: producing inst (or PROD_NONE) and nullness. */
    std::vector<i16> writeProducer;
    std::vector<bool> writeIsNull;
};

/** Callback interface for consumers of the dynamic block stream. */
class BlockObserver
{
  public:
    virtual ~BlockObserver() = default;
    virtual void onBlockCommit(const isa::Block &block,
                               const BlockRecord &rec) = 0;
};

/** Aggregate ISA-evaluation statistics (paper §4 and Fig. 5). */
struct IsaStats
{
    u64 blocks = 0;
    u64 fetched = 0;            ///< compute insts in committed blocks
    u64 fired = 0;              ///< instructions that executed
    u64 useful = 0;             ///< fired, used, not a move/null helper
    u64 moves = 0;              ///< fired MOV/NULLW helpers
    u64 fetchedNotExecuted = 0;
    u64 executedNotUsed = 0;    ///< fired but result unused (speculation)
    // Useful-instruction composition (Fig. 3 categories).
    u64 usefulArith = 0;
    u64 usefulMemory = 0;
    u64 usefulControl = 0;
    u64 usefulTests = 0;
    // Storage accesses (Fig. 5).
    u64 readsFetched = 0;
    u64 writesCommitted = 0;
    u64 loadsExecuted = 0;
    u64 storesCommitted = 0;
    u64 operandMessages = 0;    ///< direct inst->inst token deliveries

    double meanBlockSize() const
    {
        return blocks ? static_cast<double>(fetched) / blocks : 0.0;
    }
};

/** Result of running a whole program. */
struct FuncResult
{
    i64 retVal = 0;             ///< register R3 at halt
    bool fuelExhausted = false;
    IsaStats stats;
};

struct Checkpoint;
struct DecodedBlock;
class DecodedProgram;

class FuncSim
{
  public:
    /** Register holding the architectural return value by convention. */
    static constexpr unsigned RETVAL_REG = 3;

    FuncSim(const isa::Program &prog, MemImage &mem);
    ~FuncSim();

    /** Attach an observer of committed blocks (not owned). */
    void addObserver(BlockObserver *obs) { observers.push_back(obs); }

    /**
     * Execute up to @p max_blocks further blocks from the current
     * position (the entry block initially). Returns with
     * fuelExhausted set when the budget ran out before the program
     * halted; calling run() again simply continues, so a caller can
     * fast-forward in slices and checkpoint at block boundaries.
     * After the program has halted, further calls return the final
     * result immediately.
     */
    FuncResult run(u64 max_blocks = 50'000'000);

    /** Has the program returned from its outermost frame? */
    bool halted() const { return haltedFlag; }

    /** Committed blocks so far (the checkpoint boundary counter). */
    u64 blocksExecuted() const { return blocksDone; }

    /** Block the next run() slice would execute first. */
    u32 nextBlock() const { return cur; }

    /**
     * Capture the complete architectural state (registers, call
     * stack, next block, fuel/ISA counters, memory image) at the
     * current block boundary into @p ck.
     */
    void snapshot(Checkpoint &ck) const;

    /**
     * Restore state captured by snapshot(): execution resumes at the
     * checkpoint's next block, and the bound memory image is
     * overwritten with the checkpoint's image.
     */
    void restore(const Checkpoint &ck);

    /** Architectural register file (readable after run). */
    const std::array<u64, isa::NUM_REGS> &regs() const { return regfile; }

    /**
     * Decoded-block cache accounting. Deliberately *not* part of
     * IsaStats: cache footprint is a property of the engine, not the
     * program.
     */
    u64 decodedBlocks() const;
    u64 decodedBytes() const;
    /** Blocks run without a static schedule: always 0, since every
     *  valid block has one (kept for the benchmark's pinned counter). */
    u64 decodedFallbacks() const { return 0; }

  private:
    struct Scratch;

    /** Post-commit control transfer of one block instance. */
    struct FastExit
    {
        u32 nextBlock = 0;
        i32 returnBlock = -1;
        u16 branch = 0;  ///< schedule index of the fired branch
        bool isCall = false;
        bool isRet = false;
    };

    /**
     * Execute one block instance: one indexed walk over the block's
     * static fire schedule (see predecode.hh). Leaves the instance's
     * result/state arrays in the scratch buffers for buildRecord().
     */
    FastExit executeBlockFast(u32 bidx, DecodedBlock &d);

    /** Fill workRec for the instance executeBlockFast just ran. */
    void buildRecord(u32 bidx, const DecodedBlock &d, const FastExit &fx,
                     u32 next, bool halts);

    const isa::Program &prog;
    MemImage &mem;
    std::array<u64, isa::NUM_REGS> regfile{};
    std::vector<u32> callStack;
    std::vector<BlockObserver *> observers;
    std::unique_ptr<Scratch> scratch;
    std::unique_ptr<DecodedProgram> decoded;
    BlockRecord workRec;  ///< observed mode only; reused across blocks
    IsaStats stats;

    // Resumable-execution cursor (see run()/snapshot()/restore()).
    u32 cur;
    u64 blocksDone = 0;
    bool haltedFlag = false;
    i64 finalRet = 0;
};

} // namespace trips::sim

#endif // TRIPSIM_TRIPS_FUNC_SIM_HH
