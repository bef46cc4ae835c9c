/**
 * @file
 * Cycle-level simulator of the tiled TRIPS microarchitecture.
 *
 * Models the distributed protocols of the prototype: block fetch
 * through the I-cache banks, row-rate dispatch into the execution
 * tiles' reservation stations, dataflow issue (one instruction per ET
 * per cycle), operand routing over the 5x5 wormhole OPN with local
 * bypass, banked register tiles with inter-block forwarding, data
 * tiles with LSQs, a store-load dependence predictor and violation
 * flushes, next-block prediction with speculative block chaining
 * (up to 8 blocks in flight), and the block completion/commit
 * protocol. Architectural state (register file + memory image) is
 * updated only at commit, so the model commits exactly the same block
 * stream as the functional simulator (asserted by tests).
 *
 * The secondary memory system (NUCA L2 + OCN + DRAM) is *not* part of
 * this class: L1 misses, I-fetch misses, and writeback traffic go
 * through an explicit request/response port to a mem::MemorySystem.
 * A solo core owns a private single-core instance (bit-identical to
 * the historical private hierarchy); under ChipSim, N cores attach to
 * one shared instance and contend for its banks and OCN links.
 *
 * The per-cycle machinery is allocation-free in steady state: packet
 * payloads live in a SlabPool keyed by dense ids carried as OPN tags,
 * timed events sit in a bucketed timing wheel (bounded latencies) with
 * a small overflow heap (rare long-latency DRAM replies), and every
 * per-tile queue is a reuse-friendly SmallVec/RingQueue. Event order
 * is fully deterministic: same-cycle events fire in push order. The
 * wheel's FIFO buckets keep that order for free; the overflow heap
 * orders by (when, seq), and its due events fire before the bucket's
 * because they were pushed at least WHEEL_SIZE cycles earlier.
 */

#ifndef TRIPSIM_UARCH_CYCLE_SIM_HH
#define TRIPSIM_UARCH_CYCLE_SIM_HH

#include <array>
#include <memory>
#include <queue>
#include <vector>

#include "isa/program.hh"
#include "isa/topology.hh"
#include "mem/cache.hh"
#include "mem/memsys.hh"
#include "net/opn.hh"
#include "pred/predictors.hh"
#include "support/memimage.hh"
#include "support/pool.hh"
#include "uarch/config.hh"

namespace trips::sim {
struct Checkpoint;
}

namespace trips::obs {
struct CoreObs;
}

namespace trips::uarch {

/** Aggregate results of a cycle-level run. */
struct UarchResult
{
    i64 retVal = 0;
    bool fuelExhausted = false;

    u64 cycles = 0;
    u64 blocksCommitted = 0;
    u64 blocksFlushed = 0;
    u64 instsFetched = 0;       ///< in committed blocks
    u64 instsFired = 0;         ///< executed in committed blocks

    // Speculation events.
    u64 branchMispredicts = 0;  ///< next-block mispredictions (commits)
    u64 callRetMispredicts = 0;
    u64 loadViolationFlushes = 0;
    u64 icacheMissStalls = 0;   ///< block fetches that missed L1I

    // Memory system.
    u64 l1dHits = 0, l1dMisses = 0;
    u64 l1iHits = 0, l1iMisses = 0;     ///< per I-cache line access
    u64 l2Hits = 0, l2Misses = 0;
    u64 l1dWritebacks = 0;      ///< dirty L1D victims drained (stats-only)
    u64 l2Writebacks = 0;       ///< dirty L2 victims this core's refills evicted
    u64 loadsExecuted = 0, storesCommitted = 0;
    u64 bytesL1 = 0;            ///< bytes moved L1D<->core
    u64 bytesL2 = 0;            ///< bytes moved L2->L1 (refills)
    u64 bytesMem = 0;           ///< bytes moved DRAM->L2

    // Window occupancy (per-cycle samples).
    double avgBlocksInFlight = 0;
    double avgInstsInFlight = 0;    ///< dispatched insts in valid frames
    u64 peakInstsInFlight = 0;

    // Predictor detail.
    pred::NextBlockStats predictor;

    // OPN traffic profile (per class; bucket = hop count).
    std::array<Distribution,
               static_cast<size_t>(net::OpnClass::NUM_CLASSES)> opnHops;
    u64 opnPackets = 0;
    u64 localBypasses = 0;

    double ipc() const
    {
        return cycles ? static_cast<double>(instsFired) / cycles : 0;
    }

    /** Field-by-field equality (the averages compare exactly: equal
     *  runs accumulate them identically). */
    bool operator==(const UarchResult &) const = default;
};

class CycleSim
{
  public:
    /** Solo core: owns a private single-core uncore derived from the
     *  config (bit-identical to the historical private hierarchy). */
    CycleSim(const isa::Program &prog, MemImage &mem,
             const UarchConfig &cfg = UarchConfig{});

    /** Chip core: attaches to a shared uncore port as @p core_id (the
     *  MemorySystem itself under the serial lockstep engine, or a
     *  per-core buffering proxy under the parallel engine). The port
     *  must outlive the core; ChipSim drives these via
     *  stepCycle()/done()/finish(). */
    CycleSim(const isa::Program &prog, MemImage &mem,
             const UarchConfig &cfg, mem::UncorePort &uncore_,
             unsigned core_id);

    ~CycleSim();

    /** Run to halt (RET from the outermost frame). */
    UarchResult run();

    /**
     * Warm-start: begin detailed simulation from an architectural
     * checkpoint instead of block 0. Must be called before the first
     * cycle, and the bound MemImage must already hold the
     * checkpoint's memory image (FuncSim::restore or a plain copy of
     * Checkpoint::mem). Registers, call stack, and the first fetch
     * block come from the checkpoint; caches and predictors start
     * cold (the sampling layer re-warms them with discarded detailed
     * blocks — see DESIGN.md §7). blocksCommitted counts only blocks
     * committed after the restore point.
     */
    void warmStart(const sim::Checkpoint &ck);

    /**
     * Make done() fire once @p n blocks have committed (0 = off,
     * the default). A run stopped at the block bound does not report
     * fuelExhausted; used for bounded detailed sampling intervals.
     */
    void stopAfterBlocks(u64 n) { stopAtBlocks = n; }

    /**
     * Attach observability (obs/obs.hh: event tracing, sampled
     * metrics, stall attribution); call before the first cycle, or
     * with nullptr to detach. The hooks only read simulator state:
     * results are bit-identical attached vs not (the null-sink fast
     * path is one predicated pointer test per instrumented site).
     */
    void attachObs(const obs::CoreObs *o);

    // Lockstep driving (ChipSim): one cycle at a time.
    void stepCycle();
    bool
    done() const
    {
        return halted || now >= cfg.maxCycles ||
               (stopAtBlocks && res.blocksCommitted >= stopAtBlocks);
    }
    bool isHalted() const { return halted; }
    Cycle currentCycle() const { return now; }
    /** Live progress counters (for block-bounded sampling loops). */
    u64 committedSoFar() const { return res.blocksCommitted; }
    u64 firedSoFar() const { return res.instsFired; }
    /** Finalize the result after done(); call once. */
    UarchResult finish();

  private:
    struct Frame;
    struct DtState;

    /** Payload bound to an in-flight OPN packet (tag = pool id).
     *  Field order keeps the struct at 32 bytes: the pool is walked on
     *  every delivery, so density is cache hits. */
    struct PacketData
    {
        enum class Kind : u8 { Operand, WriteArrive, MemRequest, Branch };
        u64 value = 0;
        Addr addr = 0;
        unsigned fidx = 0;
        u32 epoch = 0;
        u16 inst = 0;       ///< consumer slot / memory inst / branch inst
        Kind kind = Kind::Operand;
        u8 operand = 0;     ///< 0/1/2 for Operand
        u8 writeSlot = 0;
        bool isNull = false;
        bool isStoreReq = false;
        u8 width = 0;
    };

    struct ReadyEntry
    {
        unsigned fidx;
        u32 epoch;
        u16 inst;
    };

    /**
     * A queued register read. A read that must wait records what
     * blocked it: an older frame (slot + epoch) whose header is still
     * being dispatched, or one of its write slots that is still empty.
     * While that holds the read's resolution cannot change (see
     * readStillBlocked), so the retry re-queues without walking the
     * frames.
     */
    struct RtRead
    {
        u32 epoch = 0;
        u32 blockerEpoch = 0;
        u16 readIdx = 0;
        u8 fidx = 0;
        u8 blocker = NO_BLOCKER;    ///< frame slot, or NO_BLOCKER
        u8 blockerSlot = 0;         ///< write slot, or HEADER_PENDING
    };
    static constexpr u8 NO_BLOCKER = 0xff;
    static constexpr u8 HEADER_PENDING = 0xff;

    enum class EvKind : u8 {
        ExecDone,       ///< an instruction's result is ready
        TokenDeliver,   ///< a locally bypassed operand arrives
        WriteNote,      ///< a register write reached the GT
        StoreNote,      ///< a store completion reached the GT
        LoadReply,      ///< a load's value returns to its ET
    };

    /**
     * A timed event, packed to 24 bytes. Its due cycle is implied by
     * the wheel bucket that holds it (or carried by the overflow
     * entry), and same-cycle order is the bucket's FIFO order.
     */
    struct Event
    {
        u64 value = 0;
        u32 epoch = 0;
        u16 inst = 0;
        u8 fidx = 0;
        EvKind kind = EvKind::ExecDone;
        u8 aux = 0;     ///< TokenDeliver: operand slot; StoreNote: LSID
        bool isNull = false;
    };

    /** An event due WHEEL_SIZE or more cycles after it was pushed. */
    struct LateEvent
    {
        Cycle when = 0;
        u64 seq = 0;   ///< push order among late events
        Event ev;

        bool operator<(const LateEvent &o) const
        {
            if (when != o.when)
                return when > o.when;
            return seq > o.seq;
        }
    };

    /** Timing-wheel span: covers every bounded latency in the model
     *  (ALU <= 24, status/token/cache-hit <= ~40 with NUCA steps);
     *  longer waits (DRAM replies) take the overflow heap. */
    static constexpr unsigned WHEEL_BITS = 6;
    static constexpr unsigned WHEEL_SIZE = 1u << WHEEL_BITS;
    static constexpr unsigned WHEEL_MASK = WHEEL_SIZE - 1;

    // Pipeline stages per cycle.
    void tickFetch();
    void tickDispatch();
    void tickRts();
    bool readStillBlocked(const RtRead &rr) const;
    void tickEts();
    void tickDts();
    void tickCommit();
    void deliverPackets();
    void pumpOutbox();
    void drainEvents();

    // Helpers.
    void initCommon();
    void startFetch(u32 block_idx);
    void issueInst(unsigned fidx, u16 inst, unsigned et);
    bool olderStoresDone(unsigned fidx, u16 inst) const;
    void sendMemRequest(unsigned fidx, u16 inst, unsigned et,
                        bool is_store, Addr ea, u64 value, bool unused);
    void resolveBranch(unsigned fidx, u16 inst, u8 exit);
    void tryResolveRets();
    void onNextKnown(unsigned fidx);
    void flushYoungerThan(unsigned fidx);
    void flushFrameAndYounger(unsigned fidx, u32 restart_block);
    void squashFrame(unsigned idx);
    bool frameOlder(unsigned a, unsigned b) const;
    unsigned frameIndexOf(Frame &f) const;
    void routeOperand(unsigned fidx, u16 producer, unsigned src_node,
                      const isa::Target &t, u64 value, bool is_null,
                      bool is_load_reply = false);
    void deliverToken(unsigned fidx, u16 inst, unsigned operand,
                      u64 value, bool is_null);
    void maybeWake(unsigned fidx, u16 inst);
    void finishExecute(unsigned fidx, u16 inst, u64 value,
                       bool is_null, bool is_load_reply = false);
    u64 loadValue(unsigned fidx, u8 lsid, Addr addr, u8 width);
    void checkViolations(unsigned fidx, u16 inst, Addr addr, u8 width,
                         u8 lsid);
    Cycle portAccess(Addr addr, bool is_write, unsigned requester_bank,
                     net::OcnClass cls);
    PacketData &queuePacket(unsigned src, unsigned dst, net::OpnClass cls);
    void pushEvent(Cycle when, EvKind kind, unsigned fidx, u32 epoch,
                   u16 inst = 0, u64 value = 0, bool is_null = false,
                   u8 aux = 0);
    void processEvent(const Event &ev);
    static bool srcIsDt(unsigned node);
    static bool srcIsRt(unsigned node);

    /**
     * Per-instruction static facts, decoded once per block and kept
     * hot: the wake/issue/route paths run every cycle and would
     * otherwise re-read the wide Instruction record, the opcode table
     * and the placement vector each time.
     */
    struct InstMeta
    {
        u8 et = 0;          ///< execution tile index (0..15)
        u8 etNode = 0;      ///< OPN node id of that ET
        u8 numInputs = 0;
        u8 latency = 0;
        u8 flags = 0;       ///< see FL_* below
        u8 lsid = 0;
        u8 needMask = 0;    ///< operand slots it waits on (bit 2 = pred)
        u8 needCount = 0;   ///< popcount(needMask)
    };
    enum : u8 {
        FL_PREDICATED = 1 << 0,
        FL_PRED_ON_TRUE = 1 << 1,
        FL_BRANCH = 1 << 2,
        FL_MEMORY = 1 << 3,
        FL_LOAD = 1 << 4,
    };

    const std::vector<InstMeta> &metaFor(u32 block_idx);

    const isa::Program &prog;
    MemImage &mem;
    UarchConfig cfg;

    std::vector<std::vector<InstMeta>> instMeta;  ///< per block, lazy

    std::array<u64, isa::NUM_REGS> regfile{};
    std::vector<u32> archStack;

    std::vector<Frame> frames;           ///< cfg.numFrames slots
    RingQueue<unsigned, 8> frameQueue;   ///< oldest..youngest (positions)
    u64 nextSeq = 1;

    net::OpnNetwork opn;
    SlabPool<PacketData> packetPool;
    /** Packets the OPN refused, retried in order at the end of each
     *  cycle, and the bit set of their source nodes. */
    SmallVec<net::OpnPacket, 64> outbox;
    u32 outboxNodes = 0;
    static_assert(net::OpnNetwork::NODES <= 32, "outboxNodes is a u32");

    // Event machinery: wheel buckets hold same-cycle events in push
    // order; the overflow heap is ordered by (when, seq). Small inline
    // buckets keep the wheel's working set compact; heavy buckets
    // spill once and keep their buffer.
    std::array<SmallVec<Event, 8>, WHEEL_SIZE> wheel;
    std::priority_queue<LateEvent> overflow;
    u64 lateSeq = 0;

    mem::Cache l1i;
    std::vector<mem::Cache> l1d;      ///< 4 banks (private)
    /** Port to the uncore (shared NUCA L2 + OCN + DRAM). Solo cores
     *  own a private single-core instance; chip cores attach to the
     *  ChipSim's shared one (directly, or through the parallel
     *  engine's per-core proxy). */
    std::unique_ptr<mem::MemorySystem> ownedUncore;
    mem::UncorePort *uncore;
    unsigned coreId = 0;
    pred::NextBlockPredictor predictor;
    pred::DependencePredictor depPred;

    std::vector<DtState> dts;
    u8 dtBusy = 0;         ///< bit per DT bank with queued requests
    std::array<SmallVec<ReadyEntry, 32>, isa::NUM_ETS> etReady;
    u32 etReadyMask = 0;   ///< bit per ET with a non-empty ready queue
    std::array<RingQueue<RtRead, 16>, isa::NUM_REG_BANKS> rtQueues;
    u8 rtBusy = 0;         ///< bit per register bank with queued reads

    std::vector<u32> retStack;        ///< tryResolveRets scratch (reused)
    unsigned retsPending = 0;         ///< frames with an unresolved RET

    // Fetch/dispatch engine.
    i32 fetchingFrame = -1;           ///< frame being fetched/dispatched
    Cycle fetchReadyAt = 0;
    unsigned dispatchCursor = 0;
    u32 nextFetchBlock = 0;
    bool fetchStalled = false;        ///< halted: no more fetch

    Cycle now = 0;
    UarchResult res;
    bool halted = false;
    u64 stopAtBlocks = 0;      ///< done() once this many blocks commit

    // Commit engine.
    Cycle commitDoneAt = 0;
    bool committing = false;

    // Observability (null = disabled: the fast path). The obs*
    // members are written only while attached and are never read by
    // the simulation proper.
    void obsCycleTick();
    void obsBlockCommit(const Frame &f);
    void obsNoteMem(const mem::MemResponse &resp, net::OcnClass cls);
    void obsSample();
    const obs::CoreObs *obs_ = nullptr;
    u64 obsLastCommitted = 0;     ///< commit-cycle edge detector
    u32 obsLastCommitBlock = 0;
    Cycle obsConflictUntil = 0;   ///< youngest bank-conflict release
    Cycle obsMemBusyUntil = 0;    ///< youngest uncore completion
    u64 obsConflictCycles = 0;    ///< cumulative (counter track)
    std::array<u32, 8> obsMid_{}; ///< registered metric ids

    // Window occupancy, maintained incrementally (no per-cycle walk).
    u64 liveInsts = 0;                ///< dispatched insts in queued frames
    u64 sumBlocksInFlight = 0;
    u64 sumInstsInFlight = 0;
};

} // namespace trips::uarch

#endif // TRIPSIM_UARCH_CYCLE_SIM_HH
