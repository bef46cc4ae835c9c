/**
 * @file
 * The benchmark's workloads and the instrumented flows they run.
 *
 * Every flow calls tripsim's public functions directly (the same calls
 * core::runTrips, Campaign::runTrips and harness::diffOne make), with a
 * span around each call. Untraced runs pass a null Lane and the
 * solo-CycleSim constructor; traced runs pass a Lane and a TimingPort.
 * Nothing else differs between the two.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/machines.hh"
#include "sim/serial.hh"
#include "spans.hh"

namespace perfbench {

using Metrics = std::map<std::string, double>;

// ---------------------------------------------------------------------
// Instrumented single-model flows.
// ---------------------------------------------------------------------

struct RiscOut
{
    trips::i64 retVal = 0;
    bool fuelExhausted = false;
    trips::risc::RiscCounters counters;
};

struct TripsOut
{
    trips::core::TripsRun run;
    u64 decodedFallbacks = 0;
    u64 memAccesses = 0;     ///< traced runs only (TimingPort)
    double ocnOccupancy = 0; ///< traced runs only
    trips::MemImage funcMem;
    trips::MemImage cycleMem;
};

trips::core::GoldenRun goldenFlow(const trips::wir::Module &mod,
                                  trips::MemImage &mem, Lane *l, u64 task);
RiscOut riscFlow(const trips::wir::Module &mod,
                 const trips::risc::RiscOptions &opts, trips::MemImage &mem,
                 Lane *l, u64 task);
trips::ooo::OooResult oooFlow(const trips::wir::Module &mod,
                              trips::MemImage &mem, Lane *l, u64 task);
/** compileToTrips -> FuncSim -> (CycleSim), like core::runTrips. */
TripsOut tripsFlow(const trips::wir::Module &mod,
                   const trips::compiler::Options &opts, bool cycle_level,
                   const trips::uarch::UarchConfig &ucfg, Lane *l, u64 task);

/** Every simulated statistic of a TRIPS run (compile, ISA, uarch). */
void putTripsRun(trips::sim::ByteWriter &w, const trips::core::TripsRun &r);

// ---------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------

struct RunConfig
{
    u64 seed = 1;
    unsigned workers = 1;      ///< sweep-pool threads (figures, fuzz)
    unsigned chipThreads = 1;  ///< parallel chip engine worker cap
    std::string outDir;        ///< cache dirs and trace files
};

/** Per-(workload, model) row of a traced run's ledger. */
struct LedgerRow
{
    std::string workload;
    std::string model;
    std::string suite;
    double taskMs = 0;
    double compileMs = 0;
    double funcMips = 0;
    double cycleMcps = 0;       ///< CycleSim Mcycles per host second
    double memNsPerAccess = 0;
    u64 cycles = 0;
};

/** One pass, checked and summarized outside the timed part. */
struct PassResult
{
    u64 attempted = 0;
    u64 failed = 0;
    std::vector<std::string> failures;  ///< first few, for stderr
    u64 simCycles = 0;    ///< every cycle-level run and chip core
    u64 simInsts = 0;     ///< instructions fired in committed blocks
    std::string digest;   ///< every simulated statistic
    Metrics layer;        ///< per-layer metrics (traced passes)
    std::vector<LedgerRow> ledger;  ///< traced passes
};

class BenchWorkload
{
  public:
    virtual ~BenchWorkload() = default;

    /** Everything before the timed part; called once. */
    virtual void setup() = 0;

    /** The timed part; @p rec is non-null in traced passes. */
    virtual void run(SpanRecorder *rec) = 0;

    /** Check the pass's outputs against the oracles, digest them and
     *  compute per-layer metrics from @p spans (traced passes; empty
     *  otherwise). Not timed. */
    virtual PassResult finish(const std::vector<Span> &spans,
                              double wall_s) = 0;

    /** Threads that record spans in run(). */
    virtual unsigned lanes() const = 0;

    /** Traced runs, once after the first traced pass: reference runs
     *  outside the timed part. Returns per-layer metrics and counts
     *  its checks into @p p. */
    virtual Metrics extras(SpanRecorder &, PassResult &) { return {}; }

    /** Traced runs: derive metrics that combine the reported pass and
     *  the extras (e.g. speedups). */
    virtual void finalize(Metrics &) {}
};

const std::vector<std::string> &workloadNames();

/** Span layers ("<layer>.<op>") that get a self time. */
const std::vector<std::string> &layerNames();

/** chip_mix's mixes, in run order. */
const std::vector<std::string> &mixNames();

/** Null if @p name is not a workload. */
std::unique_ptr<BenchWorkload> makeWorkload(const std::string &name,
                                            const RunConfig &cfg);

/** Shuffle of 0..n-1 derived only from @p seed (Fisher-Yates over
 *  splitmix64), identical across platforms and standard libraries. */
std::vector<u64> permutation(u64 n, u64 seed);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
