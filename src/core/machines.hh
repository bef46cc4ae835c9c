/**
 * @file
 * Top-level experiment facade: run a workload on any of the execution
 * models (WIR interpreter, TRIPS functional, TRIPS cycle-level, ideal
 * EDGE machine, RISC baseline, OoO reference platforms) and collect
 * the metrics the paper's tables and figures are built from.
 */

#ifndef TRIPSIM_CORE_MACHINES_HH
#define TRIPSIM_CORE_MACHINES_HH

#include "compiler/codegen.hh"
#include "ideal/ideal.hh"
#include "ooo/ooo.hh"
#include "risc/core.hh"
#include "risc/wirtorisc.hh"
#include "trips/func_sim.hh"
#include "uarch/cycle_sim.hh"
#include "workloads/workload.hh"

namespace trips::core {

/** Results of a TRIPS run (functional always; cycle-level optional). */
struct TripsRun
{
    i64 retVal = 0;
    sim::IsaStats isa;
    compiler::CompileStats compile;
    u64 codeBytes = 0;
    bool cycleLevel = false;
    bool funcFuelExhausted = false;
    uarch::UarchResult uarch;
};

struct RiscRun
{
    i64 retVal = 0;
    risc::RiscCounters counters;
    u64 codeBytes = 0;
    bool fuelExhausted = false;
};

/** Golden run record (WIR interpreter, the architectural oracle). */
struct GoldenRun
{
    i64 retVal = 0;
    u64 dynOps = 0;
    u64 loads = 0;
    u64 stores = 0;
    bool fuelExhausted = false;
};

// ---------------------------------------------------------------------
// Module-level entry points.
//
// Batch/fuzz friendly: the caller builds (or generates) one
// wir::Module and shares it read-only across every model, so a
// differential run compiles each backend from the identical source.
// Nothing here aborts on fuel exhaustion — the flags are reported and
// the caller decides — and every run's architectural memory image can
// be captured for byte-level cross-model comparison. All functions
// are safe to call concurrently from sweep workers: state lives in
// locals and in the caller-owned output structures.
// ---------------------------------------------------------------------

/** WIR interpreter. @param final_mem if non-null receives the image. */
GoldenRun runGolden(const wir::Module &mod, MemImage *final_mem = nullptr);

/**
 * Functional + optional cycle-level TRIPS execution.
 * @param func_mem / @param cycle_mem optionally receive the final
 * memory image of the functional / cycle-level run.
 */
TripsRun runTrips(const wir::Module &mod, const compiler::Options &opts,
                  bool cycle_level,
                  const uarch::UarchConfig &ucfg = uarch::UarchConfig{},
                  MemImage *func_mem = nullptr,
                  MemImage *cycle_mem = nullptr);

/** RISC (PowerPC-like) functional run. */
RiscRun runRisc(const wir::Module &mod,
                const risc::RiscOptions &opts = risc::RiscOptions::gcc(),
                MemImage *final_mem = nullptr);

// ---------------------------------------------------------------------
// Workload-level entry points (the figure/table drivers). These build
// the module, delegate to the module-level functions above, and treat
// fuel exhaustion as fatal: a registered benchmark that does not
// terminate is a repository bug.
// ---------------------------------------------------------------------

/** Functional + optional cycle-level TRIPS execution. */
TripsRun runTrips(const workloads::Workload &w,
                  const compiler::Options &opts, bool cycle_level,
                  const uarch::UarchConfig &ucfg = uarch::UarchConfig{});

/** Functional TRIPS run with extra observers attached (Fig. 7/10). */
TripsRun runTripsObserved(const workloads::Workload &w,
                          const compiler::Options &opts,
                          const std::vector<sim::BlockObserver *> &obs);

/** RISC (PowerPC-like) functional run. */
RiscRun runRisc(const workloads::Workload &w,
                const risc::RiscOptions &opts = risc::RiscOptions::gcc());

/** OoO reference platform run (Core 2 / P4 / P3 models). */
ooo::OooResult runPlatform(const workloads::Workload &w,
                           const ooo::OooConfig &platform,
                           const risc::RiscOptions &compiler_opts);

/** Golden result from the WIR interpreter. */
i64 runGolden(const workloads::Workload &w);

/** Ideal EDGE machine (Fig. 10). */
ideal::IdealResult runIdeal(const workloads::Workload &w,
                            const compiler::Options &opts,
                            const ideal::IdealConfig &icfg);

} // namespace trips::core

#endif // TRIPSIM_CORE_MACHINES_HH
