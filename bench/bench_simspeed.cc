/** google-benchmark microbenchmarks of the simulators themselves
 *  (built against the bundled minibench harness by default; see
 *  bench/minibench/benchmark/benchmark.h). */
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "compiler/codegen.hh"
#include "core/machines.hh"
#include "func_reference.hh"
#include "obs/obs.hh"
#include "uarch/chip_sim.hh"
#include "wir/interp.hh"
using namespace trips;

// BM_FuncSim is the historical name tracked in BENCH_simspeed.json
// baselines; it measures the functional engine (pre-decoded). The
// _legacy/_predecoded pair times the same compile + functional run on
// the legacy interpreter (the test oracle, tests/func_reference.hh)
// and on the engine, so the recorded JSON carries the speedup ratio on
// the same machine/run.
static void BM_FuncSim(benchmark::State &state) {
    const auto &w = workloads::find("autocor");
    for (auto _ : state) {
        auto r = core::runTrips(w, compiler::Options::compiled(), false);
        benchmark::DoNotOptimize(r.retVal);
    }
}
BENCHMARK(BM_FuncSim)->Unit(benchmark::kMillisecond);

static void BM_FuncSim_legacy(benchmark::State &state) {
    const auto &w = workloads::find("autocor");
    for (auto _ : state) {
        wir::Module mod;
        w.build(mod);
        auto prog =
            compiler::compileToTrips(mod, compiler::Options::compiled());
        MemImage mem;
        wir::Interp::loadGlobals(mod, mem);
        auto r = sim::ref::refRun(prog, mem);
        benchmark::DoNotOptimize(r.retVal);
    }
}
BENCHMARK(BM_FuncSim_legacy)->Unit(benchmark::kMillisecond);

static void BM_FuncSim_predecoded(benchmark::State &state) {
    const auto &w = workloads::find("autocor");
    for (auto _ : state) {
        auto r = core::runTrips(w, compiler::Options::compiled(), false);
        benchmark::DoNotOptimize(r.retVal);
    }
}
BENCHMARK(BM_FuncSim_predecoded)->Unit(benchmark::kMillisecond);

static void BM_CycleSim(benchmark::State &state) {
    const auto &w = workloads::find("a2time");
    for (auto _ : state) {
        auto r = core::runTrips(w, compiler::Options::compiled(), true);
        benchmark::DoNotOptimize(r.uarch.cycles);
    }
}
BENCHMARK(BM_CycleSim)->Unit(benchmark::kMillisecond);

// The observability pair: identical CycleSim-only bodies, one with
// the full observer set attached (trace + metrics + stalls), one
// detached. The detached run is the null-sink fast path — its cost
// relative to the pre-instrumentation BM_CycleSim is recorded (and
// gated < 2%) in the BENCH_simspeed.json baselines; the traced run
// shows what full tracing costs when you actually ask for it.
namespace {

struct ObsBenchFixture {
    wir::Module mod;
    isa::Program prog;

    ObsBenchFixture()
        : prog((workloads::find("a2time").build(mod),
                compiler::compileToTrips(mod,
                                         compiler::Options::compiled())))
    {}

    u64 run(bool observed) {
        obs::TraceSink sink;
        obs::MetricRegistry metrics;
        obs::StallCollector stalls;
        obs::CoreObs co;
        co.trace = &sink;
        co.metrics = &metrics;
        co.stalls = &stalls;
        co.samplePeriod = 4096;
        MemImage mem;
        wir::Interp::loadGlobals(mod, mem);
        uarch::CycleSim sim(prog, mem);
        if (observed)
            sim.attachObs(&co);
        auto r = sim.run();
        benchmark::DoNotOptimize(sink.events());
        return r.cycles;
    }
};

} // namespace

static void BM_CycleSim_untraced(benchmark::State &state) {
    ObsBenchFixture fx;
    for (auto _ : state)
        benchmark::DoNotOptimize(fx.run(false));
}
BENCHMARK(BM_CycleSim_untraced)->Unit(benchmark::kMillisecond);

static void BM_CycleSim_traced(benchmark::State &state) {
    ObsBenchFixture fx;
    for (auto _ : state)
        benchmark::DoNotOptimize(fx.run(true));
}
BENCHMARK(BM_CycleSim_traced)->Unit(benchmark::kMillisecond);

// The serial/parallel ChipSim pair drives the multicore CI perf gate:
// same 4-core mix, lockstep reference vs the relaxed-quantum engine.
// Programs are compiled once; each iteration gets fresh memory images
// and a fresh chip. On a 1-core host the parallel engine only pays
// its barrier overhead — the recorded speedup is meaningful on 8+
// hardware threads (where CI runs the >=1.5x gate).
namespace {

struct ChipMixFixture {
    std::vector<wir::Module> mods;
    std::vector<isa::Program> progs;

    ChipMixFixture() {
        const char *names[] = {"vadd", "ct", "autocor", "8b10b"};
        for (const char *n : names) {
            mods.emplace_back();
            workloads::find(n).build(mods.back());
            progs.push_back(compiler::compileToTrips(
                mods.back(), compiler::Options::compiled()));
        }
    }

    u64 run(uarch::ChipEngine engine) {
        uarch::ChipConfig ccfg;
        ccfg.numCores = static_cast<unsigned>(progs.size());
        ccfg.engine = engine;
        std::vector<MemImage> mems(progs.size());
        std::vector<uarch::ChipJob> jobs(progs.size());
        for (size_t i = 0; i < progs.size(); ++i) {
            wir::Interp::loadGlobals(mods[i], mems[i]);
            jobs[i] = {&progs[i], &mems[i]};
        }
        uarch::ChipSim chip(jobs, ccfg);
        return chip.run().cycles;
    }
};

ChipMixFixture &chipMix() {
    static ChipMixFixture f;
    return f;
}

} // namespace

static void BM_ChipSim_serial(benchmark::State &state) {
    auto &f = chipMix();
    for (auto _ : state)
        benchmark::DoNotOptimize(f.run(uarch::ChipEngine::Serial));
}
BENCHMARK(BM_ChipSim_serial)->Unit(benchmark::kMillisecond);

static void BM_ChipSim_parallel(benchmark::State &state) {
    auto &f = chipMix();
    for (auto _ : state)
        benchmark::DoNotOptimize(f.run(uarch::ChipEngine::Parallel));
}
BENCHMARK(BM_ChipSim_parallel)->Unit(benchmark::kMillisecond);

static void BM_OooModel(benchmark::State &state) {
    const auto &w = workloads::find("rspeed");
    for (auto _ : state) {
        auto r = core::runPlatform(w, ooo::OooConfig::core2(),
                                   risc::RiscOptions::gcc());
        benchmark::DoNotOptimize(r.cycles);
    }
}
BENCHMARK(BM_OooModel)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
