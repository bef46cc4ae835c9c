/**
 * @file
 * Parallel sweep driver.
 *
 * Three modes, all sharded across the work-stealing SweepPool:
 *
 *   --figures       run the full (workload x compiler preset x model)
 *                   simulation matrix the paper's figures are built
 *                   from, and report wall-clock + aggregate stats.
 *                   With --json, emit a machine-readable summary
 *                   (consumed by bench/run_sweep.sh to record the
 *                   serial-vs-parallel speedup in BENCH_simspeed.json).
 *   --fuzz N        differentially check N generated programs
 *                   (seeds taskSeed(--seed, i)) across every model;
 *                   exit 1 and print repro lines on divergence.
 *                   --out FILE additionally writes one repro seed per
 *                   line (CI uploads it as an artifact).
 *   --repro SEED    re-run one generated program verbosely
 *                   [--shrink K applies the minimizer's shape rung;
 *                   --dump-til streams the TIL after each backend
 *                   pass; --compile-stats prints the per-pass
 *                   CompileStats table].
 *
 * Chip mode (N-core ChipSim over the shared L2/OCN uncore; --cores N
 * selects the core count, default 2; --parallel switches from the
 * serial lockstep reference to the relaxed-quantum parallel engine,
 * with --quantum Q barrier cycles and --threads T worker cap):
 *
 *   --chip --fuzz N         N generated program *mixes* (--cores
 *                           programs each), every mix run solo and
 *                           side by side; chip cores must match their
 *                           solo runs architecturally. Under
 *                           --parallel each mix is also replayed and
 *                           must be byte-identical (determinism pin).
 *   --chip --repro A --seed2 B      one pair, verbosely.
 *   --chip --repro A --seeds A,B,C  one N-core mix, verbosely.
 *   --chip --mix A,B,C,...  run named workloads concurrently (up to
 *                           16; round-robin filled to --cores); prints
 *                           per-core slowdown, shared-L2 miss
 *                           inflation, bank conflicts, OCN occupancy.
 *   --chip --mix-suite      group the whole workload registry into
 *                           --cores-sized mixes (round-robin tail
 *                           fill) and verify every mix against the
 *                           solo runs (the CI chip stage). With
 *                           --json, emit a machine-readable summary
 *                           carrying cores/engine/quantum/threads.
 *
 * Fast-simulation modes (src/sim/):
 *
 *   --cache DIR       route the --figures matrix through the campaign
 *                     cache: a warm re-run performs zero TRIPS
 *                     simulation (hits/misses land in the report and
 *                     the --json summary).
 *   --ckpt-every N    with --repro: run the checkpoint-restore
 *                     differential oracle on the generated program
 *                     (snapshot every N blocks; restored functional
 *                     and warm-started cycle runs must equal the
 *                     straight runs).
 *   --sampled LIST    sampled-vs-full accuracy gate on the named
 *                     workloads (comma list); exits 1 if any estimate
 *                     misses full-detail cycles by more than
 *                     --sample-tol percent (default 5).
 *   --sample F:W:M:P  sampling schedule for --sampled (ffwd, warmup,
 *                     measure, period blocks).
 *
 * Robustness modes (src/harness/guard.hh, src/sim/faultio.hh):
 *
 *   --timeout-ms N    per-task watchdog deadline on a --fuzz sweep
 *   --retries N       retry transient I/O failures with backoff
 *   --quarantine F    append failing (seed, shape, code, repro) JSONL
 *                     records to F; quarantined seeds don't fail the
 *                     sweep (only real divergences set exit 1)
 *   --fault-seed S    install the deterministic fault-injection plan
 *                     over checkpoint/cache file I/O
 *   --fault-period N  inject on ~1/N of I/O operations (default 4)
 *   --cache-fsck      with --cache DIR: delete CRC-broken entries and
 *                     orphaned temp files, then exit
 *
 * Common flags: --jobs N (0 = all cores), --seed BASE, --no-cycle,
 * --verify-til (TIL structural verification between backend passes),
 * --grow K (the block-splitting stress ladder, see ShapeConfig).
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/machines.hh"
#include "harness/diff.hh"
#include "harness/guard.hh"
#include "obs/obs.hh"
#include "obs/progress.hh"
#include "sim/campaign.hh"
#include "sim/faultio.hh"
#include "sim/sampling.hh"
#include "harness/fuzzgen.hh"
#include "harness/sweep.hh"
#include "net/ocn.hh"
#include "uarch/chip_sim.hh"
#include "wir/interp.hh"

using namespace trips;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

namespace {

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

struct Args
{
    unsigned jobs = 0;
    u64 seed = 1;
    u64 fuzzCount = 0;
    u64 reproSeed = 0;
    u64 seed2 = 0;
    unsigned shrink = 0;
    unsigned grow = 0;
    bool figures = false;
    bool json = false;
    bool cycleLevel = true;
    bool repro = false;
    bool verifyTil = false;
    bool dumpTil = false;
    bool compileStats = false;
    bool chip = false;
    bool mixSuite = false;
    std::string mix;
    /** Chip-mode core count (0 = infer: mix size, or 2). */
    unsigned cores = 0;
    bool parallel = false;    ///< relaxed-quantum engine, not lockstep
    unsigned quantum = 1024;  ///< parallel-engine barrier period
    unsigned threads = 0;     ///< parallel-engine worker cap (0 = N)
    std::vector<u64> seeds;   ///< --seeds: one per chip core
    std::string outFile;
    std::string cacheDir;
    u64 ckptEvery = 0;
    std::string sampledList;
    std::string sampleSpec;
    double sampleTol = 5.0;
    double sampleSpread = 0.0;
    // Robustness knobs (harness/guard.hh, sim/faultio.hh).
    u64 timeoutMs = 0;
    unsigned retries = 0;
    std::string quarantineFile;
    // Observability (obs/): per-mix chip traces + sweep heartbeat.
    std::string traceDir;
    bool progress = false;
    bool faultInject = false;
    u64 faultSeed = 1;
    unsigned faultPeriod = 4;
    bool cacheFsck = false;
    /** Shape-field edits, applied on top of the grow/shrink rungs in
     *  shape() — so ladder and shape flags compose in any order. */
    std::vector<std::function<void(harness::ShapeConfig &)>> shapeEdits;

    harness::ShapeConfig
    shape() const
    {
        auto s = harness::ShapeConfig{}.grown(grow).shrunk(shrink);
        for (const auto &edit : shapeEdits)
            edit(s);
        return s;
    }
};

[[noreturn]] void
usage()
{
    std::cerr
        << "usage: sweep_main [--jobs N] [--seed BASE] [--no-cycle]\n"
        << "                  [--verify-til]\n"
        << "                  [--cache DIR] [--cache-fsck]\n"
        << "                  [--timeout-ms N] [--retries N]\n"
        << "                  [--quarantine FILE]\n"
        << "                  [--trace-dir DIR] [--progress]\n"
        << "                  [--fault-seed S] [--fault-period N]\n"
        << "                  (--figures [--json] | --fuzz N [--out F]\n"
        << "                   | --repro SEED [--shrink K]\n"
        << "                     [--ckpt-every N]\n"
        << "                   | --sampled W1,W2,... [--sample F:W:M:P]\n"
        << "                     [--sample-tol PCT]\n"
        << "                     [--sample-spread S]\n"
        << "                     [--dump-til] [--compile-stats]\n"
        << "                   | --chip [--cores N] [--parallel]\n"
        << "                     [--quantum Q] [--threads T]\n"
        << "                     (--fuzz N [--out F]\n"
        << "                      | --repro A (--seed2 B | --seeds A,B,...)\n"
        << "                      | --mix A,B,... | --mix-suite))\n"
        << "shape flags (fuzz/repro): --grow K --funcs N --top N\n"
        << "  --body N --depth N --trip N --slots N --live N\n"
        << "  --no-float --no-call --no-mem --no-subword\n"
        << "--verify-til runs the TIL structural verifier between\n"
        << "backend passes of every TRIPS compile (fatal on violation);\n"
        << "--grow walks the block-splitting stress ladder.\n"
        << "--chip runs N-core mixes on the shared L2/OCN uncore\n"
        << "(--cores N, 1..16, default 2); each core must match its\n"
        << "solo run architecturally. --parallel selects the\n"
        << "relaxed-quantum engine (--quantum Q barrier cycles,\n"
        << "--threads T worker cap); a given (mix, config, Q) is\n"
        << "exactly replayable regardless of T.\n"
        << "robustness: --timeout-ms/--retries/--quarantine harden a\n"
        << "--fuzz sweep (watchdog, transient-I/O backoff, JSONL\n"
        << "ledger of quarantined seeds); --fault-seed S installs the\n"
        << "deterministic I/O fault plan (--fault-period N: ~1/N ops\n"
        << "faulted) under checkpoint/cache file I/O; --cache-fsck\n"
        << "repairs a --cache DIR left by a mid-sweep kill.\n"
        << "observability: --trace-dir DIR writes one Perfetto-loadable\n"
        << "Chrome trace-event JSON per chip mix (--mix/--mix-suite;\n"
        << "block spans, memory instants, quantum barriers — see README\n"
        << "\"Observability\"); --progress prints a rate-limited stderr\n"
        << "heartbeat (done/total, elapsed, ETA, quarantine count) for\n"
        << "long --fuzz / --mix-suite sweeps.\n";
    std::exit(2);
}

Args
parse(int argc, char **argv)
{
    Args a;
    auto val = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            usage();
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--jobs")) {
            a.jobs = static_cast<unsigned>(std::stoul(val(i)));
        } else if (!std::strcmp(argv[i], "--seed")) {
            a.seed = std::stoull(val(i));
        } else if (!std::strcmp(argv[i], "--fuzz")) {
            a.fuzzCount = std::stoull(val(i));
        } else if (!std::strcmp(argv[i], "--repro")) {
            a.repro = true;
            a.reproSeed = std::stoull(val(i));
        } else if (!std::strcmp(argv[i], "--shrink")) {
            a.shrink = static_cast<unsigned>(std::stoul(val(i)));
        } else if (!std::strcmp(argv[i], "--grow")) {
            a.grow = static_cast<unsigned>(std::stoul(val(i)));
        } else if (!std::strcmp(argv[i], "--seed2")) {
            a.seed2 = std::stoull(val(i));
        } else if (!std::strcmp(argv[i], "--seeds")) {
            a.chip = true;
            std::string list = val(i), cur;
            for (char ch : list + ",") {
                if (ch == ',') {
                    if (!cur.empty())
                        a.seeds.push_back(std::stoull(cur));
                    cur.clear();
                } else {
                    cur += ch;
                }
            }
        } else if (!std::strcmp(argv[i], "--chip")) {
            a.chip = true;
        } else if (!std::strcmp(argv[i], "--cores")) {
            a.chip = true;
            a.cores = static_cast<unsigned>(std::stoul(val(i)));
        } else if (!std::strcmp(argv[i], "--parallel")) {
            a.parallel = true;
        } else if (!std::strcmp(argv[i], "--quantum")) {
            a.quantum = static_cast<unsigned>(std::stoul(val(i)));
        } else if (!std::strcmp(argv[i], "--threads")) {
            a.threads = static_cast<unsigned>(std::stoul(val(i)));
        } else if (!std::strcmp(argv[i], "--mix")) {
            a.chip = true;
            a.mix = val(i);
        } else if (!std::strcmp(argv[i], "--mix-suite")) {
            a.chip = true;
            a.mixSuite = true;
        } else if (!std::strcmp(argv[i], "--verify-til")) {
            a.verifyTil = true;
        } else if (!std::strcmp(argv[i], "--dump-til")) {
            a.dumpTil = true;
        } else if (!std::strcmp(argv[i], "--compile-stats")) {
            a.compileStats = true;
        } else if (!std::strcmp(argv[i], "--figures")) {
            a.figures = true;
        } else if (!std::strcmp(argv[i], "--json")) {
            a.json = true;
        } else if (!std::strcmp(argv[i], "--no-cycle")) {
            a.cycleLevel = false;
        } else if (!std::strcmp(argv[i], "--out")) {
            a.outFile = val(i);
        } else if (!std::strcmp(argv[i], "--cache")) {
            a.cacheDir = val(i);
        } else if (!std::strcmp(argv[i], "--ckpt-every")) {
            a.ckptEvery = std::stoull(val(i));
        } else if (!std::strcmp(argv[i], "--sampled")) {
            a.sampledList = val(i);
        } else if (!std::strcmp(argv[i], "--sample")) {
            a.sampleSpec = val(i);
        } else if (!std::strcmp(argv[i], "--sample-tol")) {
            a.sampleTol = std::stod(val(i));
        } else if (!std::strcmp(argv[i], "--sample-spread")) {
            a.sampleSpread = std::stod(val(i));
        } else if (!std::strcmp(argv[i], "--timeout-ms")) {
            a.timeoutMs = std::stoull(val(i));
        } else if (!std::strcmp(argv[i], "--retries")) {
            a.retries = static_cast<unsigned>(std::stoul(val(i)));
        } else if (!std::strcmp(argv[i], "--quarantine")) {
            a.quarantineFile = val(i);
        } else if (!std::strcmp(argv[i], "--trace-dir")) {
            a.traceDir = val(i);
        } else if (!std::strcmp(argv[i], "--progress")) {
            a.progress = true;
        } else if (!std::strcmp(argv[i], "--fault-seed")) {
            a.faultInject = true;
            a.faultSeed = std::stoull(val(i));
        } else if (!std::strcmp(argv[i], "--fault-period")) {
            a.faultInject = true;
            a.faultPeriod = static_cast<unsigned>(std::stoul(val(i)));
        } else if (!std::strcmp(argv[i], "--cache-fsck")) {
            a.cacheFsck = true;
        } else if (!std::strcmp(argv[i], "--funcs")) {
            unsigned v = static_cast<unsigned>(std::stoul(val(i)));
            a.shapeEdits.push_back(
                [v](auto &s) { s.helperFuncs = v; });
        } else if (!std::strcmp(argv[i], "--top")) {
            unsigned v = static_cast<unsigned>(std::stoul(val(i)));
            a.shapeEdits.push_back([v](auto &s) { s.topStmts = v; });
        } else if (!std::strcmp(argv[i], "--body")) {
            unsigned v = static_cast<unsigned>(std::stoul(val(i)));
            a.shapeEdits.push_back([v](auto &s) { s.bodyStmts = v; });
        } else if (!std::strcmp(argv[i], "--depth")) {
            unsigned v = static_cast<unsigned>(std::stoul(val(i)));
            a.shapeEdits.push_back([v](auto &s) { s.maxDepth = v; });
        } else if (!std::strcmp(argv[i], "--trip")) {
            unsigned v = static_cast<unsigned>(std::stoul(val(i)));
            a.shapeEdits.push_back([v](auto &s) { s.maxLoopTrip = v; });
        } else if (!std::strcmp(argv[i], "--slots")) {
            unsigned v = static_cast<unsigned>(std::stoul(val(i)));
            a.shapeEdits.push_back([v](auto &s) { s.memSlots = v; });
        } else if (!std::strcmp(argv[i], "--live")) {
            unsigned v = static_cast<unsigned>(std::stoul(val(i)));
            a.shapeEdits.push_back([v](auto &s) { s.liveValues = v; });
        } else if (!std::strcmp(argv[i], "--no-float")) {
            a.shapeEdits.push_back([](auto &s) { s.floats = false; });
        } else if (!std::strcmp(argv[i], "--no-call")) {
            a.shapeEdits.push_back([](auto &s) { s.calls = false; });
        } else if (!std::strcmp(argv[i], "--no-mem")) {
            a.shapeEdits.push_back([](auto &s) { s.memory = false; });
        } else if (!std::strcmp(argv[i], "--no-subword")) {
            a.shapeEdits.push_back([](auto &s) { s.subWord = false; });
        } else {
            usage();
        }
    }
    if (!a.figures && a.fuzzCount == 0 && !a.repro && a.mix.empty() &&
        !a.mixSuite && a.sampledList.empty() && !a.cacheFsck)
        usage();
    if (a.chip && a.repro && a.seed2 == 0 && a.seeds.empty())
        usage();
    if (a.cacheFsck && a.cacheDir.empty())
        usage();
    return a;
}

// ---------------------------------------------------------------------
// --figures: the simulation matrix behind the paper's figure set.
// ---------------------------------------------------------------------

struct MatrixTask
{
    const workloads::Workload *w;
    enum class Kind : u8 { Golden, RiscGcc, RiscIcc, Compiled, Hand } kind;
    bool cycle = false;
};

int
runFigures(const Args &a)
{
    std::vector<MatrixTask> tasks;
    for (const auto &w : workloads::all()) {
        tasks.push_back({&w, MatrixTask::Kind::Golden, false});
        tasks.push_back({&w, MatrixTask::Kind::RiscGcc, false});
        tasks.push_back({&w, MatrixTask::Kind::RiscIcc, false});
        tasks.push_back({&w, MatrixTask::Kind::Compiled, a.cycleLevel});
        if (w.isSimple)
            tasks.push_back({&w, MatrixTask::Kind::Hand, a.cycleLevel});
    }

    struct Cell
    {
        double ms = 0;
        u64 cycles = 0;
        double ipc = 0;
        u64 cacheHits = 0;
        u64 cacheMisses = 0;
        u64 cacheCorrupt = 0;
        u64 cacheStale = 0;
        u64 cacheDegradedWrites = 0;
    };
    std::vector<Cell> cells(tasks.size());

    harness::SweepPool pool(a.jobs);
    auto t0 = Clock::now();
    pool.parallelFor(tasks.size(), [&](u64 i) {
        const MatrixTask &t = tasks[i];
        auto c0 = Clock::now();
        switch (t.kind) {
          case MatrixTask::Kind::Golden:
            core::runGolden(*t.w);
            break;
          case MatrixTask::Kind::RiscGcc:
            core::runRisc(*t.w, risc::RiscOptions::gcc());
            break;
          case MatrixTask::Kind::RiscIcc:
            core::runRisc(*t.w, risc::RiscOptions::icc());
            break;
          case MatrixTask::Kind::Compiled:
          case MatrixTask::Kind::Hand: {
            auto opts = t.kind == MatrixTask::Kind::Compiled
                            ? compiler::Options::compiled()
                            : compiler::Options::hand();
            // One Campaign per task: the runner is not thread-safe,
            // but per-worker instances over one directory compose
            // (atomic stores, CRC-validated loads).
            sim::Campaign camp(a.cacheDir);
            auto r = camp.runTrips(*t.w, opts, t.cycle);
            cells[i].cacheHits = camp.cache().hits();
            cells[i].cacheMisses = camp.cache().misses();
            cells[i].cacheCorrupt = camp.cache().corrupt();
            cells[i].cacheStale = camp.cache().stale();
            cells[i].cacheDegradedWrites = camp.cache().degradedWrites();
            if (t.cycle) {
                cells[i].cycles = r.uarch.cycles;
                cells[i].ipc = r.uarch.ipc();
            }
            break;
          }
        }
        cells[i].ms = msSince(c0);
    });
    double wallMs = msSince(t0);

    double serialMs = 0;
    u64 totalCycles = 0;
    u64 cacheHits = 0, cacheMisses = 0;
    u64 cacheCorrupt = 0, cacheStale = 0, cacheDegraded = 0;
    for (const auto &c : cells) {
        serialMs += c.ms;
        totalCycles += c.cycles;
        cacheHits += c.cacheHits;
        cacheMisses += c.cacheMisses;
        cacheCorrupt += c.cacheCorrupt;
        cacheStale += c.cacheStale;
        cacheDegraded += c.cacheDegradedWrites;
    }

    if (a.json) {
        std::cout << "{\"tasks\": " << tasks.size()
                  << ", \"jobs\": " << pool.jobs()
                  << ", \"wall_ms\": " << wallMs
                  << ", \"task_ms_sum\": " << serialMs
                  << ", \"simulated_cycles\": " << totalCycles
                  << ", \"cache_hits\": " << cacheHits
                  << ", \"cache_misses\": " << cacheMisses
                  << ", \"cache_corrupt\": " << cacheCorrupt
                  << ", \"cache_stale\": " << cacheStale
                  << ", \"cache_degraded_writes\": " << cacheDegraded
                  << "}\n";
    } else {
        if (!a.cacheDir.empty())
            std::cout << "campaign-cache: dir=" << a.cacheDir
                      << " hits=" << cacheHits
                      << " misses=" << cacheMisses
                      << " corrupt=" << cacheCorrupt
                      << " stale=" << cacheStale
                      << " degraded-writes=" << cacheDegraded << "\n";
        std::cout << "figure matrix: " << tasks.size() << " tasks over "
                  << workloads::all().size() << " workloads on "
                  << pool.jobs() << " worker(s)\n"
                  << "wall " << wallMs << " ms (sum of task times "
                  << serialMs << " ms, pool efficiency "
                  << serialMs / (wallMs * pool.jobs()) << ")\n"
                  << "simulated " << totalCycles
                  << " cycle-level cycles\n";
    }
    return 0;
}

// ---------------------------------------------------------------------
// --fuzz: the differential sweep.
// ---------------------------------------------------------------------

int
runFuzz(const Args &a)
{
    harness::ShapeConfig shape = a.shape();
    harness::DiffOptions opts;
    opts.cycleLevel = a.cycleLevel;
    opts.verifyTil = a.verifyTil;
    harness::SweepPool pool(a.jobs);

    // Any robustness knob switches to the guarded sweep: structured
    // failures (CompileError on a grown shape, corrupt files, invalid
    // derived configs) and watchdog timeouts are quarantined with a
    // repro line and the sweep finishes. A quarantined seed is not a
    // divergence: the exit code stays 0 unless models disagree.
    bool guarded = a.timeoutMs || a.retries || !a.quarantineFile.empty();
    harness::GuardConfig gcfg;
    gcfg.timeoutMs = a.timeoutMs;
    gcfg.retries = a.retries;
    harness::QuarantineLedger ledger(a.quarantineFile);

    auto t0 = Clock::now();
    obs::ProgressMeter prog(a.fuzzCount, a.progress);
    std::vector<harness::DiffResult> bad;
    harness::GuardedSweepResult g;
    if (guarded) {
        g = harness::sweepDiffGuarded(pool, a.seed, a.fuzzCount, shape,
                                      opts, gcfg, ledger, &prog);
        bad = std::move(g.divergences);
    } else {
        bad = harness::sweepDiff(pool, a.seed, a.fuzzCount, shape, opts,
                                 &prog);
    }
    prog.finish(ledger.entries());
    double wallMs = msSince(t0);

    // With --json the summary goes to stdout as one machine-readable
    // object (consumed by bench/run_sweep.sh) and the human lines move
    // to stderr; without it everything is human-readable on stdout.
    std::ostream &human = a.json ? std::cerr : std::cout;
    human << "fuzzed " << a.fuzzCount << " programs ["
          << shape.describe() << "] on " << pool.jobs()
          << " worker(s) in " << wallMs << " ms ("
          << a.fuzzCount / (wallMs / 1000.0) << " programs/s)\n";
    if (guarded) {
        human << "guarded: quarantined=" << g.quarantined
              << " timeouts=" << g.timeouts;
        if (ledger.enabled())
            human << " ledger=" << ledger.path();
        human << "\n";
    }
    for (const auto &r : bad) {
        human << "DIVERGENCE seed=" << r.seed << " ["
              << r.shape.describe() << "]\n  " << r.divergence
              << "\n  repro: " << r.reproCmd() << "\n";
    }
    if (!a.outFile.empty() && !bad.empty()) {
        std::ofstream out(a.outFile);
        for (const auto &r : bad)
            out << r.reproCmd() << "  # " << r.divergence << "\n";
    }
    human << (bad.empty() ? "all models agree\n" : "DIVERGENCES FOUND\n");
    if (a.json) {
        std::cout << "{\"programs\": " << a.fuzzCount
                  << ", \"jobs\": " << pool.jobs()
                  << ", \"wall_ms\": " << wallMs
                  << ", \"programs_per_second\": "
                  << a.fuzzCount / (wallMs / 1000.0)
                  << ", \"divergences\": " << bad.size()
                  << ", \"quarantined\": " << g.quarantined
                  << ", \"timeouts\": " << g.timeouts << "}\n";
    }
    return bad.empty() ? 0 : 1;
}

// ---------------------------------------------------------------------
// --chip: N-core mixes over the shared uncore.
// ---------------------------------------------------------------------

double
l2MissPct(const uarch::UarchResult &r)
{
    u64 total = r.l2Hits + r.l2Misses;
    return total ? 100.0 * static_cast<double>(r.l2Misses) / total : 0.0;
}

/** ChipConfig for an n-core mix under the flags' stepping engine. */
uarch::ChipConfig
chipConfig(const Args &a, unsigned n)
{
    uarch::ChipConfig ccfg;
    ccfg.numCores = n;
    ccfg.engine = a.parallel ? uarch::ChipEngine::Parallel
                             : uarch::ChipEngine::Serial;
    ccfg.quantum = a.quantum;
    ccfg.threads = a.threads;
    return ccfg;
}

struct MixReport
{
    bool ok = true;
    std::string detail;       ///< first architectural mismatch
    u64 chipCycles = 0;
    u64 bankConflicts = 0;
    double maxSlowdown = 1.0;
    double maxMissInflation = 0;   ///< percentage points
};

/** Run the named workloads solo and as one chip mix; verify each chip
 *  core reproduces its solo run architecturally (retVal + data
 *  segment). */
MixReport
runOneMix(const std::vector<const workloads::Workload *> &ws,
          const Args &a, bool print)
{
    MixReport rep;
    const size_t n = ws.size();
    uarch::ChipConfig ccfg = chipConfig(a, static_cast<unsigned>(n));

    std::vector<wir::Module> mods(n);
    std::vector<isa::Program> progs;
    progs.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        ws[i]->build(mods[i]);
        progs.push_back(compiler::compileToTrips(
            mods[i], compiler::Options::compiled()));
    }

    std::vector<MemImage> soloMem(n);
    std::vector<uarch::UarchResult> solo(n);
    for (size_t i = 0; i < n; ++i) {
        wir::Interp::loadGlobals(mods[i], soloMem[i]);
        uarch::CycleSim sim(progs[i], soloMem[i], ccfg.core);
        solo[i] = sim.run();
    }

    std::vector<MemImage> chipMem(n);
    std::vector<uarch::ChipJob> jobs(n);
    for (size_t i = 0; i < n; ++i) {
        wir::Interp::loadGlobals(mods[i], chipMem[i]);
        jobs[i] = {&progs[i], &chipMem[i]};
    }
    uarch::ChipSim chip(jobs, ccfg);

    // --trace-dir: record the chip run (per-core block spans + memory
    // instants, quantum barriers under --parallel) into one Chrome
    // trace-event JSON named after the mix. Attaching never changes
    // results, so the mix-vs-solo oracle below still holds.
    obs::TraceSink sink;
    std::string mixName = ws[0]->name;
    for (size_t i = 1; i < n; ++i)
        mixName += "+" + ws[i]->name;
    std::unique_ptr<obs::ChipObs> obsb;
    if (!a.traceDir.empty()) {
        obsb = std::make_unique<obs::ChipObs>(
            static_cast<unsigned>(n), &sink, /*metrics=*/false,
            /*sample_period=*/0, /*stalls=*/false);
        for (size_t i = 0; i < n; ++i)
            sink.setProcessName(static_cast<u32>(i),
                                "core " + std::to_string(i) + " " +
                                    ws[i]->name);
        chip.attachObs(*obsb);
    }

    auto cr = chip.run();

    if (!a.traceDir.empty()) {
        std::error_code ec;
        fs::create_directories(a.traceDir, ec);
        std::string path = a.traceDir + "/" + mixName + ".json";
        if (!sink.writeFile(path))
            std::fprintf(stderr, "cannot write trace %s\n", path.c_str());
    }

    rep.chipCycles = cr.cycles;
    rep.bankConflicts = cr.uncore.bankConflicts;
    if (print) {
        std::printf("%-10s %12s %12s %9s %10s %10s\n", "core",
                    "solo cyc", "mix cyc", "slowdown", "soloL2mr%",
                    "mixL2mr%");
    }
    for (size_t i = 0; i < n; ++i) {
        const auto &u = cr.cores[i];
        if (u.fuelExhausted || u.retVal != solo[i].retVal) {
            rep.ok = false;
            if (rep.detail.empty())
                rep.detail = ws[i]->name + ": chip retVal diverges";
        }
        std::string memdiff = harness::compareDataSegments(
            mods[i], soloMem[i], chipMem[i], ws[i]->name.c_str());
        if (!memdiff.empty()) {
            rep.ok = false;
            if (rep.detail.empty())
                rep.detail = memdiff;
        }
        double slow = static_cast<double>(u.cycles) / solo[i].cycles;
        double infl = l2MissPct(u) - l2MissPct(solo[i]);
        rep.maxSlowdown = std::max(rep.maxSlowdown, slow);
        rep.maxMissInflation = std::max(rep.maxMissInflation, infl);
        if (print) {
            std::printf("%-10s %12llu %12llu %8.3fx %9.2f%% %9.2f%%\n",
                        ws[i]->name.c_str(),
                        (unsigned long long)solo[i].cycles,
                        (unsigned long long)u.cycles, slow,
                        l2MissPct(solo[i]), l2MissPct(u));
        }
    }
    if (print) {
        std::printf("bank conflicts %llu (%llu stall cycles), "
                    "OCN occupancy %.4f, %llu dirty L2 lines drained\n",
                    (unsigned long long)cr.uncore.bankConflicts,
                    (unsigned long long)cr.uncore.bankConflictCycles,
                    cr.ocnOccupancy,
                    (unsigned long long)cr.l2DirtyDrained);
    }
    return rep;
}

/** One machine-readable summary line for --json chip runs, carrying
 *  the full stepping configuration so sweep records are replayable. */
void
printChipJson(const Args &a, unsigned cores, size_t mixes, bool ok,
              u64 cycles, u64 conflicts, double wallMs)
{
    std::cout << "{\"mixes\": " << mixes << ", \"cores\": " << cores
              << ", \"engine\": \""
              << uarch::chipEngineName(chipConfig(a, cores).engine)
              << "\", \"quantum\": " << a.quantum
              << ", \"threads\": " << a.threads
              << ", \"chip_cycles\": " << cycles
              << ", \"bank_conflicts\": " << conflicts
              << ", \"wall_ms\": " << wallMs
              << ", \"ok\": " << (ok ? "true" : "false") << "}\n";
}

int
runMix(const Args &a)
{
    std::vector<const workloads::Workload *> ws;
    std::string cur;
    for (char ch : a.mix + ",") {
        if (ch == ',') {
            if (!cur.empty())
                ws.push_back(&workloads::find(cur));
            cur.clear();
        } else {
            cur += ch;
        }
    }
    if (ws.empty() || ws.size() > net::OcnModel::MAX_CORES) {
        std::cerr << "--mix needs 1..16 workload names\n";
        return 2;
    }
    if (a.cores > net::OcnModel::MAX_CORES) {
        std::cerr << "--cores is capped at 16 (the OCN attach table)\n";
        return 2;
    }
    // Fewer names than --cores: fill the remaining cores round-robin
    // from the start of the list (so `--cores 4 --mix a,b` runs
    // a,b,a,b).
    if (a.cores > ws.size()) {
        size_t given = ws.size();
        while (ws.size() < a.cores)
            ws.push_back(ws[ws.size() % given]);
    }
    if (ws.size() < 2) {
        std::cerr << "--mix needs at least 2 cores (names or --cores)\n";
        return 2;
    }
    auto t0 = Clock::now();
    MixReport rep = runOneMix(ws, a, /*print=*/!a.json);
    double wallMs = msSince(t0);
    std::ostream &human = a.json ? std::cerr : std::cout;
    if (!rep.ok)
        human << "ARCHITECTURAL DIVERGENCE: " << rep.detail << "\n";
    else
        human << "chip cores match their solo runs\n";
    if (a.json)
        printChipJson(a, static_cast<unsigned>(ws.size()), 1, rep.ok,
                      rep.chipCycles, rep.bankConflicts, wallMs);
    return rep.ok ? 0 : 1;
}

int
runMixSuite(const Args &a)
{
    // Group the registry in order into --cores-sized mixes: (0..n-1),
    // (n..2n-1), ...; a short tail is filled round-robin from the
    // start of the registry (generalizing the historical odd-tail
    // pairing with the first workload).
    const unsigned n = a.cores ? a.cores : 2;
    if (n < 2 || n > net::OcnModel::MAX_CORES) {
        std::cerr << "--mix-suite needs --cores 2..16\n";
        return 2;
    }
    const auto &all = workloads::all();
    std::vector<std::vector<const workloads::Workload *>> mixes;
    for (size_t i = 0; i < all.size(); i += n) {
        std::vector<const workloads::Workload *> mix;
        for (size_t k = 0; k < n; ++k)
            mix.push_back(&all[(i + k) % all.size()]);
        mixes.push_back(std::move(mix));
    }

    std::vector<MixReport> reps(mixes.size());
    harness::SweepPool pool(a.jobs);
    auto t0 = Clock::now();
    obs::ProgressMeter prog(mixes.size(), a.progress);
    pool.parallelFor(mixes.size(), [&](u64 i) {
        reps[i] = runOneMix(mixes[i], a, /*print=*/false);
        prog.tick();
    });
    prog.finish();
    double wallMs = msSince(t0);

    std::ostream &human = a.json ? std::cerr : std::cout;
    bool ok = true;
    unsigned contended = 0;
    u64 cycles = 0, conflicts = 0;
    for (size_t i = 0; i < mixes.size(); ++i) {
        const auto &rep = reps[i];
        ok &= rep.ok;
        cycles += rep.chipCycles;
        conflicts += rep.bankConflicts;
        if (rep.bankConflicts > 0 || rep.maxMissInflation > 0)
            ++contended;
        std::string names = mixes[i][0]->name;
        for (size_t k = 1; k < mixes[i].size(); ++k)
            names += "+" + mixes[i][k]->name;
        char line[256];
        std::snprintf(line, sizeof line,
                      "%-44s %10llu cyc  slowdown %6.3fx  "
                      "conflicts %6llu  missInfl %+6.2fpp%s",
                      names.c_str(),
                      (unsigned long long)rep.chipCycles, rep.maxSlowdown,
                      (unsigned long long)rep.bankConflicts,
                      rep.maxMissInflation,
                      rep.ok ? "" : "  <-- DIVERGES");
        human << line << "\n";
        if (!rep.ok)
            human << "    " << rep.detail << "\n";
    }
    char tail[256];
    std::snprintf(tail, sizeof tail,
                  "%zu %u-core [%s] mixes over %zu workloads in %.0f ms; "
                  "%u mixes show shared-L2/OCN contention",
                  mixes.size(), n,
                  uarch::chipEngineName(chipConfig(a, n).engine),
                  all.size(), wallMs, contended);
    human << tail << "\n"
          << (ok ? "all chip cores match their solo runs"
                 : "ARCHITECTURAL DIVERGENCES FOUND")
          << "\n";
    if (a.json)
        printChipJson(a, n, mixes.size(), ok, cycles, conflicts, wallMs);
    return ok ? 0 : 1;
}

int
runChipFuzz(const Args &a)
{
    harness::ShapeConfig shape = a.shape();
    harness::DiffOptions opts;
    opts.verifyTil = a.verifyTil;
    opts.chipCores = a.cores ? a.cores : 2;
    opts.chipEngine = chipConfig(a, opts.chipCores).engine;
    opts.chipQuantum = a.quantum;
    opts.chipThreads = a.threads;
    harness::SweepPool pool(a.jobs);

    auto t0 = Clock::now();
    obs::ProgressMeter prog(a.fuzzCount, a.progress);
    auto bad = harness::sweepChipDiff(pool, a.seed, a.fuzzCount, shape,
                                      opts, &prog);
    prog.finish();
    double wallMs = msSince(t0);

    std::cout << "chip-fuzzed " << a.fuzzCount << " mixes of "
              << opts.chipCores << " programs ["
              << uarch::chipEngineName(opts.chipEngine) << ", "
              << shape.describe() << "] on " << pool.jobs()
              << " worker(s) in " << wallMs << " ms\n";
    for (const auto &r : bad) {
        std::cout << "DIVERGENCE seeds=(";
        if (r.chipSeeds.empty()) {
            std::cout << r.seed << "," << r.seedB;
        } else {
            for (size_t i = 0; i < r.chipSeeds.size(); ++i)
                std::cout << (i ? "," : "") << r.chipSeeds[i];
        }
        std::cout << ") [" << r.shape.describe() << "]\n  "
                  << r.divergence << "\n  repro: " << r.reproCmd()
                  << "\n";
    }
    if (!a.outFile.empty() && !bad.empty()) {
        std::ofstream out(a.outFile);
        for (const auto &r : bad)
            out << r.reproCmd() << "  # " << r.divergence << "\n";
    }
    std::cout << (bad.empty() ? "all chip cores match their solo runs\n"
                              : "DIVERGENCES FOUND\n");
    return bad.empty() ? 0 : 1;
}

int
runChipRepro(const Args &a)
{
    harness::ShapeConfig shape = a.shape();
    std::vector<u64> seeds =
        a.seeds.empty() ? std::vector<u64>{a.reproSeed, a.seed2}
                        : a.seeds;
    harness::DiffOptions opts;
    opts.verifyTil = a.verifyTil;
    opts.chipEngine = chipConfig(a, 0).engine;
    opts.chipQuantum = a.quantum;
    opts.chipThreads = a.threads;
    std::cout << "chip mix seeds=(";
    for (size_t i = 0; i < seeds.size(); ++i)
        std::cout << (i ? "," : "") << seeds[i];
    std::cout << ") [" << uarch::chipEngineName(opts.chipEngine) << ", "
              << shape.describe() << "]\n";
    auto r = harness::diffChipMix(seeds, shape, opts);
    std::cout << (r.ok ? "oracle: ok ("
                             + std::to_string(r.cycles)
                             + " chip cycles)\n"
                       : "oracle: " + r.divergence + "\n");
    return r.ok ? 0 : 1;
}

// ---------------------------------------------------------------------
// --repro: one seed, verbosely.
// ---------------------------------------------------------------------

int
runRepro(const Args &a)
{
    harness::ShapeConfig shape = a.shape();
    std::cout << "seed " << a.reproSeed << " [" << shape.describe()
              << "]\n";
    wir::Module mod = harness::generate(a.reproSeed, shape);

    MemImage goldenMem;
    auto golden = core::runGolden(mod, &goldenMem);
    std::cout << "golden      retVal=" << golden.retVal
              << " dynOps=" << golden.dynOps << " loads=" << golden.loads
              << " stores=" << golden.stores << "\n";

    auto riscLine = [&](const char *name, const risc::RiscOptions &o) {
        MemImage m;
        auto r = core::runRisc(mod, o, &m);
        std::cout << name << " retVal=" << r.retVal << " insts="
                  << r.counters.insts
                  << (r.retVal == golden.retVal ? "" : "  <-- DIVERGES")
                  << harness::compareDataSegments(mod, goldenMem, m, " mem:")
                  << "\n";
    };
    riscLine("risc/gcc   ", risc::RiscOptions::gcc());
    riscLine("risc/icc   ", risc::RiscOptions::icc());

    auto tripsLine = [&](const char *name, compiler::Options o,
                         bool cycle, bool debug) {
        o.verifyTil = a.verifyTil;
        if (debug && a.dumpTil)
            o.tilDump = &std::cout;
        MemImage fm, cm;
        auto r = core::runTrips(mod, o, cycle, uarch::UarchConfig{}, &fm,
                                &cm);
        std::cout << name << " retVal=" << r.retVal
                  << " blocks=" << r.isa.blocks << " fired=" << r.isa.fired
                  << (r.retVal == golden.retVal ? "" : "  <-- DIVERGES")
                  << harness::compareDataSegments(mod, goldenMem, fm,
                                                  " mem:")
                  << "\n";
        if (debug && a.compileStats) {
            const auto &cs = r.compile;
            std::cout << "  compile: functions=" << cs.functions
                      << " regions=" << cs.regions << " blocks="
                      << cs.blocks << " insts=" << cs.totalInsts
                      << " movs=" << cs.movInsts << " nulls="
                      << cs.nullInsts << " tests=" << cs.testInsts
                      << "\n  split: +" << cs.splitBlocks
                      << " blocks, " << cs.spillWrites
                      << " spill writes, " << cs.spillReads
                      << " spill reads, " << cs.overflowRetries
                      << " region retries\n";
            for (unsigned p = 0; p < compiler::NUM_PASSES; ++p) {
                const auto &pc = cs.pass[p];
                std::cout << "  pass " << std::left << std::setw(12)
                          << compiler::passName(
                                 static_cast<compiler::PassId>(p))
                          << std::right << " blocks=" << pc.tilBlocks
                          << " nodes=" << pc.tilNodes << " (+"
                          << pc.addedNodes << ") movs=" << pc.movNodes
                          << " nulls=" << pc.nullNodes << " tests="
                          << pc.testNodes << "\n";
            }
        }
        if (cycle) {
            std::cout << "trips/cycle retVal=" << r.uarch.retVal
                      << " cycles=" << r.uarch.cycles
                      << " ipc=" << r.uarch.ipc()
                      << " flushes=" << r.uarch.blocksFlushed
                      << (r.uarch.retVal == golden.retVal
                              ? "" : "  <-- DIVERGES")
                      << harness::compareDataSegments(mod, goldenMem, cm,
                                                      " mem:")
                      << "\n";
        }
    };
    tripsLine("trips/func ", compiler::Options::compiled(), a.cycleLevel,
              true);
    tripsLine("trips/hand ", compiler::Options::hand(), false, false);

    harness::DiffOptions opts;
    opts.cycleLevel = a.cycleLevel;
    opts.verifyTil = a.verifyTil;
    auto full = harness::diffOne(a.reproSeed, shape, opts);
    std::cout << (full.ok ? "oracle: ok\n"
                          : "oracle: " + full.divergence + "\n");

    bool ckptOk = true;
    if (a.ckptEvery) {
        auto cr = harness::diffCheckpointRestore(
            mod, a.ckptEvery, compiler::Options::compiled());
        ckptOk = cr.ok;
        std::cout << "ckpt oracle (every " << a.ckptEvery << " blocks): "
                  << (cr.ok ? "ok (" + std::to_string(cr.checkpoints)
                                  + " checkpoints over "
                                  + std::to_string(cr.totalBlocks)
                                  + " blocks)"
                            : cr.divergence)
                  << "\n";
    }
    return full.ok && ckptOk ? 0 : 1;
}

// ---------------------------------------------------------------------
// --sampled: the sampled-vs-full accuracy gate.
// ---------------------------------------------------------------------

int
runSampledGate(const Args &a)
{
    std::vector<const workloads::Workload *> ws;
    std::string cur;
    for (char ch : a.sampledList + ",") {
        if (ch == ',') {
            if (!cur.empty())
                ws.push_back(&workloads::find(cur));
            cur.clear();
        } else {
            cur += ch;
        }
    }
    if (ws.empty()) {
        std::cerr << "--sampled needs at least one workload name\n";
        return 2;
    }
    sim::SampleConfig scfg;
    scfg.warmupBlocks = 150;
    scfg.measureBlocks = 350;
    scfg.period = 1000;
    if (!a.sampleSpec.empty())
        scfg = sim::SampleConfig::parse(a.sampleSpec);
    scfg.maxCpbSpread = a.sampleSpread;

    std::printf("sampling schedule: %s, tolerance %.1f%%\n",
                scfg.describe().c_str(), a.sampleTol);
    std::printf("%-12s %12s %12s %8s %5s %9s %9s\n", "workload",
                "full cyc", "sampled cyc", "err%", "ivls", "coverage",
                "speedup");
    bool ok = true;
    for (const auto *w : ws) {
        wir::Module mod;
        w->build(mod);
        auto prog =
            compiler::compileToTrips(mod, compiler::Options::compiled());

        auto f0 = Clock::now();
        MemImage fullMem;
        wir::Interp::loadGlobals(mod, fullMem);
        uarch::CycleSim cs(prog, fullMem);
        auto full = cs.run();
        double fullMs = msSince(f0);

        auto s0 = Clock::now();
        MemImage sMem;
        wir::Interp::loadGlobals(mod, sMem);
        auto s = sim::runSampled(prog, sMem, uarch::UarchConfig{}, scfg);
        double sampledMs = msSince(s0);

        double err = full.cycles
            ? (s.estCycles - static_cast<double>(full.cycles)) * 100.0 /
                  static_cast<double>(full.cycles)
            : 0.0;
        bool pass = std::abs(err) <= a.sampleTol &&
                    s.retVal == full.retVal && !s.fuelExhausted;
        ok &= pass;
        std::printf(
            "%-12s %12llu %12.0f %+7.2f%% %5u %8.1f%% %8.2fx%s%s\n",
            w->name.c_str(), (unsigned long long)full.cycles,
            s.estCycles, err, s.intervals, s.coverage() * 100.0,
            sampledMs > 0 ? fullMs / sampledMs : 0.0,
            s.toleranceFallback ? "  [spread>tol: full detail]" : "",
            pass ? "" : "  <-- FAIL");
    }
    std::printf("%s\n", ok ? "sampled estimates within tolerance"
                           : "SAMPLED ESTIMATES OUT OF TOLERANCE");
    return ok ? 0 : 1;
}

// ---------------------------------------------------------------------
// --cache-fsck: repair a campaign cache after a mid-sweep kill.
// ---------------------------------------------------------------------

int
runCacheFsck(const Args &a)
{
    sim::CampaignCache cache(a.cacheDir);
    sim::FsckReport rep = cache.fsck();
    std::cout << rep.str() << " dir=" << a.cacheDir << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a = parse(argc, argv);
    if (a.faultInject) {
        // Deterministic I/O fault plan over every checkpoint/cache
        // file operation this process performs. The stats line lands
        // on stderr at exit so gates can assert injection really ran.
        sim::faultio::FaultPlan plan;
        plan.seed = a.faultSeed;
        plan.period = a.faultPeriod;
        sim::faultio::install(plan);
    }
    int rc;
    if (a.cacheFsck)
        rc = runCacheFsck(a);
    else if (a.mixSuite)
        rc = runMixSuite(a);
    else if (!a.mix.empty())
        rc = runMix(a);
    else if (a.chip && a.repro)
        rc = runChipRepro(a);
    else if (a.chip && a.fuzzCount)
        rc = runChipFuzz(a);
    else if (a.repro)
        rc = runRepro(a);
    else if (!a.sampledList.empty())
        rc = runSampledGate(a);
    else if (a.fuzzCount)
        rc = runFuzz(a);
    else
        rc = runFigures(a);
    if (a.faultInject)
        std::cerr << sim::faultio::stats().describe() << "\n";
    return rc;
}
