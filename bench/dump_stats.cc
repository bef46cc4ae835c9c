/**
 * @file
 * Equivalence harness for simulator refactors: runs the cycle-level
 * model on a fixed set of workloads and prints every UarchResult field
 * in a stable text format. Capture the output before a performance
 * change, diff it after — any timing-semantics drift shows up as a
 * textual difference (see README "simulator performance").
 *
 * --all widens the sweep to every registered workload (compiled
 * preset; hand preset too for the Simple suite) plus the reduced
 * uarch presets on a fixed subset — the coverage the "bit-identical
 * single-core timing" acceptance check diffs across refactors.
 *
 * --cache DIR (or $TRIPSIM_CACHE) routes every run through the
 * campaign cache (sim/campaign.hh): a warm re-run performs zero
 * simulation and must print byte-identical stats — the CI campaign
 * stage diffs exactly that. Cache hit/miss counts go to stderr so
 * stdout stays diffable.
 *
 * Observability (obs/, README "Observability"): --trace FILE writes a
 * Chrome trace-event JSON of the default entry set, --metrics FILE a
 * metric time-series (JSONL, or CSV when FILE ends in .csv; --period N
 * sets the sampling period in cycles), --stalls appends the per-run
 * stall breakdown + hottest-blocks report to stdout after each entry's
 * stats. With any of these the entries run through CycleSim with the
 * observers attached; the stats text stays byte-identical to an
 * unobserved run (the CI trace-smoke stage diffs exactly that), so
 * these flags exclude --all/--cache rather than silently changing
 * what is simulated.
 */
#include <cstdio>
#include <cstring>

#include "cli.hh"
#include "compiler/codegen.hh"
#include "core/machines.hh"
#include "obs/obs.hh"
#include "sim/campaign.hh"
#include "wir/interp.hh"

using namespace trips;

static void
dumpDist(const char *name, const Distribution &d)
{
    std::printf("  %s: samples=%llu mean=%.9f buckets=[",
                name, static_cast<unsigned long long>(d.samples()),
                d.mean());
    for (unsigned b = 0; b < d.numBuckets(); ++b)
        std::printf("%s%llu", b ? "," : "",
                    static_cast<unsigned long long>(d.count(b)));
    std::printf("]\n");
}

static void
dump(const char *name, const char *preset, const uarch::UarchResult &r)
{
    std::printf("=== %s (%s) ===\n", name, preset);
    std::printf("  retVal=%lld fuel=%d\n",
                static_cast<long long>(r.retVal), r.fuelExhausted);
    std::printf("  cycles=%llu committed=%llu flushed=%llu "
                "fetched=%llu fired=%llu\n",
                (unsigned long long)r.cycles,
                (unsigned long long)r.blocksCommitted,
                (unsigned long long)r.blocksFlushed,
                (unsigned long long)r.instsFetched,
                (unsigned long long)r.instsFired);
    std::printf("  brMiss=%llu crMiss=%llu violFlush=%llu icMiss=%llu\n",
                (unsigned long long)r.branchMispredicts,
                (unsigned long long)r.callRetMispredicts,
                (unsigned long long)r.loadViolationFlushes,
                (unsigned long long)r.icacheMissStalls);
    std::printf("  l1d=%llu/%llu l2=%llu/%llu loads=%llu stores=%llu\n",
                (unsigned long long)r.l1dHits,
                (unsigned long long)r.l1dMisses,
                (unsigned long long)r.l2Hits,
                (unsigned long long)r.l2Misses,
                (unsigned long long)r.loadsExecuted,
                (unsigned long long)r.storesCommitted);
    std::printf("  l1i=%llu/%llu l1dWb=%llu l2Wb=%llu\n",
                (unsigned long long)r.l1iHits,
                (unsigned long long)r.l1iMisses,
                (unsigned long long)r.l1dWritebacks,
                (unsigned long long)r.l2Writebacks);
    std::printf("  bytesL1=%llu bytesL2=%llu bytesMem=%llu\n",
                (unsigned long long)r.bytesL1,
                (unsigned long long)r.bytesL2,
                (unsigned long long)r.bytesMem);
    std::printf("  avgBlocks=%.9f avgInsts=%.9f peakInsts=%llu\n",
                r.avgBlocksInFlight, r.avgInstsInFlight,
                (unsigned long long)r.peakInstsInFlight);
    std::printf("  pred: pred=%llu miss=%llu exit=%llu tgt=%llu cr=%llu\n",
                (unsigned long long)r.predictor.predictions,
                (unsigned long long)r.predictor.mispredictions,
                (unsigned long long)r.predictor.exitMispredicts,
                (unsigned long long)r.predictor.targetMispredicts,
                (unsigned long long)r.predictor.callRetMispredicts);
    std::printf("  opnPackets=%llu localBypasses=%llu\n",
                (unsigned long long)r.opnPackets,
                (unsigned long long)r.localBypasses);
    static const char *cls[] = {"EtEt", "EtDt", "EtRt",
                                "EtGt", "DtRt", "DtEt",
                                "RtEt", "Other"};
    for (size_t c = 0; c < r.opnHops.size(); ++c)
        dumpDist(cls[c], r.opnHops[c]);
}

/** The default entry set (mixed suites and both compiler presets; the
 *  hand-preset entries stress LSQ forwarding and dense blocks). */
struct Entry
{
    const char *name;
    bool hand;
};
static const Entry entries[] = {
    {"a2time", false},  {"autocor", false}, {"gcc", false},
    {"fft", false},     {"vadd", true},     {"matrix", true},
};

/** Observed mode: the default entry set through CycleSim with obs
 *  attached. The dump() text must stay byte-identical to the
 *  unobserved path — CI diffs it. */
static int
runObserved(const std::string &trace_path, const std::string &metrics_path,
            bool stalls, u64 period)
{
    obs::TraceSink sink;
    obs::TraceSink *trace = trace_path.empty() ? nullptr : &sink;
    obs::MetricRegistry metrics;
    obs::MetricRegistry *mreg = metrics_path.empty() ? nullptr : &metrics;

    for (const auto &e : entries) {
        const auto &w = workloads::find(e.name);
        auto opts = e.hand ? compiler::Options::hand()
                           : compiler::Options::compiled();
        wir::Module mod;
        w.build(mod);
        auto prog = compiler::compileToTrips(mod, opts);
        MemImage mem;
        wir::Interp::loadGlobals(mod, mem);
        uarch::CycleSim csim(prog, mem);

        // One trace process row and one metric prefix per entry; one
        // stall collector per entry so breakdowns stay per-run.
        obs::StallCollector stall;
        obs::CoreObs co;
        co.trace = trace;
        co.metrics = mreg;
        co.stalls = stalls ? &stall : nullptr;
        co.samplePeriod = period;
        co.pid = static_cast<u32>(&e - entries);
        co.metricPrefix = std::string(e.name) + ".";
        if (trace)
            sink.setProcessName(co.pid, e.name);
        csim.attachObs(&co);

        auto r = csim.run();
        dump(e.name, e.hand ? "hand" : "compiled", r);
        if (stalls) {
            std::vector<std::string> labels;
            for (u32 b = 0; b < prog.numBlocks(); ++b)
                labels.push_back(prog.block(b).label);
            stall.report(stdout, labels);
            if (stall.total() != r.cycles) {
                std::fprintf(stderr,
                             "stall breakdown total %llu != cycles %llu\n",
                             (unsigned long long)stall.total(),
                             (unsigned long long)r.cycles);
                return 1;
            }
        }
    }

    if (trace && !sink.writeFile(trace_path)) {
        std::fprintf(stderr, "cannot write trace %s\n",
                     trace_path.c_str());
        return 1;
    }
    if (mreg) {
        bool csv = metrics_path.size() > 4 &&
            metrics_path.compare(metrics_path.size() - 4, 4, ".csv") == 0;
        bool ok = csv ? metrics.writeCsv(metrics_path)
                      : metrics.writeJsonl(metrics_path);
        if (!ok) {
            std::fprintf(stderr, "cannot write metrics %s\n",
                         metrics_path.c_str());
            return 1;
        }
    }
    return 0;
}

static int
usage()
{
    std::fprintf(stderr,
                 "usage: dump_stats [--all] [--cache DIR]\n"
                 "                  [--trace FILE] [--metrics FILE]"
                 " [--stalls] [--period N]\n"
                 "N is a plain non-negative decimal.\n");
    return 2;
}

int
main(int argc, char **argv)
{
    bool all = false;
    bool stalls = false;
    u64 period = 0;
    std::string cacheDir, tracePath, metricsPath;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--all")) {
            all = true;
        } else if (!std::strcmp(argv[i], "--cache") && i + 1 < argc) {
            cacheDir = argv[++i];
        } else if (!std::strcmp(argv[i], "--trace") && i + 1 < argc) {
            tracePath = argv[++i];
        } else if (!std::strcmp(argv[i], "--metrics") && i + 1 < argc) {
            metricsPath = argv[++i];
        } else if (!std::strcmp(argv[i], "--stalls")) {
            stalls = true;
        } else if (!std::strcmp(argv[i], "--period") && i + 1 < argc) {
            std::optional<u64> v = bench::parseNumber<u64>(argv[++i]);
            if (!v)
                return usage();
            period = *v;
        } else {
            return usage();
        }
    }
    bool observed = !tracePath.empty() || !metricsPath.empty() || stalls;
    if (observed && (all || !cacheDir.empty())) {
        std::fprintf(stderr, "--trace/--metrics/--stalls run the default "
                             "entry set uncached; drop --all/--cache\n");
        return 2;
    }
    if (observed)
        return runObserved(tracePath, metricsPath, stalls, period);

    sim::Campaign campaign = cacheDir.empty()
        ? sim::Campaign::fromEnv() : sim::Campaign(cacheDir);

    if (!all) {
        for (const auto &e : entries) {
            const auto &w = workloads::find(e.name);
            auto opts = e.hand ? compiler::Options::hand()
                               : compiler::Options::compiled();
            auto r = campaign.runTrips(w, opts, true);
            dump(e.name, e.hand ? "hand" : "compiled", r.uarch);
        }
        std::fprintf(stderr, "%s\n", campaign.report().c_str());
        return 0;
    }

    // --all: every workload under the compiled preset (hand too for
    // the Simple suite), then the reduced uarch presets on a fixed
    // subset covering every suite.
    for (const auto &w : workloads::all()) {
        auto r = campaign.runTrips(w, compiler::Options::compiled(), true);
        dump(w.name.c_str(), "compiled", r.uarch);
        if (w.isSimple) {
            auto h = campaign.runTrips(w, compiler::Options::hand(), true);
            dump(w.name.c_str(), "hand", h.uarch);
        }
    }
    struct Preset
    {
        const char *name;
        uarch::UarchConfig cfg;
    };
    const Preset presets[] = {
        {"smallWindow", uarch::UarchConfig::smallWindow()},
        {"narrowIssue", uarch::UarchConfig::narrowIssue()},
        {"tinyMemory", uarch::UarchConfig::tinyMemory()},
    };
    static const char *subset[] = {"vadd", "matrix", "fft", "a2time",
                                   "gcc", "equake"};
    for (const auto &p : presets) {
        for (const char *name : subset) {
            const auto &w = workloads::find(name);
            auto r = campaign.runTrips(w, compiler::Options::compiled(),
                                       true, p.cfg);
            std::printf("--- preset %s ---\n", p.name);
            dump(name, "compiled", r.uarch);
        }
    }
    std::fprintf(stderr, "%s\n", campaign.report().c_str());
    return 0;
}
