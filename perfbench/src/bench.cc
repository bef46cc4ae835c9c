#include "bench.hh"

#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "obs/trace.hh"
#include "spans.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

/** Cold set-ups per run, each in a fresh process; setup_s is their
 *  median. */
constexpr unsigned kColdSetups = 15;
/** Timed passes per run at least, however long they take. */
constexpr unsigned kMinPasses = 2;
/** Sweep-pool threads (figures, fuzz), capped by the host's CPUs. */
constexpr unsigned kWorkerCap = 4;
/** Parallel chip engine threads: T=2 is the steady cap on a 4-vCPU
 *  host (T=4 swings by 2.5x there). */
constexpr unsigned kChipThreadCap = 2;
/** Pinned digests, relative to the working directory (the repository
 *  root). */
const char *const kPinsPath = "perfbench/pins.txt";
/** Cache dirs, trace and ledger, relative to the working directory. */
const char *const kOutDir = ".bench_build/out";

const std::vector<std::string> kSuites = {"kernel", "versa",  "eembc",
                                          "specint", "specfp", "blas"};

/** Name and unit of every metric the command prints. */
struct MetricDef
{
    std::string name;
    std::string unit;
};

const std::vector<MetricDef> &
endToEndDefs()
{
    static const std::vector<MetricDef> defs = {
        {"wall_s", "s"},
        {"sim_mcycles_per_s", "Mcyc/s"},
        {"sim_mips", "M/s"},
        {"sim_cycles", "cycles"},
        {"sim_ipc", "inst/cycle"},
        {"setup_s", "s"},
        {"peak_rss_mb", "MB"},
    };
    return defs;
}

const std::vector<MetricDef> &
perLayerDefs()
{
    static const std::vector<MetricDef> defs = [] {
        std::vector<MetricDef> d = {
            {"compiler.compile_ms", "ms"},
            {"compiler.compiles", "count"},
            {"compiler.insts_emitted", "count"},
            {"compiler.blocks_emitted", "count"},
            {"compiler.overflow_retries", "count"},
            {"compiler.spill_rounds", "count"},
            {"compiler.retry_ratio", "ratio"},
            {"wir.build_ms", "ms"},
            {"wir.golden_ms", "ms"},
            {"wir.golden_mops_per_s", "Mops/s"},
            {"risc.compile_ms", "ms"},
            {"risc.run_ms", "ms"},
            {"risc.mips", "M/s"},
            {"ooo.run_ms", "ms"},
            {"ooo.mcycles_per_s", "Mcyc/s"},
            {"trips.func_ms", "ms"},
            {"trips.func_mips", "M/s"},
            {"trips.blocks", "count"},
            {"trips.decoded_fallbacks", "count"},
            {"uarch.cycle_ms", "ms"},
            {"uarch.ns_per_cycle", "ns/cycle"},
            {"uarch.mcycles_per_s", "Mcyc/s"},
            {"uarch.blocks_committed", "count"},
            {"uarch.blocks_flushed", "count"},
            {"uarch.flush_ratio", "ratio"},
            {"uarch.opn_packets_per_cycle", "1/cycle"},
        };
        for (const auto &s : kSuites)
            d.push_back({"uarch.ns_per_cycle." + s, "ns/cycle"});
        for (MetricDef m : std::vector<MetricDef>{
                 {"mem.accesses", "count"},
                 {"mem.access_ms", "ms"},
                 {"mem.ns_per_access", "ns"},
                 {"mem.l2_miss_ratio", "ratio"},
                 {"mem.bank_conflicts", "count"},
                 {"mem.bank_conflict_stall_cycles", "cycles"},
                 {"net.ocn_occupancy", "ratio"},
                 {"sim.cache.key_ms", "ms"},
                 {"sim.cache.lookup_ms", "ms"},
                 {"sim.cache.store_ms", "ms"},
                 {"sim.cache.misses", "count"},
                 {"sim.cache.bytes_written", "B"},
                 {"harness.pool_efficiency", "ratio"},
                 {"harness.guard_overhead_us", "us"},
             })
            d.push_back(m);
        for (const auto &mix : mixNames()) {
            for (MetricDef m : std::vector<MetricDef>{
                     {"run_ms", "ms"},
                     {"serial_ms", "ms"},
                     {"speedup_vs_serial", "x"},
                     {"solo_ms_sum", "ms"},
                     {"solo_ms_max", "ms"},
                     {"amdahl_bound", "x"},
                     {"efficiency", "ratio"},
                     {"quanta", "count"},
                     {"reclones", "count"},
                 })
                d.push_back({"chip." + mix + "." + m.name, m.unit});
        }
        for (const auto &l : layerNames())
            d.push_back({"self." + l + "_ms", "ms"});
        d.push_back({"self.outside_ms", "ms"});
        for (const auto &l : layerNames())
            d.push_back({"share." + l, "ratio"});
        d.push_back({"trace.wall_ms", "ms"});
        d.push_back({"trace.untraced_wall_ms", "ms"});
        d.push_back({"trace.overhead_ms", "ms"});
        return d;
    }();
    return defs;
}

std::vector<std::string>
namesOf(const std::vector<MetricDef> &defs)
{
    std::vector<std::string> n;
    for (const auto &d : defs)
        n.push_back(d.name);
    return n;
}

std::string
metricUnit(const std::string &name)
{
    for (const auto *defs : {&endToEndDefs(), &perLayerDefs()})
        for (const auto &d : *defs)
            if (d.name == name)
                return d.unit;
    throw std::logic_error("no unit for metric " + name);
}

struct Args
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10;
    bool trace = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload figures|fuzz|chip_mix "
                 "--seed N --seconds S --trace 0|1\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + k);
        std::string v = argv[++i];
        try {
            if (k == "--workload") {
                a.workload = v;
                haveWorkload = true;
            } else if (k == "--seed") {
                a.seed = std::stoull(v);
            } else if (k == "--seconds") {
                a.seconds = std::stod(v);
            } else if (k == "--trace") {
                if (v != "0" && v != "1")
                    usage("--trace takes 0 or 1");
                a.trace = v == "1";
            } else {
                usage("unknown option " + k);
            }
        } catch (const std::logic_error &) {
            usage("bad value for " + k + ": " + v);
        }
    }
    if (!haveWorkload)
        usage("--workload is required");
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), a.workload) == names.end())
        usage("unknown workload " + a.workload);
    if (!(a.seconds > 0))
        usage("--seconds must be positive");
    return a;
}

/** Host CPU seconds of the whole process (steal time excluded). */
double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return ts.tv_sec + ts.tv_nsec * 1e-9;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        throw std::logic_error("non-finite metric value");
    char buf[64];
    auto r = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, r.ptr);
}

std::string
jsonString(const std::string &s)
{
    std::string o = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            o += '\\';
        o += c;
    }
    return o + "\"";
}

/** Pinned digests: "<workload> <seed|*> <digest>" per line. */
std::map<std::string, std::string>
loadPins(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read pinned digests from " + path);
    std::map<std::string, std::string> pins;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string w, seed, digest;
        if (!(ls >> w >> seed >> digest))
            throw std::runtime_error("malformed pin line: " + line);
        pins[w + " " + seed] = digest;
    }
    return pins;
}

/** The checked-out commit, read from .git in the working directory;
 *  "unknown" when there is none. */
std::string
gitCommit()
{
    auto firstLine = [](const std::string &path) {
        std::ifstream in(path);
        std::string line;
        std::getline(in, line);
        return line;
    };
    const std::string head = firstLine(".git/HEAD");
    if (head.rfind("ref: ", 0) != 0)
        return head.empty() ? "unknown" : head;
    const std::string ref = head.substr(5);
    if (std::string sha = firstLine(".git/" + ref); !sha.empty())
        return sha;
    std::ifstream packed(".git/packed-refs");
    for (std::string line; std::getline(packed, line);) {
        std::istringstream ls(line);
        std::string sha, name;
        if (ls >> sha >> name && name == ref)
            return sha;
    }
    return "unknown";
}

std::string
contextJson(const Args &a, const RunConfig &cfg, unsigned cpus)
{
    std::ostringstream os;
    os << "{\"workload\": " << jsonString(a.workload)
       << ", \"seed\": " << a.seed << ", \"seconds\": " << a.seconds
       << ", \"trace\": " << (a.trace ? 1 : 0)
       << ", \"host_cpus\": " << cpus << ", \"workers\": " << cfg.workers
       << ", \"chip_threads\": " << cfg.chipThreads
       << ", \"commit\": " << jsonString(gitCommit())
       << ", \"compiler\": " << jsonString(PERFBENCH_COMPILER)
       << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
       << ", \"modelled_caches\": \"cold\"}";
    return os.str();
}

void
writeLedger(const std::string &path, const std::string &context,
            const std::vector<LedgerRow> &rows)
{
    std::ofstream out(path);
    out << "{\"context\": " << context << "}\n";
    for (const auto &r : rows) {
        out << "{\"workload\": " << jsonString(r.workload)
            << ", \"model\": " << jsonString(r.model)
            << ", \"suite\": " << jsonString(r.suite)
            << ", \"task_ms\": " << jsonNumber(r.taskMs)
            << ", \"compile_ms\": " << jsonNumber(r.compileMs)
            << ", \"func_mips\": " << jsonNumber(r.funcMips)
            << ", \"cycle_mcyc_per_s\": " << jsonNumber(r.cycleMcps)
            << ", \"mem_ns_per_access\": " << jsonNumber(r.memNsPerAccess)
            << ", \"cycles\": " << r.cycles << "}\n";
    }
    if (!out)
        throw std::runtime_error("cannot write ledger " + path);
}

/**
 * Set self.outside_ms of a traced pass that ran from @p t0 to @p t1 on
 * @p lanes lanes, from the gaps between each lane's root spans, and
 * check that the lane-averaged self times plus the outside time add up
 * to the pass's wall clock. They do only if every root span lies in
 * the pass and no two of a lane's root spans overlap.
 */
void
addOutsideTime(Metrics &m, const std::vector<Span> &spans, u64 t0, u64 t1,
               unsigned lanes)
{
    m["self.outside_ms"] = outsideNs(spans, t0, t1, lanes) / (lanes * 1e6);
    double parts = m["self.outside_ms"];
    for (const auto &l : layerNames())
        parts += m["self." + l + "_ms"];
    const double wallMs = (t1 - t0) * 1e-6;
    if (std::fabs(parts - wallMs) > 1e-6 * wallMs)
        throw std::logic_error("self times do not add up to the wall");
}

unsigned
hostCpus()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

/** Everything a run does before its timed part. */
struct Prepared
{
    RunConfig cfg;
    std::map<std::string, std::string> pins;
    std::unique_ptr<BenchWorkload> wl;
};

Prepared
prepare(const Args &a)
{
    Prepared p;
    p.cfg.seed = a.seed;
    p.cfg.workers = std::min(kWorkerCap, hostCpus());
    p.cfg.chipThreads = std::min(kChipThreadCap, hostCpus());
    p.cfg.outDir = kOutDir;
    std::filesystem::create_directories(p.cfg.outDir);
    p.pins = loadPins(kPinsPath);
    p.wl = makeWorkload(a.workload, p.cfg);
    p.wl->setup();
    return p;
}

/**
 * Seconds prepare() takes in a child forked from this process before
 * it prepared anything, so the child pays every one-time cost again:
 * the workload registry, first touch of the heap, lazy symbol binding.
 * The caller must still be single-threaded. Waits for the child.
 */
double
coldSetupInChild(const Args &a)
{
    int fd[2];
    if (pipe(fd) != 0)
        throw std::runtime_error("cannot create a pipe");
    const pid_t pid = fork();
    if (pid < 0)
        throw std::runtime_error("cannot fork a set-up process");
    if (pid == 0) {
        close(fd[0]);
        int rc = 2;
        try {
            const u64 t0 = nowNs();
            Prepared p = prepare(a);
            const double s = (nowNs() - t0) * 1e-9;
            p.wl.reset();  // joins the workload's threads
            if (write(fd[1], &s, sizeof s) == sizeof s)
                rc = 0;
        } catch (const std::exception &e) {
            std::cerr << "perfbench: set-up failed: " << e.what() << "\n";
        }
        _exit(rc);
    }
    close(fd[1]);
    double s = 0;
    const ssize_t n = read(fd[0], &s, sizeof s);
    close(fd[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    if (n != sizeof s || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
        throw std::runtime_error("set-up failed in a child process");
    return s;
}

int
run(const Args &a)
{
    if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
        std::cerr << "perfbench: refusing to record from a "
                  << PERFBENCH_BUILD_TYPE << " build (need Release)\n";
        return 3;
    }
#ifndef NDEBUG
    std::cerr << "perfbench: refusing to record with assertions enabled\n";
    return 3;
#endif
    const u64 epoch = nowNs();
    // setup_s: every sample is a cold set-up in a process of its own,
    // this one last; the median keeps host noise out of it.
    std::vector<double> setups;
    for (unsigned i = 1; i < kColdSetups; ++i)
        setups.push_back(coldSetupInChild(a));
    const u64 setupStart = nowNs();
    Prepared prep = prepare(a);
    setups.push_back((nowNs() - setupStart) * 1e-9);
    const RunConfig &cfg = prep.cfg;
    BenchWorkload *wl = prep.wl.get();
    const std::string context = contextJson(a, cfg, hostCpus());
    std::cout << "{\"context\": " << context << "}" << std::endl;

    u64 attempted = 0, failed = 0;
    std::vector<std::string> failures;
    auto count = [&](const PassResult &p) {
        attempted += p.attempted;
        failed += p.failed;
        for (const auto &f : p.failures)
            if (failures.size() < 10)
                failures.push_back(f);
    };
    std::string digest;
    u64 simCycles = 0, simInsts = 0;
    std::vector<double> walls, tracedWalls, cpu;
    std::vector<PassResult> traced;
    Metrics extras;
    trips::obs::TraceSink sink;
    sink.setProcessName(1, "perfbench traced passes");
    sink.setProcessName(2, "perfbench reference runs");

    const u64 start = nowNs();
    for (unsigned pass = 0;; ++pass) {
        // Traced runs alternate untraced and traced passes, so the
        // tracing overhead is measured under the same host conditions.
        const bool tracedPass = a.trace && pass % 2 == 1;
        std::unique_ptr<SpanRecorder> rec;
        if (tracedPass)
            rec = std::make_unique<SpanRecorder>();
        const u64 t0 = nowNs();
        const double c0 = cpuSeconds();
        wl->run(rec.get());
        const u64 t1 = nowNs();
        const double wall = (t1 - t0) * 1e-9;
        cpu.push_back(cpuSeconds() - c0);

        std::vector<Span> spans;
        if (rec)
            spans = rec->spans();
        PassResult p = wl->finish(spans, wall);
        count(p);
        if (tracedPass)
            addOutsideTime(p.layer, spans, t0, t1, wl->lanes());
        if (digest.empty()) {
            digest = p.digest;
            simCycles = p.simCycles;
            simInsts = p.simInsts;
        } else if (p.digest != digest) {
            failed += p.attempted;
            failures.push_back("pass " + std::to_string(pass) +
                               ": simulated statistics differ from pass 0");
        }
        if (tracedPass) {
            exportSpans(spans, epoch, 1, sink);
            tracedWalls.push_back(wall);
            traced.push_back(std::move(p));
            if (traced.size() == 1) {
                SpanRecorder xrec;
                PassResult xp;
                extras = wl->extras(xrec, xp);
                count(xp);
                exportSpans(xrec.spans(), epoch, 2, sink);
            }
        } else {
            walls.push_back(wall);
        }
        const double elapsed = (nowNs() - start) * 1e-9;
        const size_t done = walls.size() + tracedWalls.size();
        if (elapsed >= a.seconds && done >= kMinPasses &&
            (!a.trace || !tracedWalls.empty()))
            break;
    }

    std::cerr << "perfbench: pass walls (s):";
    for (double w : walls)
        std::cerr << " " << w;
    if (!tracedWalls.empty()) {
        std::cerr << "; traced:";
        for (double w : tracedWalls)
            std::cerr << " " << w;
    }
    std::cerr << "; cpu (s):";
    for (double c : cpu)
        std::cerr << " " << c;
    std::cerr << "; setups (s):";
    for (double s : setups)
        std::cerr << " " << s;
    std::cerr << "\n";
    std::cerr << "perfbench: digest " << a.workload << " seed=" << a.seed
              << " " << digest << "\n";
    const auto &pins = prep.pins;
    auto pin = pins.find(a.workload + " " + std::to_string(a.seed));
    if (pin == pins.end())
        pin = pins.find(a.workload + " *");
    if (pin != pins.end() && pin->second != digest) {
        failed = attempted;
        failures.push_back("digest " + digest + " != pinned " + pin->second +
                           " (" + kPinsPath + ")");
    }

    Metrics m;
    if (!a.trace) {
        const double wall = median(walls);
        m["wall_s"] = wall;
        m["sim_mcycles_per_s"] = simCycles / wall * 1e-6;
        m["sim_mips"] = simInsts / wall * 1e-6;
        m["sim_cycles"] = static_cast<double>(simCycles);
        m["sim_ipc"] = simCycles ? static_cast<double>(simInsts) / simCycles
                                 : 0;
        m["setup_s"] = median(setups);
        struct rusage ru {};
        getrusage(RUSAGE_SELF, &ru);
        m["peak_rss_mb"] = ru.ru_maxrss / 1024.0;
    } else {
        // Layer metrics of the traced pass with the median wall clock,
        // kept whole so its self times still add up to its wall clock.
        std::vector<size_t> idx(tracedWalls.size());
        std::iota(idx.begin(), idx.end(), size_t{0});
        std::sort(idx.begin(), idx.end(), [&](size_t x, size_t y) {
            return tracedWalls[x] < tracedWalls[y];
        });
        const PassResult &p = traced[idx[(idx.size() - 1) / 2]];
        m = p.layer;
        for (const auto &[k, v] : extras)
            m[k] = v;
        m["trace.untraced_wall_ms"] = median(walls) * 1e3;
        m["trace.overhead_ms"] =
            m["trace.wall_ms"] - m["trace.untraced_wall_ms"];
        wl->finalize(m);

        const std::string base = cfg.outDir + "/" + a.workload + "-s" +
                                 std::to_string(a.seed);
        if (!sink.writeFile(base + "-trace.json"))
            throw std::runtime_error("cannot write " + base + "-trace.json");
        writeLedger(base + "-ledger.jsonl", context, p.ledger);
        std::cerr << "perfbench: trace " << base << "-trace.json, ledger "
                  << base << "-ledger.jsonl\n";
    }

    const auto &names = a.trace ? perLayerNames() : endToEndNames();
    for (const auto &kv : m) {
        if (std::find(names.begin(), names.end(), kv.first) == names.end())
            throw std::logic_error("metric " + kv.first + " is not listed");
    }
    for (const auto &f : failures)
        std::cerr << "perfbench: FAILED " << f << "\n";

    std::ostringstream os;
    os << "{\"correct\": " << (failed == 0 ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (size_t i = 0; i < names.size(); ++i) {
        const std::string &k = names[i];
        os << (i ? ", " : "") << jsonString(k) << ": {\"value\": "
           << jsonNumber(m.count(k) ? m[k] : 0.0)
           << ", \"unit\": " << jsonString(metricUnit(k)) << "}";
    }
    os << "}}";
    std::cout << os.str() << std::endl;
    return failed == 0 ? 0 : 1;
}

} // namespace

const std::vector<std::string> &
endToEndNames()
{
    static const std::vector<std::string> names = namesOf(endToEndDefs());
    return names;
}

const std::vector<std::string> &
perLayerNames()
{
    static const std::vector<std::string> names = namesOf(perLayerDefs());
    return names;
}

int
benchMain(int argc, char **argv)
{
    Args a = parseArgs(argc, argv);
    try {
        return run(a);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: error: " << e.what() << "\n";
        return 2;
    }
}

} // namespace perfbench
