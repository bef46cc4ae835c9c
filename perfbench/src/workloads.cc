#include "workloads.hh"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>

#include "compiler/codegen.hh"
#include "digest.hh"
#include "harness/diff.hh"
#include "harness/fuzzgen.hh"
#include "harness/guard.hh"
#include "harness/sweep.hh"
#include "obs/obs.hh"
#include "ooo/ooo.hh"
#include "risc/core.hh"
#include "risc/wirtorisc.hh"
#include "sim/campaign.hh"
#include "sim/checkpoint.hh"
#include "timing_port.hh"
#include "trips/func_sim.hh"
#include "uarch/chip_sim.hh"
#include "uarch/cycle_sim.hh"
#include "wir/interp.hh"
#include "workloads/workload.hh"

namespace perfbench {

using namespace trips;
namespace fs = std::filesystem;

namespace {

/** Run @p f inside a span and return its result. */
template <class F>
auto
timed(Lane *l, const char *name, u64 task, F &&f)
{
    Scope s(l, name, task);
    return f();
}

double
perSecond(double count, u64 ns)
{
    return ns ? count / (static_cast<double>(ns) * 1e-9) : 0;
}

double
ratio(double num, double den)
{
    return den != 0 ? num / den : 0;
}

} // namespace

// ---------------------------------------------------------------------
// Instrumented flows.
// ---------------------------------------------------------------------

core::GoldenRun
goldenFlow(const wir::Module &mod, MemImage &mem, Lane *l, u64 task)
{
    timed(l, "wir.load", task, [&] { wir::Interp::loadGlobals(mod, mem); });
    auto res = timed(l, "wir.golden", task,
                     [&] { return wir::Interp{}.run(mod, mem); });
    core::GoldenRun g;
    g.retVal = res.retVal;
    g.dynOps = res.dynOps;
    g.loads = res.loads;
    g.stores = res.stores;
    g.fuelExhausted = res.fuelExhausted;
    return g;
}

RiscOut
riscFlow(const wir::Module &mod, const risc::RiscOptions &opts,
         MemImage &mem, Lane *l, u64 task)
{
    auto prog = timed(l, "risc.compile", task,
                      [&] { return risc::compileToRisc(mod, opts); });
    timed(l, "wir.load", task, [&] { wir::Interp::loadGlobals(mod, mem); });
    Scope s(l, "risc.run", task);
    risc::Core core(prog, mem);
    RiscOut out;
    out.retVal = core.run();
    out.fuelExhausted = core.fuelExhausted();
    out.counters = core.counters();
    return out;
}

ooo::OooResult
oooFlow(const wir::Module &mod, MemImage &mem, Lane *l, u64 task)
{
    auto prog = timed(l, "risc.compile", task, [&] {
        return risc::compileToRisc(mod, risc::RiscOptions::gcc());
    });
    timed(l, "wir.load", task, [&] { wir::Interp::loadGlobals(mod, mem); });
    return timed(l, "ooo.run", task, [&] {
        return ooo::runOoo(prog, mem, ooo::OooConfig::core2());
    });
}

TripsOut
tripsFlow(const wir::Module &mod, const compiler::Options &opts,
          bool cycle_level, const uarch::UarchConfig &ucfg, Lane *l,
          u64 task)
{
    TripsOut out;
    auto prog = timed(l, "compiler.compile", task, [&] {
        return compiler::compileToTrips(mod, opts, &out.run.compile);
    });
    out.run.codeBytes = prog.codeBytes();

    timed(l, "wir.load", task,
          [&] { wir::Interp::loadGlobals(mod, out.funcMem); });
    {
        Scope s(l, "trips.func", task);
        sim::FuncSim fsim(prog, out.funcMem);
        auto fres = fsim.run();
        out.run.funcFuelExhausted = fres.fuelExhausted;
        out.run.retVal = fres.retVal;
        out.run.isa = fres.stats;
        out.decodedFallbacks = fsim.decodedFallbacks();
    }
    // Same fail-fast rule as core::runTrips.
    if (!cycle_level || out.run.funcFuelExhausted)
        return out;

    timed(l, "wir.load", task,
          [&] { wir::Interp::loadGlobals(mod, out.cycleMem); });
    Scope s(l, "uarch.cycle", task);
    if (l) {
        mem::MemorySystem msys(uarch::uncoreConfig(ucfg));
        TimingPort port(msys);
        uarch::CycleSim csim(prog, out.cycleMem, ucfg, port, 0);
        out.run.uarch = csim.run();
        out.memAccesses = port.accesses();
        out.ocnOccupancy = msys.ocn().occupancy(out.run.uarch.cycles);
        l->aggregate("mem.access", task, port.ns());
    } else {
        uarch::CycleSim csim(prog, out.cycleMem, ucfg);
        out.run.uarch = csim.run();
    }
    out.run.cycleLevel = true;
    return out;
}

void
putTripsRun(sim::ByteWriter &w, const core::TripsRun &r)
{
    w.i64v(r.retVal);
    w.u64v(r.codeBytes);
    w.u8v(r.cycleLevel);
    w.u8v(r.funcFuelExhausted);
    sim::putIsaStats(w, r.isa);
    putCompile(w, r.compile);
    if (r.cycleLevel)
        putUarch(w, r.uarch);
}

std::vector<u64>
permutation(u64 n, u64 seed)
{
    std::vector<u64> p(n);
    std::iota(p.begin(), p.end(), u64{0});
    for (u64 i = n; i > 1; --i)
        std::swap(p[i - 1], p[harness::taskSeed(seed, i) % i]);
    return p;
}

namespace {

// ---------------------------------------------------------------------
// Oracle checks (the ones harness::diffOne makes).
// ---------------------------------------------------------------------

std::string
checkAgainst(const wir::Module &mod, i64 ref_ret, const MemImage &ref_mem,
             i64 ret, const MemImage &mem, const std::string &who)
{
    if (ret != ref_ret) {
        std::ostringstream os;
        os << who << " retVal " << ret << " != reference " << ref_ret;
        return os.str();
    }
    return harness::compareDataSegments(mod, ref_mem, mem, who.c_str());
}

/** TRIPS functional and cycle-level runs against the golden run. */
std::string
checkTrips(const wir::Module &mod, const core::GoldenRun &g,
           const MemImage &gmem, const TripsOut &t, bool cycle_level,
           const uarch::UarchConfig &ucfg, const std::string &who)
{
    const auto &r = t.run;
    if (r.funcFuelExhausted)
        return who + ": functional run exhausted fuel";
    std::string e = checkAgainst(mod, g.retVal, gmem, r.retVal, t.funcMem,
                                 who + "/func");
    if (!e.empty())
        return e;
    const auto &s = r.isa;
    if (s.blocks == 0 || s.fired > s.fetched || s.useful + s.moves > s.fired)
        return who + "/func: ISA statistics violate fetched >= fired >= "
                     "useful + moves";
    if (t.decodedFallbacks != 0)
        return who + "/func: pre-decoded engine fell back to the legacy "
                     "interpreter";
    if (!cycle_level)
        return "";
    const auto &u = r.uarch;
    if (!r.cycleLevel || u.fuelExhausted)
        return who + "/cycle: cycle-level run exhausted fuel";
    e = checkAgainst(mod, g.retVal, gmem, u.retVal, t.cycleMem,
                     who + "/cycle");
    if (!e.empty())
        return e;
    if (u.blocksCommitted != s.blocks)
        return who + "/cycle: committed " + std::to_string(u.blocksCommitted) +
               " blocks, functional " + std::to_string(s.blocks);
    u64 hops = 0;
    for (const auto &d : u.opnHops)
        hops += d.samples();
    if (u.cycles == 0 || hops != u.opnPackets + u.localBypasses ||
        u.avgBlocksInFlight > ucfg.numFrames + 1e-9 ||
        u.instsFired > u.instsFetched)
        return who + "/cycle: uarch statistics are inconsistent";
    return "";
}

// ---------------------------------------------------------------------
// Per-layer metrics shared by the workloads.
// ---------------------------------------------------------------------

/** Simulated work each layer did in one pass. */
struct Counters
{
    u64 goldenOps = 0;
    u64 riscInsts = 0;
    u64 oooCycles = 0;
    u64 compiles = 0, insts = 0, blocks = 0, regions = 0, retries = 0,
        spillRounds = 0;
    u64 funcInsts = 0, funcBlocks = 0, fallbacks = 0;
    u64 cycles = 0, committed = 0, flushed = 0, opnPackets = 0;
    u64 memAccesses = 0, l2Hits = 0, l2Misses = 0;
    u64 bankConflicts = 0, bankConflictCycles = 0;
    double ocnSum = 0;
    u64 ocnRuns = 0;
    u64 cacheMisses = 0, cacheBytes = 0;
    u64 guarded = 0;

    void
    addCore(const uarch::UarchResult &u)
    {
        cycles += u.cycles;
        committed += u.blocksCommitted;
        flushed += u.blocksFlushed;
        opnPackets += u.opnPackets;
    }

    void
    addTrips(const TripsOut &t)
    {
        const auto &c = t.run.compile;
        ++compiles;
        insts += c.totalInsts;
        blocks += c.blocks;
        regions += c.regions;
        retries += c.overflowRetries;
        spillRounds += c.spillRounds;
        funcInsts += t.run.isa.fired;
        funcBlocks += t.run.isa.blocks;
        fallbacks += t.decodedFallbacks;
        if (!t.run.cycleLevel)
            return;
        addCore(t.run.uarch);
        l2Hits += t.run.uarch.l2Hits;
        l2Misses += t.run.uarch.l2Misses;
        memAccesses += t.memAccesses;
        ocnSum += t.ocnOccupancy;
        ++ocnRuns;
    }

    Counters &
    operator+=(const Counters &o)
    {
        goldenOps += o.goldenOps;
        riscInsts += o.riscInsts;
        oooCycles += o.oooCycles;
        compiles += o.compiles;
        insts += o.insts;
        blocks += o.blocks;
        regions += o.regions;
        retries += o.retries;
        spillRounds += o.spillRounds;
        funcInsts += o.funcInsts;
        funcBlocks += o.funcBlocks;
        fallbacks += o.fallbacks;
        cycles += o.cycles;
        committed += o.committed;
        flushed += o.flushed;
        opnPackets += o.opnPackets;
        memAccesses += o.memAccesses;
        l2Hits += o.l2Hits;
        l2Misses += o.l2Misses;
        bankConflicts += o.bankConflicts;
        bankConflictCycles += o.bankConflictCycles;
        ocnSum += o.ocnSum;
        ocnRuns += o.ocnRuns;
        cacheMisses += o.cacheMisses;
        cacheBytes += o.cacheBytes;
        guarded += o.guarded;
        return *this;
    }
};

/** Every per-layer metric a pass's spans and counts determine. */
Metrics
layerMetrics(const SelfTimes &st, const Counters &c, unsigned lanes,
             double wall_s)
{
    auto ns = [&](const char *name) -> u64 {
        auto it = st.totalNs.find(name);
        return it == st.totalNs.end() ? 0 : it->second;
    };
    auto ms = [&](const char *name) { return ns(name) * 1e-6; };
    Metrics m;
    m["compiler.compile_ms"] = ms("compiler.compile");
    m["compiler.compiles"] = c.compiles;
    m["compiler.insts_emitted"] = c.insts;
    m["compiler.blocks_emitted"] = c.blocks;
    m["compiler.overflow_retries"] = c.retries;
    m["compiler.spill_rounds"] = c.spillRounds;
    m["compiler.retry_ratio"] = ratio(c.retries, c.regions);

    m["wir.build_ms"] = ms("wir.build") + ms("wir.generate");
    m["wir.golden_ms"] = ms("wir.golden");
    m["wir.golden_mops_per_s"] = perSecond(c.goldenOps, ns("wir.golden")) * 1e-6;

    m["risc.compile_ms"] = ms("risc.compile");
    m["risc.run_ms"] = ms("risc.run");
    m["risc.mips"] = perSecond(c.riscInsts, ns("risc.run")) * 1e-6;
    m["ooo.run_ms"] = ms("ooo.run");
    m["ooo.mcycles_per_s"] = perSecond(c.oooCycles, ns("ooo.run")) * 1e-6;

    m["trips.func_ms"] = ms("trips.func");
    m["trips.func_mips"] = perSecond(c.funcInsts, ns("trips.func")) * 1e-6;
    m["trips.blocks"] = c.funcBlocks;
    m["trips.decoded_fallbacks"] = c.fallbacks;

    m["uarch.cycle_ms"] = ms("uarch.cycle");
    m["uarch.ns_per_cycle"] = ratio(ns("uarch.cycle"), c.cycles);
    m["uarch.mcycles_per_s"] = perSecond(c.cycles, ns("uarch.cycle")) * 1e-6;
    m["uarch.blocks_committed"] = c.committed;
    m["uarch.blocks_flushed"] = c.flushed;
    m["uarch.flush_ratio"] = ratio(c.flushed, c.committed + c.flushed);
    m["uarch.opn_packets_per_cycle"] = ratio(c.opnPackets, c.cycles);

    m["mem.accesses"] = c.memAccesses;
    m["mem.access_ms"] = ms("mem.access");
    m["mem.ns_per_access"] = ratio(ns("mem.access"), c.memAccesses);
    m["mem.l2_miss_ratio"] = ratio(c.l2Misses, c.l2Hits + c.l2Misses);
    m["mem.bank_conflicts"] = c.bankConflicts;
    m["mem.bank_conflict_stall_cycles"] = c.bankConflictCycles;
    m["net.ocn_occupancy"] = ratio(c.ocnSum, c.ocnRuns);

    m["sim.cache.key_ms"] = ms("sim.key");
    m["sim.cache.lookup_ms"] = ms("sim.lookup");
    m["sim.cache.store_ms"] = ms("sim.store");
    m["sim.cache.misses"] = c.cacheMisses;
    m["sim.cache.bytes_written"] = c.cacheBytes;

    // Per-lane accounting: every lane (pool worker) spans the pass's
    // wall clock, split into self time per layer and time outside any
    // span (pool hand-off, idle tail), which the caller adds.
    const double laneNs = lanes * wall_s * 1e9;
    m["harness.pool_efficiency"] = ratio(ns("harness.task"), laneNs);
    auto guard = st.selfByName.find("harness.guard");
    m["harness.guard_overhead_us"] =
        guard == st.selfByName.end()
            ? 0
            : ratio(guard->second * 1e-3, c.guarded);

    for (const auto &layer : layerNames()) {
        auto it = st.selfNs.find(layer);
        double v = it == st.selfNs.end() ? 0 : it->second / (lanes * 1e6);
        m["self." + layer + "_ms"] = v;
        m["share." + layer] = ratio(v, wall_s * 1e3);
    }
    m["trace.wall_ms"] = wall_s * 1e3;
    return m;
}

// ---------------------------------------------------------------------
// figures: the paper's figure matrix through the campaign-cache flow.
// ---------------------------------------------------------------------

enum class Model : u8 {
    Golden,
    RiscGcc,
    RiscIcc,
    OooCore2,
    TripsCompiled,
    TripsHand
};

bool
isTrips(Model m)
{
    return m == Model::TripsCompiled || m == Model::TripsHand;
}

const char *
modelName(Model m)
{
    switch (m) {
      case Model::Golden: return "golden";
      case Model::RiscGcc: return "risc-gcc";
      case Model::RiscIcc: return "risc-icc";
      case Model::OooCore2: return "ooo-core2";
      case Model::TripsCompiled: return "trips-compiled";
      case Model::TripsHand: return "trips-hand";
    }
    return "?";
}

class Figures final : public BenchWorkload
{
  public:
    explicit Figures(const RunConfig &cfg) : cfg_(cfg) {}

    void
    setup() override
    {
        for (const auto &w : workloads::all()) {
            const u64 g = tasks_.size();
            for (Model m : {Model::Golden, Model::RiscGcc, Model::RiscIcc,
                            Model::OooCore2, Model::TripsCompiled}) {
                tasks_.push_back({&w, m});
                goldenOf_.push_back(g);
            }
            if (w.isSimple) {
                tasks_.push_back({&w, Model::TripsHand});
                goldenOf_.push_back(g);
            }
        }
        // Seeded order, cycle-level tasks first: they are the matrix's
        // long poles (equake alone is ~7% of it), and dispatching them
        // first keeps the makespan from depending on where the seed
        // happens to put them.
        for (bool cycle : {true, false}) {
            std::vector<u64> cls;
            for (u64 t = 0; t < tasks_.size(); ++t)
                if (isTrips(tasks_[t].model) == cycle)
                    cls.push_back(t);
            for (u64 i : permutation(cls.size(), harness::taskSeed(
                                                     cfg_.seed, cycle)))
                order_.push_back(cls[i]);
        }
        records_.resize(tasks_.size());
        cacheDir_ = cfg_.outDir + "/figures-cache";
        fs::remove_all(cacheDir_);
        fs::create_directories(cacheDir_);
        pool_ = std::make_unique<harness::SweepPool>(cfg_.workers);
    }

    void
    run(SpanRecorder *rec) override
    {
        // One task at a time from a shared cursor: the pool's chunked
        // deal hands a worker several consecutive tasks, which made the
        // wall clock swing by ~10% between task orders.
        std::atomic<u64> next{0};
        pool_->parallelFor(pool_->jobs(), [&](u64) {
            Lane *l = laneOf(rec);
            for (u64 i; (i = next.fetch_add(1)) < order_.size();)
                runTask(order_[i], l);
        });
    }

    unsigned lanes() const override { return pool_->jobs(); }

    PassResult
    finish(const std::vector<Span> &spans, double wall_s) override
    {
        PassResult p;
        p.attempted = tasks_.size();
        sim::ByteWriter w;
        Counters c;
        for (u64 t = 0; t < tasks_.size(); ++t) {
            const Task &task = tasks_[t];
            Record &r = records_[t];
            if (r.error.empty())
                r.error = check(t);
            if (!r.error.empty()) {
                ++p.failed;
                if (p.failures.size() < 5)
                    p.failures.push_back(task.w->name + "/" +
                                         modelName(task.model) + ": " +
                                         r.error);
            }
            w.str(task.w->name);
            w.u8v(static_cast<u8>(task.model));
            switch (task.model) {
              case Model::Golden:
                putGolden(w, r.golden);
                c.goldenOps += r.golden.dynOps;
                break;
              case Model::RiscGcc:
              case Model::RiscIcc:
                w.i64v(r.risc.retVal);
                putRiscCounters(w, r.risc.counters);
                c.riscInsts += r.risc.counters.insts;
                break;
              case Model::OooCore2:
                putOoo(w, r.ooo);
                c.oooCycles += r.ooo.cycles;
                break;
              case Model::TripsCompiled:
              case Model::TripsHand:
                putTripsRun(w, r.trips.run);
                c.addTrips(r.trips);
                c.cacheMisses += r.cacheMisses;
                p.simCycles += r.trips.run.uarch.cycles;
                p.simInsts += r.trips.run.uarch.instsFired;
                break;
            }
        }
        p.digest = digestHex(w);
        for (const auto &e : fs::directory_iterator(cacheDir_))
            c.cacheBytes += e.file_size();

        if (!spans.empty()) {
            p.layer = layerMetrics(selfTimes(spans), c, lanes(), wall_s);
            suiteMetrics(spans, p.layer);
            p.ledger = ledger(spans);
        }

        // Next pass: fresh records, cold cache.
        records_.clear();
        records_.resize(tasks_.size());
        fs::remove_all(cacheDir_);
        fs::create_directories(cacheDir_);
        return p;
    }

  private:
    struct Task
    {
        const workloads::Workload *w;
        Model model;
    };

    struct Record
    {
        std::string error;
        wir::Module mod;          ///< golden task: the module checked against
        MemImage mem;             ///< golden / RISC / OoO final image
        core::GoldenRun golden;
        RiscOut risc;
        ooo::OooResult ooo;
        TripsOut trips;
        u64 cacheMisses = 0;
    };

    void
    runTask(u64 t, Lane *l)
    {
        const Task &task = tasks_[t];
        Record &r = records_[t];
        Scope s(l, "harness.task", t);
        try {
            wir::Module mod;
            timed(l, "wir.build", t, [&] { task.w->build(mod); });
            switch (task.model) {
              case Model::Golden:
                r.golden = goldenFlow(mod, r.mem, l, t);
                r.mod = std::move(mod);
                break;
              case Model::RiscGcc:
                r.risc = riscFlow(mod, risc::RiscOptions::gcc(), r.mem, l, t);
                break;
              case Model::RiscIcc:
                r.risc = riscFlow(mod, risc::RiscOptions::icc(), r.mem, l, t);
                break;
              case Model::OooCore2:
                r.ooo = oooFlow(mod, r.mem, l, t);
                break;
              case Model::TripsCompiled:
              case Model::TripsHand:
                runTrips(mod, t, l, r);
                break;
            }
        } catch (const std::exception &e) {
            r.error = e.what();
        }
    }

    /** The Campaign::runTrips flow, cold: key, lookup (a miss),
     *  compile + FuncSim + CycleSim, store. */
    void
    runTrips(const wir::Module &mod, u64 t, Lane *l, Record &r)
    {
        const auto opts = tasks_[t].model == Model::TripsCompiled
                              ? compiler::Options::compiled()
                              : compiler::Options::hand();
        const uarch::UarchConfig ucfg;
        sim::CampaignCache cache(cacheDir_);
        auto key = timed(l, "sim.key", t, [&] {
            return sim::campaignKey(mod, opts, ucfg, true);
        });
        core::TripsRun cached;
        bool hit = timed(l, "sim.lookup", t,
                         [&] { return cache.lookup(key, cached); });
        if (hit) {
            r.error = "campaign cache hit on a cold cache";
            return;
        }
        r.trips = tripsFlow(mod, opts, true, ucfg, l, t);
        timed(l, "sim.store", t, [&] { cache.store(key, r.trips.run); });
        r.cacheMisses = cache.misses();
        if (cache.degradedWrites())
            r.error = "campaign cache store failed";
    }

    /** Oracle check of task @p t against its workload's golden run. */
    std::string
    check(u64 t) const
    {
        const Task &task = tasks_[t];
        const Record &r = records_[t];
        const Record &g = records_[goldenOf_[t]];
        if (!g.error.empty() && task.model != Model::Golden)
            return "golden run failed";
        const std::string who = modelName(task.model);
        switch (task.model) {
          case Model::Golden:
            return r.golden.fuelExhausted ? "golden exhausted fuel" : "";
          case Model::RiscGcc:
          case Model::RiscIcc:
            if (r.risc.fuelExhausted)
                return who + " exhausted fuel";
            return checkAgainst(g.mod, g.golden.retVal, g.mem,
                                r.risc.retVal, r.mem, who);
          case Model::OooCore2:
            if (r.ooo.fuelExhausted)
                return who + " exhausted fuel";
            return checkAgainst(g.mod, g.golden.retVal, g.mem, r.ooo.retVal,
                                r.mem, who);
          case Model::TripsCompiled:
          case Model::TripsHand:
            return checkTrips(g.mod, g.golden, g.mem, r.trips, true,
                              uarch::UarchConfig{}, who);
        }
        return "";
    }

    /** uarch.ns_per_cycle.<suite>: CycleSim host ns per simulated
     *  cycle, by workload suite. */
    void
    suiteMetrics(const std::vector<Span> &spans, Metrics &m) const
    {
        std::map<std::string, std::pair<u64, u64>> bySuite;  // ns, cycles
        for (const auto &w : workloads::all())
            bySuite[w.suite];
        for (const Span &s : spans) {
            if (std::string(s.name) != "uarch.cycle")
                continue;
            auto &acc = bySuite[tasks_[s.task].w->suite];
            acc.first += s.end - s.start;
            acc.second += records_[s.task].trips.run.uarch.cycles;
        }
        for (const auto &[suite, acc] : bySuite)
            m["uarch.ns_per_cycle." + suite] = ratio(acc.first, acc.second);
    }

    std::vector<LedgerRow>
    ledger(const std::vector<Span> &spans) const
    {
        std::vector<std::map<std::string, u64>> byTask(tasks_.size());
        for (const Span &s : spans)
            byTask[s.task][s.name] += s.end - s.start;
        std::vector<LedgerRow> rows;
        for (u64 t = 0; t < tasks_.size(); ++t) {
            const Record &r = records_[t];
            auto &ns = byTask[t];
            LedgerRow row;
            row.workload = tasks_[t].w->name;
            row.model = modelName(tasks_[t].model);
            row.suite = tasks_[t].w->suite;
            row.taskMs = ns["harness.task"] * 1e-6;
            row.compileMs = ns["compiler.compile"] * 1e-6;
            row.funcMips =
                perSecond(r.trips.run.isa.fired, ns["trips.func"]) * 1e-6;
            row.cycleMcps =
                perSecond(r.trips.run.uarch.cycles, ns["uarch.cycle"]) * 1e-6;
            row.memNsPerAccess = ratio(ns["mem.access"], r.trips.memAccesses);
            row.cycles = r.trips.run.uarch.cycles;
            rows.push_back(row);
        }
        return rows;
    }

    RunConfig cfg_;
    std::vector<Task> tasks_;      ///< canonical (registry) order
    std::vector<u64> goldenOf_;    ///< task -> its workload's golden task
    std::vector<u64> order_;       ///< seeded execution order
    std::vector<Record> records_;  ///< by canonical task index
    std::string cacheDir_;
    std::unique_ptr<harness::SweepPool> pool_;
};

// ---------------------------------------------------------------------
// fuzz: a seeded slice of generated programs, each guarded by a
// watchdog and cross-checked across every model like diffOne.
// ---------------------------------------------------------------------

constexpr u64 kFuzzPrograms = 2000;
constexpr u64 kFuzzDeadlineMs = 20000;

class Fuzz final : public BenchWorkload
{
  public:
    explicit Fuzz(const RunConfig &cfg) : cfg_(cfg) {}

    void
    setup() override
    {
        seeds_.resize(kFuzzPrograms);
        for (u64 i = 0; i < kFuzzPrograms; ++i)
            seeds_[i] = harness::taskSeed(cfg_.seed, i);
        records_.resize(kFuzzPrograms);
        gcfg_.timeoutMs = kFuzzDeadlineMs;
        pool_ = std::make_unique<harness::SweepPool>(cfg_.workers);
    }

    void
    run(SpanRecorder *rec) override
    {
        pool_->parallelFor(seeds_.size(),
                           [&](u64 i) { runTask(i, laneOf(rec)); });
    }

    unsigned lanes() const override { return pool_->jobs(); }

    PassResult
    finish(const std::vector<Span> &spans, double wall_s) override
    {
        PassResult p;
        p.attempted = seeds_.size();
        trips::sim::Fnv128 h;
        Counters c;
        for (u64 i = 0; i < seeds_.size(); ++i) {
            const Record &r = records_[i];
            if (!r.error.empty()) {
                ++p.failed;
                if (p.failures.size() < 5)
                    p.failures.push_back("program seed " +
                                         std::to_string(seeds_[i]) + ": " +
                                         r.error);
            }
            h.update(r.stats.data(), r.stats.size());
            c += r.counters;
            p.simCycles += r.cycles;
            p.simInsts += r.insts;
        }
        p.digest = h.hex();
        if (!spans.empty())
            p.layer = layerMetrics(selfTimes(spans), c, lanes(), wall_s);
        records_.clear();
        records_.resize(seeds_.size());
        return p;
    }

  private:
    struct Record
    {
        std::string error;
        std::vector<u8> stats;  ///< serialized simulated statistics
        Counters counters;
        u64 cycles = 0;
        u64 insts = 0;
    };

    void
    runTask(u64 i, Lane *parent)
    {
        Scope s(parent, "harness.task", i);
        // The guard runs the program on a watchdog thread. Everything
        // that thread touches is owned by the closure, so a timed-out
        // run can finish (against its fuel bounds) after we move on.
        auto out = std::make_shared<Record>();
        auto child = parent ? std::make_shared<Lane>() : nullptr;
        harness::TaskOutcome res;
        {
            Scope g(parent, "harness.guard", i);
            const u64 seed = seeds_[i];
            res = harness::runGuarded(gcfg_, [out, child, seed, i] {
                program(seed, i, child.get(), *out);
            });
            if (res.ok && parent)
                parent->adopt(*child);
        }
        if (res.ok) {
            records_[i] = std::move(*out);
        } else {
            records_[i].error = res.error.str();
        }
        records_[i].counters.guarded = 1;
    }

    /** One program through every model, then the oracle. */
    static void
    program(u64 seed, u64 task, Lane *l, Record &r)
    {
        const uarch::UarchConfig ucfg;
        auto mod = timed(l, "wir.generate", task,
                         [&] { return harness::generate(seed); });
        MemImage gmem, gccMem, iccMem;
        auto g = goldenFlow(mod, gmem, l, task);
        auto gcc = riscFlow(mod, risc::RiscOptions::gcc(), gccMem, l, task);
        auto icc = riscFlow(mod, risc::RiscOptions::icc(), iccMem, l, task);
        auto tc = tripsFlow(mod, compiler::Options::compiled(), true, ucfg,
                            l, task);
        auto th = tripsFlow(mod, compiler::Options::hand(), false, ucfg, l,
                            task);

        Scope s(l, "harness.oracle", task);
        std::string e;
        if (g.fuelExhausted)
            e = "golden exhausted fuel";
        if (e.empty() && (gcc.fuelExhausted || icc.fuelExhausted))
            e = "risc exhausted fuel";
        if (e.empty())
            e = checkAgainst(mod, g.retVal, gmem, gcc.retVal, gccMem,
                             "risc-gcc");
        if (e.empty())
            e = checkAgainst(mod, g.retVal, gmem, icc.retVal, iccMem,
                             "risc-icc");
        if (e.empty())
            e = checkTrips(mod, g, gmem, tc, true, ucfg, "trips-compiled");
        if (e.empty())
            e = checkTrips(mod, g, gmem, th, false, ucfg, "trips-hand");
        r.error = e;

        sim::ByteWriter w;
        w.u64v(seed);
        putGolden(w, g);
        for (const RiscOut *o : {&gcc, &icc}) {
            w.i64v(o->retVal);
            putRiscCounters(w, o->counters);
        }
        putTripsRun(w, tc.run);
        putTripsRun(w, th.run);
        r.stats = w.data();

        r.counters.goldenOps = g.dynOps;
        r.counters.riscInsts = gcc.counters.insts + icc.counters.insts;
        r.counters.addTrips(tc);
        r.counters.addTrips(th);
        r.cycles = tc.run.uarch.cycles;
        r.insts = tc.run.uarch.instsFired;
    }

    RunConfig cfg_;
    std::vector<u64> seeds_;
    std::vector<Record> records_;
    harness::GuardConfig gcfg_;
    std::unique_ptr<harness::SweepPool> pool_;
};

// ---------------------------------------------------------------------
// chip_mix: 4-core ChipSim under the relaxed-quantum parallel engine.
// ---------------------------------------------------------------------

struct Mix
{
    const char *name;
    std::vector<const char *> workloads;
};

/** The CI gate's unbalanced mix (one long core caps the speedup) and
 *  a balanced one (four cores of similar length). */
const std::vector<Mix> kMixes = {
    {"unbalanced", {"vadd", "ct", "autocor", "8b10b"}},
    {"balanced", {"gzip", "vortex", "vpr", "twolf"}},
};
constexpr unsigned kChipCores = 4;

class ChipMix final : public BenchWorkload
{
  public:
    explicit ChipMix(const RunConfig &cfg) : cfg_(cfg)
    {
        ccfg_.numCores = kChipCores;
        ccfg_.engine = uarch::ChipEngine::Parallel;
        ccfg_.threads = cfg.chipThreads;
    }

    void
    setup() override
    {
        slots_.resize(kMixes.size());
        for (size_t m = 0; m < kMixes.size(); ++m) {
            auto perm = permutation(kChipCores, harness::taskSeed(cfg_.seed, m));
            for (unsigned k = 0; k < kChipCores; ++k) {
                Slot &s = slots_[m][k];
                s.w = &workloads::find(kMixes[m].workloads[perm[k]]);
                s.w->build(s.mod);
                s.prog = compiler::compileToTrips(s.mod,
                                                  compiler::Options::compiled());
            }
        }
        results_.resize(kMixes.size());
        traces_.resize(kMixes.size());
    }

    void
    run(SpanRecorder *rec) override
    {
        Lane *l = laneOf(rec);
        for (size_t m = 0; m < kMixes.size(); ++m) {
            auto &slots = slots_[m];
            timed(l, "wir.load", m, [&] {
                for (auto &s : slots) {
                    s.mem = MemImage();
                    wir::Interp::loadGlobals(s.mod, s.mem);
                }
            });
            Scope span(l, "chip.run", m);
            std::vector<uarch::ChipJob> jobs;
            for (auto &s : slots)
                jobs.push_back({&s.prog, &s.mem, nullptr});
            uarch::ChipSim chip(jobs, ccfg_);
            // Traced passes count quanta and reclones from the engine's
            // own trace; the cores' block traces stay off.
            std::unique_ptr<obs::TraceSink> sink;
            std::unique_ptr<obs::ChipObs> cobs;
            if (l) {
                sink = std::make_unique<obs::TraceSink>();
                cobs = std::make_unique<obs::ChipObs>(kChipCores, sink.get(),
                                                      false, 0, false);
                for (unsigned k = 0; k < kChipCores; ++k)
                    cobs->core(k)->trace = nullptr;
                chip.attachObs(*cobs);
            }
            results_[m] = chip.run();
            traces_[m] = std::move(sink);
        }
    }

    unsigned lanes() const override { return 1; }

    PassResult
    finish(const std::vector<Span> &spans, double wall_s) override
    {
        if (golden_.empty())
            runGolden();
        PassResult p;
        sim::ByteWriter w;
        Counters c;
        for (size_t m = 0; m < kMixes.size(); ++m) {
            const auto &cr = results_[m];
            w.str(kMixes[m].name);
            for (const auto &s : slots_[m])
                w.str(s.w->name);
            putChip(w, cr);
            for (unsigned k = 0; k < kChipCores; ++k) {
                const Slot &s = slots_[m][k];
                const auto &u = cr.cores.at(k);
                ++p.attempted;
                std::string who = std::string(kMixes[m].name) + "/core" +
                                  std::to_string(k) + "(" + s.w->name + ")";
                std::string e =
                    u.fuelExhausted
                        ? who + " exhausted fuel"
                        : checkAgainst(s.mod, golden_[m][k].retVal,
                                       goldenMem_[m][k], u.retVal, s.mem, who);
                if (!e.empty()) {
                    ++p.failed;
                    if (p.failures.size() < 5)
                        p.failures.push_back(e);
                }
                c.addCore(u);
                p.simCycles += u.cycles;
                p.simInsts += u.instsFired;
            }
            c.l2Hits += cr.uncore.l2Hits;
            c.l2Misses += cr.uncore.l2Misses;
            c.bankConflicts += cr.uncore.bankConflicts;
            c.bankConflictCycles += cr.uncore.bankConflictCycles;
            c.ocnSum += cr.ocnOccupancy;
            ++c.ocnRuns;
        }
        p.digest = digestHex(w);
        if (!spans.empty()) {
            p.layer = layerMetrics(selfTimes(spans), c, lanes(), wall_s);
            for (const Span &s : spans) {
                if (std::string(s.name) == "chip.run")
                    p.layer[mixKey(s.task, "run_ms")] = (s.end - s.start) * 1e-6;
            }
            for (size_t m = 0; m < kMixes.size(); ++m)
                countEngineEvents(m, p.layer);
        }
        return p;
    }

    /** The serial-engine reference and each core's solo run, checked
     *  against the last pass's chip cores. */
    Metrics
    extras(SpanRecorder &rec, PassResult &p) override
    {
        Lane &l = rec.lane();
        Metrics out;
        Counters c;
        std::map<std::string, std::pair<u64, u64>> bySuite;  // ns, cycles
        for (size_t m = 0; m < kMixes.size(); ++m) {
            auto &slots = slots_[m];
            std::vector<MemImage> mems(kChipCores);
            std::vector<uarch::ChipJob> jobs;
            for (unsigned k = 0; k < kChipCores; ++k) {
                wir::Interp::loadGlobals(slots[k].mod, mems[k]);
                jobs.push_back({&slots[k].prog, &mems[k], nullptr});
            }
            uarch::ChipConfig scfg = ccfg_;
            scfg.engine = uarch::ChipEngine::Serial;
            u64 t0 = nowNs();
            {
                Scope s(&l, "chip.serial", m);
                uarch::ChipSim chip(jobs, scfg);
                chip.run();
            }
            out[mixKey(m, "serial_ms")] = (nowNs() - t0) * 1e-6;

            std::vector<double> soloMs;
            for (unsigned k = 0; k < kChipCores; ++k) {
                const Slot &s = slots[k];
                MemImage mem;
                wir::Interp::loadGlobals(s.mod, mem);
                const u64 task = m * kChipCores + k;
                u64 s0 = nowNs();
                uarch::UarchResult solo;
                {
                    Scope span(&l, "uarch.cycle", task);
                    mem::MemorySystem msys(uarch::uncoreConfig(ccfg_.core));
                    TimingPort port(msys);
                    uarch::CycleSim csim(s.prog, mem, ccfg_.core, port, 0);
                    solo = csim.run();
                    c.memAccesses += port.accesses();
                    l.aggregate("mem.access", task, port.ns());
                }
                const u64 soloNs = nowNs() - s0;
                soloMs.push_back(soloNs * 1e-6);
                bySuite[s.w->suite].first += soloNs;
                bySuite[s.w->suite].second += solo.cycles;
                c.addCore(solo);

                const auto &u = results_[m].cores.at(k);
                std::string who = std::string(kMixes[m].name) + "/core" +
                                  std::to_string(k) + " vs solo";
                std::string e = checkAgainst(s.mod, solo.retVal, mem,
                                             u.retVal, s.mem, who);
                if (e.empty() && u.blocksCommitted != solo.blocksCommitted)
                    e = who + ": committed blocks differ";
                ++p.attempted;
                if (!e.empty()) {
                    ++p.failed;
                    p.failures.push_back(e);
                }
            }
            out[mixKey(m, "solo_ms_sum")] =
                std::accumulate(soloMs.begin(), soloMs.end(), 0.0);
            out[mixKey(m, "solo_ms_max")] =
                *std::max_element(soloMs.begin(), soloMs.end());
            out[mixKey(m, "amdahl_bound")] = amdahlBound(soloMs);
        }
        // The solo runs give chip_mix its CycleSim and uncore host-time
        // figures: inside ChipSim the engine's threads hide them.
        Metrics soloLayers = layerMetrics(selfTimes(rec.spans()), c, 1, 1.0);
        for (const char *k : {"uarch.cycle_ms", "uarch.ns_per_cycle",
                              "uarch.mcycles_per_s", "mem.accesses",
                              "mem.access_ms", "mem.ns_per_access"})
            out[k] = soloLayers[k];
        for (const auto &[suite, acc] : bySuite)
            out["uarch.ns_per_cycle." + suite] = ratio(acc.first, acc.second);
        return out;
    }

    void
    finalize(Metrics &m) override
    {
        for (size_t i = 0; i < kMixes.size(); ++i) {
            double speedup =
                ratio(m[mixKey(i, "serial_ms")], m[mixKey(i, "run_ms")]);
            double cap = std::min<double>(m[mixKey(i, "amdahl_bound")],
                                          ccfg_.threads);
            m[mixKey(i, "speedup_vs_serial")] = speedup;
            m[mixKey(i, "efficiency")] = ratio(speedup, cap);
        }
    }

  private:
    struct Slot
    {
        const workloads::Workload *w = nullptr;
        wir::Module mod;
        isa::Program prog;
        MemImage mem;  ///< the last chip run's final image
    };

    static std::string
    mixKey(size_t m, const char *what)
    {
        return std::string("chip.") + kMixes[m].name + "." + what;
    }

    void
    runGolden()
    {
        golden_.assign(kMixes.size(), {});
        goldenMem_.assign(kMixes.size(), {});
        for (size_t m = 0; m < kMixes.size(); ++m) {
            golden_[m].resize(kChipCores);
            goldenMem_[m].resize(kChipCores);
            for (unsigned k = 0; k < kChipCores; ++k)
                golden_[m][k] = goldenFlow(slots_[m][k].mod, goldenMem_[m][k],
                                           nullptr, 0);
        }
    }

    /** chip.<mix>.quanta and .reclones from the engine trace. */
    void
    countEngineEvents(size_t m, Metrics &out) const
    {
        const std::string path = cfg_.outDir + "/chip-" + kMixes[m].name +
                                 "-engine.json";
        double quanta = 0, reclones = 0;
        if (traces_[m] && traces_[m]->writeFile(path)) {
            std::ifstream in(path);
            std::stringstream ss;
            ss << in.rdbuf();
            const std::string text = ss.str();
            auto count = [&](const std::string &needle) {
                double n = 0;
                for (size_t at = text.find(needle); at != std::string::npos;
                     at = text.find(needle, at + 1))
                    ++n;
                return n;
            };
            quanta = count("\"name\":\"quantum\"");
            reclones = count("\"name\":\"reclone\"");
        }
        out[mixKey(m, "quanta")] = quanta;
        out[mixKey(m, "reclones")] = reclones;
    }

    RunConfig cfg_;
    uarch::ChipConfig ccfg_;
    std::vector<std::array<Slot, kChipCores>> slots_;
    std::vector<uarch::ChipResult> results_;
    std::vector<std::unique_ptr<obs::TraceSink>> traces_;
    std::vector<std::vector<core::GoldenRun>> golden_;
    std::vector<std::vector<MemImage>> goldenMem_;
};

} // namespace

const std::vector<std::string> &
layerNames()
{
    static const std::vector<std::string> names = {
        "wir", "compiler", "trips", "uarch", "mem",
        "risc", "ooo", "sim", "harness", "chip"};
    return names;
}

const std::vector<std::string> &
mixNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> n;
        for (const auto &m : kMixes)
            n.push_back(m.name);
        return n;
    }();
    return names;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"figures", "fuzz",
                                                   "chip_mix"};
    return names;
}

std::unique_ptr<BenchWorkload>
makeWorkload(const std::string &name, const RunConfig &cfg)
{
    if (name == "figures")
        return std::make_unique<Figures>(cfg);
    if (name == "fuzz")
        return std::make_unique<Fuzz>(cfg);
    if (name == "chip_mix")
        return std::make_unique<ChipMix>(cfg);
    return nullptr;
}

} // namespace perfbench
