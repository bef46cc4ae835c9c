#include "harness/diff.hh"

#include <algorithm>
#include <atomic>
#include <sstream>

#include "core/machines.hh"
#include "obs/progress.hh"
#include "sim/checkpoint.hh"
#include "uarch/chip_sim.hh"
#include "wir/interp.hh"

namespace trips::harness {

std::string
compareDataSegments(const wir::Module &mod, const MemImage &golden,
                    const MemImage &other, const char *who)
{
    // Only the data segment is comparable: the compiled models also
    // write their call stacks (golden executes calls natively), so a
    // whole-image comparison would always differ.
    for (const auto &g : mod.globals) {
        for (u64 i = 0; i < g.size; ++i) {
            u8 a = golden.read8(g.addr + i);
            u8 b = other.read8(g.addr + i);
            if (a != b) {
                std::ostringstream os;
                os << who << " memory diverges at " << g.name << "+" << i
                   << " (addr 0x" << std::hex << g.addr + i << std::dec
                   << "): golden=" << static_cast<unsigned>(a)
                   << " got=" << static_cast<unsigned>(b);
                return os.str();
            }
        }
    }
    return "";
}

namespace {

std::string
checkRetVal(i64 golden, i64 got, const char *who)
{
    if (golden == got)
        return "";
    std::ostringstream os;
    os << who << " retVal " << got << " != golden " << golden;
    return os.str();
}

/** ISA-stat sanity on a functional TRIPS run. */
std::string
checkIsaInvariants(const core::TripsRun &r, const char *who)
{
    std::ostringstream os;
    const auto &s = r.isa;
    if (s.blocks == 0) {
        os << who << ": no blocks committed";
    } else if (s.fired > s.fetched) {
        os << who << ": fired " << s.fired << " > fetched " << s.fetched;
    } else if (s.useful + s.moves > s.fired) {
        os << who << ": useful+moves " << s.useful + s.moves
           << " > fired " << s.fired;
    } else if (s.meanBlockSize() > 128.0) {
        os << who << ": mean block size " << s.meanBlockSize()
           << " exceeds the 128-instruction architectural limit";
    }
    return os.str();
}

/** Cycle-level self-consistency (the class-total balance and
 *  occupancy bounds the paper's Figs. 6 and 8 are built from). */
std::string
checkUarchInvariants(const uarch::UarchResult &u,
                     const uarch::UarchConfig &cfg)
{
    std::ostringstream os;
    u64 hopTotal = 0;
    for (const auto &d : u.opnHops)
        hopTotal += d.samples();
    if (u.fuelExhausted) {
        os << "cycle-level fuel exhausted after " << u.cycles << " cycles";
    } else if (u.cycles == 0 || u.blocksCommitted == 0) {
        os << "cycle-level committed nothing";
    } else if (hopTotal != u.opnPackets + u.localBypasses) {
        os << "OPN class totals " << hopTotal << " != packets "
           << u.opnPackets << " + bypasses " << u.localBypasses;
    } else if (u.avgBlocksInFlight > cfg.numFrames + 1e-9) {
        os << "avg blocks in flight " << u.avgBlocksInFlight
           << " exceeds " << cfg.numFrames << " frames";
    } else if (u.peakInstsInFlight > static_cast<u64>(cfg.numFrames) * 128) {
        os << "peak insts in flight " << u.peakInstsInFlight
           << " exceeds window capacity";
    } else if (u.instsFired > u.instsFetched) {
        os << "cycle-level fired " << u.instsFired << " > fetched "
           << u.instsFetched;
    }
    return os.str();
}

} // namespace

std::string
DiffResult::reproCmd() const
{
    std::ostringstream os;
    os << "build/sweep_main " << (chip ? "--chip " : "") << "--repro "
       << seed;
    if (chip) {
        if (chipSeeds.size() > 2) {
            os << " --seeds ";
            for (size_t i = 0; i < chipSeeds.size(); ++i)
                os << (i ? "," : "") << chipSeeds[i];
        } else {
            os << " --seed2 " << seedB;
        }
        if (chipEngine == uarch::ChipEngine::Parallel)
            os << " --parallel --quantum " << chipQuantum;
    }
    ShapeConfig dflt;
    for (unsigned s = 0; s <= ShapeConfig::SHRINK_STEPS; ++s) {
        if (dflt.shrunk(s).describe() == shape.describe()) {
            if (s)
                os << " --shrink " << s;
            return os.str();
        }
    }
    // Not a shrink-ladder rung (a custom sweep shape): spell out the
    // exact flags so the pasted command regenerates this program, not
    // the default-shape one.
    os << " " << shape.cliFlags();
    return os.str();
}

DiffResult
diffOne(u64 seed, const ShapeConfig &shape, const DiffOptions &opts)
{
    DiffResult res;
    res.seed = seed;
    res.shape = shape;

    wir::Module mod = generate(seed, shape);

    auto fail = [&res](std::string why) {
        if (res.ok && !why.empty()) {
            res.ok = false;
            res.divergence = std::move(why);
        }
        return !res.ok;
    };

    MemImage goldenMem;
    core::GoldenRun golden = core::runGolden(mod, &goldenMem);
    res.goldenDynOps = golden.dynOps;
    if (golden.fuelExhausted) {
        // Valid-by-construction programs terminate; hitting fuel is a
        // generator bug, not a model divergence.
        fail("golden run exhausted fuel (generator termination bug)");
        return res;
    }

    // RISC baselines.
    {
        MemImage m;
        auto r = core::runRisc(mod, risc::RiscOptions::gcc(), &m);
        if (r.fuelExhausted && fail("risc/gcc exhausted fuel"))
            return res;
        if (fail(checkRetVal(golden.retVal, r.retVal, "risc/gcc")) ||
            fail(compareDataSegments(mod, goldenMem, m, "risc/gcc")))
            return res;
    }
    if (opts.iccPreset) {
        MemImage m;
        auto r = core::runRisc(mod, risc::RiscOptions::icc(), &m);
        if (r.fuelExhausted && fail("risc/icc exhausted fuel"))
            return res;
        if (fail(checkRetVal(golden.retVal, r.retVal, "risc/icc")) ||
            fail(compareDataSegments(mod, goldenMem, m, "risc/icc")))
            return res;
    }

    // TRIPS functional (+ cycle-level), compiled preset.
    {
        MemImage fm, cm;
        auto copts = compiler::Options::compiled();
        copts.verifyTil = opts.verifyTil;
        auto r = core::runTrips(mod, copts, opts.cycleLevel, opts.ucfg,
                                &fm, &cm);
        if (r.funcFuelExhausted && fail("trips functional exhausted fuel"))
            return res;
        if (fail(checkRetVal(golden.retVal, r.retVal, "trips/func")) ||
            fail(compareDataSegments(mod, goldenMem, fm, "trips/func")) ||
            fail(checkIsaInvariants(r, "trips/func")))
            return res;
        if (opts.cycleLevel) {
            res.cycles = r.uarch.cycles;
            if (fail(checkRetVal(golden.retVal, r.uarch.retVal,
                                 "trips/cycle")) ||
                fail(compareDataSegments(mod, goldenMem, cm, "trips/cycle")) ||
                fail(checkUarchInvariants(r.uarch, opts.ucfg)))
                return res;
        }
    }

    // TRIPS functional, hand preset (different region formation).
    if (opts.handPreset) {
        MemImage fm;
        auto hopts = compiler::Options::hand();
        hopts.verifyTil = opts.verifyTil;
        auto r = core::runTrips(mod, hopts, false, opts.ucfg, &fm);
        if (r.funcFuelExhausted && fail("trips/hand exhausted fuel"))
            return res;
        if (fail(checkRetVal(golden.retVal, r.retVal, "trips/hand")) ||
            fail(compareDataSegments(mod, goldenMem, fm, "trips/hand")))
            return res;
    }

    return res;
}

DiffResult
diffChipPair(u64 seed_a, u64 seed_b, const ShapeConfig &shape,
             const DiffOptions &opts)
{
    return diffChipMix({seed_a, seed_b}, shape, opts);
}

DiffResult
diffChipMix(const std::vector<u64> &seeds, const ShapeConfig &shape,
            const DiffOptions &opts)
{
    const size_t n = seeds.size();
    DiffResult res;
    res.chip = true;
    res.chipSeeds = seeds;
    res.seed = n > 0 ? seeds[0] : 0;
    res.seedB = n > 1 ? seeds[1] : 0;
    res.chipEngine = opts.chipEngine;
    res.chipQuantum = opts.chipQuantum;
    res.shape = shape;

    auto fail = [&res](std::string why) {
        if (res.ok && !why.empty()) {
            res.ok = false;
            res.divergence = std::move(why);
        }
        return !res.ok;
    };

    if (n < 1 || n > 16) {
        fail("chip mix needs 1..16 seeds");
        return res;
    }

    std::vector<wir::Module> mods;
    mods.reserve(n);
    for (u64 s : seeds)
        mods.push_back(generate(s, shape));

    // Solo references: each program alone on a single core with the
    // same per-core config the chip will use. The compiled Programs
    // are reused for the chip run, so solo vs chip really isolates
    // the shared uncore (and, under Parallel, the stepping engine).
    auto copts = compiler::Options::compiled();
    copts.verifyTil = opts.verifyTil;
    std::vector<isa::Program> progs;
    progs.reserve(n);
    for (const auto &m : mods)
        progs.push_back(compiler::compileToTrips(m, copts));
    std::vector<MemImage> soloMem(n);
    std::vector<uarch::UarchResult> solo(n);
    for (size_t c = 0; c < n; ++c) {
        wir::Interp::loadGlobals(mods[c], soloMem[c]);
        uarch::CycleSim sim(progs[c], soloMem[c], opts.ucfg);
        solo[c] = sim.run();
        if (solo[c].fuelExhausted) {
            std::ostringstream os;
            os << "solo core " << c << " exhausted fuel";
            fail(os.str());
            return res;
        }
    }

    uarch::ChipConfig ccfg;
    ccfg.core = opts.ucfg;
    ccfg.numCores = static_cast<unsigned>(n);
    ccfg.engine = opts.chipEngine;
    ccfg.quantum = opts.chipQuantum;
    ccfg.threads = opts.chipThreads;

    auto runChip = [&](std::vector<MemImage> &mems) {
        std::vector<uarch::ChipJob> jobs(n);
        for (size_t c = 0; c < n; ++c) {
            wir::Interp::loadGlobals(mods[c], mems[c]);
            jobs[c] = {&progs[c], &mems[c]};
        }
        uarch::ChipSim chip(jobs, ccfg);
        return chip.run();
    };

    std::vector<MemImage> chipMem(n);
    auto cr = runChip(chipMem);
    res.cycles = cr.cycles;

    for (size_t c = 0; c < n; ++c) {
        std::ostringstream who;
        who << "chip/core" << c;
        const auto &u = cr.cores[c];
        if (u.fuelExhausted && fail(who.str() + " exhausted fuel"))
            return res;
        if (fail(checkRetVal(solo[c].retVal, u.retVal,
                             who.str().c_str())) ||
            fail(compareDataSegments(mods[c], soloMem[c], chipMem[c],
                                     who.str().c_str())) ||
            fail(checkUarchInvariants(u, opts.ucfg)))
            return res;
        // Committed work is architectural: a core must commit exactly
        // as many blocks beside its neighbors as it does alone.
        if (u.blocksCommitted != solo[c].blocksCommitted) {
            std::ostringstream os;
            os << who.str() << " committed " << u.blocksCommitted
               << " blocks != solo " << solo[c].blocksCommitted;
            if (fail(os.str()))
                return res;
        }
    }

    // The relaxed-quantum engine's determinism pin: an identical
    // (mix, config, quantum) must replay to the cycle and counter.
    if (opts.chipEngine == uarch::ChipEngine::Parallel) {
        std::vector<MemImage> replayMem(n);
        auto cr2 = runChip(replayMem);
        std::ostringstream os;
        if (cr2.cycles != cr.cycles) {
            os << "parallel replay cycles " << cr2.cycles << " != "
               << cr.cycles;
        } else if (cr2.uncore.requests != cr.uncore.requests ||
                   cr2.uncore.l2Hits != cr.uncore.l2Hits ||
                   cr2.uncore.bankConflicts != cr.uncore.bankConflicts ||
                   cr2.uncore.bankConflictCycles !=
                       cr.uncore.bankConflictCycles ||
                   cr2.ocn.totalPackets() != cr.ocn.totalPackets() ||
                   cr2.ocn.flitHops != cr.ocn.flitHops) {
            os << "parallel replay diverged on uncore statistics";
        } else {
            for (size_t c = 0; c < n; ++c) {
                if (cr2.cores[c].cycles != cr.cores[c].cycles) {
                    os << "parallel replay core " << c << " cycles "
                       << cr2.cores[c].cycles << " != "
                       << cr.cores[c].cycles;
                    break;
                }
            }
        }
        if (fail(os.str()))
            return res;
    }
    return res;
}

CkptOracleResult
diffCheckpointRestore(const wir::Module &mod, u64 every,
                      const compiler::Options &copts,
                      const uarch::UarchConfig &ucfg,
                      unsigned maxCheckpoints)
{
    CkptOracleResult res;
    if (every == 0) {
        res.ok = false;
        res.divergence = "checkpoint interval must be > 0 blocks";
        return res;
    }
    auto prog = compiler::compileToTrips(mod, copts);

    // Straight reference runs.
    MemImage funcMem;
    wir::Interp::loadGlobals(mod, funcMem);
    sim::FuncSim straightFunc(prog, funcMem);
    auto sf = straightFunc.run();
    MemImage cycleMem;
    wir::Interp::loadGlobals(mod, cycleMem);
    uarch::CycleSim straightCycle(prog, cycleMem, ucfg);
    auto sc = straightCycle.run();
    res.totalBlocks = straightFunc.blocksExecuted();
    if (sf.fuelExhausted || sc.fuelExhausted) {
        res.ok = false;
        res.divergence = "straight run exhausted fuel";
        return res;
    }

    auto isaBytes = [](const sim::IsaStats &s) {
        sim::ByteWriter w;
        sim::putIsaStats(w, s);
        return w.data();
    };

    // A walker functional sim pauses at each boundary and snapshots.
    MemImage walkMem;
    wir::Interp::loadGlobals(mod, walkMem);
    sim::FuncSim walker(prog, walkMem);
    for (unsigned k = 0; k < maxCheckpoints; ++k) {
        walker.run(every);
        if (walker.halted())
            break;
        sim::Checkpoint ck;
        walker.snapshot(ck);
        ++res.checkpoints;
        auto fail = [&](const std::string &why) {
            res.ok = false;
            if (res.divergence.empty())
                res.divergence = "checkpoint @" +
                                 std::to_string(ck.blocksExecuted) +
                                 " blocks: " + why;
        };

        // Exercise the byte format on every boundary.
        sim::Checkpoint rck =
            sim::deserializeCheckpoint(sim::serializeCheckpoint(ck));
        if (rck.nextBlock != ck.nextBlock ||
            rck.blocksExecuted != ck.blocksExecuted ||
            rck.regfile != ck.regfile || rck.callStack != ck.callStack ||
            isaBytes(rck.stats) != isaBytes(ck.stats))
            fail("serialize/deserialize round trip altered state");
        std::string md =
            sim::diffMemImages(ck.mem, rck.mem, "round-trip mem");
        if (!md.empty())
            fail(md);

        // Restored functional run must equal the straight one exactly.
        MemImage rMem;
        sim::FuncSim rf(prog, rMem);
        rf.restore(rck);
        auto rr = rf.run();
        if (rr.fuelExhausted)
            fail("restored functional run exhausted fuel");
        if (rr.retVal != sf.retVal)
            fail("restored functional retVal " +
                 std::to_string(rr.retVal) + " != straight " +
                 std::to_string(sf.retVal));
        if (rf.blocksExecuted() != straightFunc.blocksExecuted())
            fail("restored functional committed " +
                 std::to_string(rf.blocksExecuted()) +
                 " blocks != straight " +
                 std::to_string(straightFunc.blocksExecuted()));
        if (isaBytes(rr.stats) != isaBytes(sf.stats))
            fail("restored functional ISA stats differ from straight");
        md = sim::diffMemImages(funcMem, rMem, "restored functional mem");
        if (!md.empty())
            fail(md);

        // Warm-started cycle run must match the straight cycle run
        // architecturally (timing legitimately differs: cold caches).
        MemImage wMem = rck.mem;
        uarch::CycleSim warm(prog, wMem, ucfg);
        warm.warmStart(rck);
        auto wr = warm.run();
        if (wr.fuelExhausted)
            fail("warm cycle run exhausted fuel");
        if (wr.retVal != sc.retVal)
            fail("warm cycle retVal " + std::to_string(wr.retVal) +
                 " != straight " + std::to_string(sc.retVal));
        if (rck.blocksExecuted + wr.blocksCommitted != sc.blocksCommitted)
            fail("warm cycle committed " + std::to_string(ck.blocksExecuted)
                 + "+" + std::to_string(wr.blocksCommitted) +
                 " blocks != straight " +
                 std::to_string(sc.blocksCommitted));
        md = sim::diffMemImages(cycleMem, wMem, "warm cycle mem");
        if (!md.empty())
            fail(md);
        if (!res.ok)
            return res;
    }
    return res;
}

DiffResult
minimizeDivergence(const DiffResult &bad, const DiffOptions &opts)
{
    if (bad.ok)
        return bad;
    DiffResult best = bad;
    for (unsigned step = 1; step <= ShapeConfig::SHRINK_STEPS; ++step) {
        DiffResult cand;
        try {
            cand = bad.chip
                ? diffChipMix(bad.chipSeeds.empty()
                                  ? std::vector<u64>{bad.seed, bad.seedB}
                                  : bad.chipSeeds,
                              bad.shape.shrunk(step), opts)
                : diffOne(bad.seed, bad.shape.shrunk(step), opts);
        } catch (const TripsError &) {
            // A rung that cannot even run (e.g. the shrunk shape
            // still exceeds a compiler capacity) does not reproduce
            // the divergence; keep the last one that did.
            break;
        }
        if (!cand.ok)
            best = cand;
        else
            break;  // ladder is cumulative: first passing rung ends it
    }
    return best;
}

std::vector<DiffResult>
sweepDiff(SweepPool &pool, u64 base, u64 count, const ShapeConfig &shape,
          const DiffOptions &opts, obs::ProgressMeter *progress)
{
    // One pre-sized slot per index: workers never touch shared state.
    std::vector<DiffResult> all(count);
    pool.parallelFor(count, [&](u64 i) {
        all[i] = diffOne(taskSeed(base, i), shape, opts);
        if (progress)
            progress->tick();
    });
    std::vector<DiffResult> bad;
    for (auto &r : all) {
        if (!r.ok)
            bad.push_back(minimizeDivergence(r, opts));
    }
    return bad;
}

std::vector<DiffResult>
sweepChipDiff(SweepPool &pool, u64 base, u64 count,
              const ShapeConfig &shape, const DiffOptions &opts,
              obs::ProgressMeter *progress)
{
    const unsigned n = opts.chipCores ? opts.chipCores : 2;
    std::vector<DiffResult> all(count);
    pool.parallelFor(count, [&](u64 i) {
        std::vector<u64> seeds(n);
        for (unsigned k = 0; k < n; ++k)
            seeds[k] = taskSeed(base, n * i + k);
        all[i] = diffChipMix(seeds, shape, opts);
        if (progress)
            progress->tick();
    });
    std::vector<DiffResult> bad;
    for (auto &r : all) {
        if (!r.ok)
            bad.push_back(minimizeDivergence(r, opts));
    }
    return bad;
}

GuardedSweepResult
sweepDiffGuarded(SweepPool &pool, u64 base, u64 count,
                 const ShapeConfig &shape, const DiffOptions &opts,
                 const GuardConfig &gcfg, QuarantineLedger &ledger,
                 obs::ProgressMeter *progress)
{
    std::vector<DiffResult> all(count);
    std::vector<TaskOutcome> outcomes(count);
    // Ledger records happen in the serial post-pass below, so the
    // heartbeat counts failed outcomes live instead.
    std::atomic<u64> failedSoFar{0};
    pool.parallelFor(count, [&](u64 i) {
        u64 seed = taskSeed(base, i);
        // The task captures by value and writes heap state: on a
        // watchdog timeout its thread is detached and may outlive
        // this sweep, so it must not touch our stack or `all`.
        auto slot = std::make_shared<DiffResult>();
        outcomes[i] = runGuarded(gcfg, [slot, seed, shape, opts]() {
            *slot = diffOne(seed, shape, opts);
        });
        if (outcomes[i].ok)
            all[i] = *slot;
        else
            failedSoFar.fetch_add(1, std::memory_order_relaxed);
        if (progress)
            progress->tick(failedSoFar.load(std::memory_order_relaxed));
    });

    GuardedSweepResult res;
    for (u64 i = 0; i < count; ++i) {
        const TaskOutcome &o = outcomes[i];
        if (o.ok) {
            ++res.completed;
            if (!all[i].ok)
                res.divergences.push_back(
                    minimizeDivergence(all[i], opts));
            continue;
        }
        // Structured failure or timeout: durably record (seed, shape,
        // code, repro) and keep sweeping — triage beats an abort.
        ++res.quarantined;
        if (o.timedOut)
            ++res.timeouts;
        DiffResult stub;
        stub.seed = taskSeed(base, i);
        stub.shape = shape;
        ledger.record(stub.seed, shape.describe(), o.error,
                      stub.reproCmd());
    }
    return res;
}

} // namespace trips::harness
