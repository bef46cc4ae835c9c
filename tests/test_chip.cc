/**
 * @file
 * Chip-mode (shared uncore) regression tests:
 *
 *  - A one-core ChipSim is bit-identical to a solo CycleSim: the port
 *    extraction restructured the memory system without changing
 *    single-core timing.
 *  - Dual-core mixes are architecturally correct: each core's retVal
 *    and final data segment equal its solo run; only timing moves.
 *  - Shared-L2/OCN contention is measurable and deterministic: bank
 *    conflicts, miss inflation, and per-core slowdown appear under a
 *    memory-heavy mix and reproduce exactly across runs.
 *  - MemorySystem unit behavior: contention is cross-core only (a
 *    core never queues behind itself), per-core physical striding
 *    keeps address spaces disjoint, dirty-line iteration drains.
 *  - ChipConfig validation rejects structurally impossible chips.
 */

#include <gtest/gtest.h>

#include <set>

#include "compiler/codegen.hh"
#include "core/machines.hh"
#include "harness/diff.hh"
#include "support/error.hh"
#include "testutil.hh"
#include "uarch_expect.hh"
#include "uarch/chip_sim.hh"
#include "wir/builder.hh"
#include "wir/interp.hh"
#include "workloads/workload.hh"

using namespace trips;
using wir::FunctionBuilder;
using wir::MemWidth;
using wir::Module;

namespace {

/** Strided store/load walk over a buffer: L1D-streaming, L2-heavy. */
void
buildMemStress(Module &mod, i64 stride, int iters)
{
    Addr buf = mod.addGlobal("buf", 192 * 1024);
    FunctionBuilder fb(mod, "main", 0);
    auto base = fb.iconst(static_cast<i64>(buf));
    auto i = fb.iconst(0);
    auto acc = fb.iconst(0);
    fb.label("loop");
    auto slot = fb.add(
        base, fb.shli(fb.andi(fb.mul(i, fb.iconst(stride)), 24575), 3));
    fb.store(slot, fb.add(i, acc), 0, MemWidth::B8);
    fb.assign(acc, fb.bxor(acc, fb.load(slot, 0, MemWidth::B8)));
    fb.assign(i, fb.addi(i, 1));
    fb.br(fb.cmpLt(i, fb.iconst(iters)), "loop", "done");
    fb.label("done");
    fb.ret(acc);
    fb.finish();
}

struct SoloRun
{
    uarch::UarchResult res;
    MemImage mem;
};

SoloRun
runSolo(const isa::Program &prog, const Module &mod,
        const uarch::UarchConfig &cfg)
{
    SoloRun s;
    wir::Interp::loadGlobals(mod, s.mem);
    uarch::CycleSim sim(prog, s.mem, cfg);
    s.res = sim.run();
    EXPECT_FALSE(s.res.fuelExhausted);
    return s;
}

using testutil::expectSameUarch;

} // namespace

// ---------------------------------------------------------------------
// The port extraction is a restructuring, not a timing change.
// ---------------------------------------------------------------------

TEST(ChipSim, OneCoreChipBitIdenticalToSoloCycleSim)
{
    Module mod;
    buildMemStress(mod, 97, 3000);
    auto prog = compiler::compileToTrips(mod,
                                         compiler::Options::compiled());
    uarch::ChipConfig ccfg;
    ccfg.numCores = 1;
    ASSERT_EQ(ccfg.validate(), "");

    SoloRun solo = runSolo(prog, mod, ccfg.core);

    MemImage chip_mem;
    wir::Interp::loadGlobals(mod, chip_mem);
    uarch::ChipSim chip({{&prog, &chip_mem}}, ccfg);
    auto cr = chip.run();

    ASSERT_EQ(cr.cores.size(), 1u);
    expectSameUarch(cr.cores[0], solo.res);
    EXPECT_EQ(cr.cycles, solo.res.cycles);
    // No second core: cross-core contention cannot exist.
    EXPECT_EQ(cr.uncore.bankConflicts, 0u);
    EXPECT_EQ(cr.uncore.bankConflictCycles, 0u);
}

// ---------------------------------------------------------------------
// Dual-core mixes: architectural equality, measurable contention,
// deterministic replay.
// ---------------------------------------------------------------------

TEST(ChipSim, DualCoreMixMatchesSoloArchitecturallyAndContends)
{
    Module ma, mb;
    buildMemStress(ma, 97, 3000);
    buildMemStress(mb, 193, 3000);
    auto pa = compiler::compileToTrips(ma, compiler::Options::compiled());
    auto pb = compiler::compileToTrips(mb, compiler::Options::compiled());

    uarch::ChipConfig ccfg = uarch::ChipConfig::prototype();
    SoloRun sa = runSolo(pa, ma, ccfg.core);
    SoloRun sb = runSolo(pb, mb, ccfg.core);

    auto runChip = [&]() {
        MemImage mem_a, mem_b;
        wir::Interp::loadGlobals(ma, mem_a);
        wir::Interp::loadGlobals(mb, mem_b);
        uarch::ChipSim chip({{&pa, &mem_a}, {&pb, &mem_b}}, ccfg);
        auto cr = chip.run();
        // Architectural equality with the solo runs, byte for byte.
        EXPECT_EQ(cr.cores[0].retVal, sa.res.retVal);
        EXPECT_EQ(cr.cores[1].retVal, sb.res.retVal);
        EXPECT_EQ(harness::compareDataSegments(ma, sa.mem, mem_a,
                                               "core0"), "");
        EXPECT_EQ(harness::compareDataSegments(mb, sb.mem, mem_b,
                                               "core1"), "");
        EXPECT_EQ(cr.cores[0].blocksCommitted, sa.res.blocksCommitted);
        EXPECT_EQ(cr.cores[1].blocksCommitted, sb.res.blocksCommitted);
        return cr;
    };

    auto cr1 = runChip();

    // Contention is measurable: the shared banks saw cross-core
    // conflicts, at least one core got slower, and the shared L2
    // served more misses than the solo runs combined (the mix evicts
    // lines the solo runs kept).
    EXPECT_GT(cr1.uncore.bankConflicts, 0u);
    EXPECT_GE(cr1.cores[0].cycles, sa.res.cycles);
    EXPECT_GE(cr1.cores[1].cycles, sb.res.cycles);
    EXPECT_GT(cr1.cores[0].cycles + cr1.cores[1].cycles,
              sa.res.cycles + sb.res.cycles);
    EXPECT_GT(cr1.cores[0].l2Misses + cr1.cores[1].l2Misses,
              sa.res.l2Misses + sb.res.l2Misses);
    // The uncore's view balances against the per-core counters.
    EXPECT_EQ(cr1.uncore.l2Hits + cr1.uncore.l2Misses,
              cr1.cores[0].l2Hits + cr1.cores[0].l2Misses +
                  cr1.cores[1].l2Hits + cr1.cores[1].l2Misses);
    EXPECT_GT(cr1.ocnOccupancy, 0.0);
    EXPECT_GT(cr1.ocn.packets[static_cast<size_t>(
                  net::OcnClass::Writeback)], 0u);

    // Determinism: an identical mix reproduces every statistic.
    auto cr2 = runChip();
    EXPECT_EQ(cr1.cycles, cr2.cycles);
    EXPECT_EQ(cr1.uncore.bankConflicts, cr2.uncore.bankConflicts);
    EXPECT_EQ(cr1.uncore.bankConflictCycles,
              cr2.uncore.bankConflictCycles);
    EXPECT_EQ(cr1.ocn.totalPackets(), cr2.ocn.totalPackets());
    expectSameUarch(cr1.cores[0], cr2.cores[0]);
    expectSameUarch(cr1.cores[1], cr2.cores[1]);
}

TEST(ChipSim, SameWorkloadOnBothCoresStaysArchitecturallyCorrect)
{
    // Both cores run the same Program object: exercises shared
    // read-only program state and the per-core physical striding
    // (identical virtual addresses, disjoint physical lines).
    const auto &w = workloads::find("vadd");
    Module mod;
    w.build(mod);
    auto prog = compiler::compileToTrips(mod,
                                         compiler::Options::compiled());
    uarch::ChipConfig ccfg = uarch::ChipConfig::prototype();
    SoloRun solo = runSolo(prog, mod, ccfg.core);

    MemImage mem_a, mem_b;
    wir::Interp::loadGlobals(mod, mem_a);
    wir::Interp::loadGlobals(mod, mem_b);
    uarch::ChipSim chip({{&prog, &mem_a}, {&prog, &mem_b}}, ccfg);
    auto cr = chip.run();
    for (unsigned c = 0; c < 2; ++c) {
        EXPECT_EQ(cr.cores[c].retVal, solo.res.retVal);
        EXPECT_GE(cr.cores[c].cycles, solo.res.cycles);
        EXPECT_EQ(cr.cores[c].blocksCommitted, solo.res.blocksCommitted);
    }
    // Striding means no constructive tag sharing: each core misses at
    // least as much as it did alone.
    EXPECT_GE(cr.cores[0].l2Misses + cr.cores[1].l2Misses,
              2 * solo.res.l2Misses);
}

// ---------------------------------------------------------------------
// MemorySystem unit behavior.
// ---------------------------------------------------------------------

TEST(MemorySystem, ContentionIsCrossCoreOnly)
{
    mem::MemorySystemConfig mc;
    mc.numCores = 2;
    ASSERT_EQ(mc.validate(), "");
    mem::MemorySystem ms(mc);

    auto read = [&](unsigned core, Addr addr, Cycle now) {
        mem::MemRequest rq;
        rq.addr = addr;
        rq.coreId = static_cast<u8>(core);
        return ms.access(rq, now);
    };

    // A core hammering one bank in the same cycle never queues behind
    // itself (the single-core model never modeled self-queuing).
    Addr bank0_line = 0;
    auto r1 = read(0, bank0_line, 100);
    auto r2 = read(0, bank0_line + 1024 * 1024, 100);
    EXPECT_EQ(r1.queuedCycles, 0u);
    EXPECT_EQ(r2.queuedCycles, 0u);
    EXPECT_EQ(ms.stats().bankConflicts, 0u);

    // The other core touching the same bank in the same cycle queues.
    auto r3 = read(1, bank0_line, 100);
    EXPECT_GT(r3.queuedCycles, 0u);
    EXPECT_EQ(ms.stats().bankConflicts, 1u);
    EXPECT_EQ(ms.stats().conflictsByCore[1], 1u);

    // Far enough apart in time, no conflict.
    auto r4 = read(1, bank0_line, 500);
    EXPECT_EQ(r4.queuedCycles, 0u);
    EXPECT_EQ(ms.stats().bankConflicts, 1u);
}

TEST(MemorySystem, SoloLatencyMatchesHistoricalNucaFormula)
{
    // One core, cold caches: completion = now + l2BaseLatency +
    // l2NucaStep * ((bank/4)+(bank%4)) + srcBank + DRAM (miss), and a
    // second access to the same line hits with no DRAM term.
    uarch::UarchConfig ucfg;
    mem::MemorySystem ms(uarch::uncoreConfig(ucfg));
    for (unsigned bank = 0; bank < 16; ++bank) {
        Addr addr = static_cast<Addr>(bank) * 64;
        mem::MemRequest rq;
        rq.addr = addr;
        rq.srcBank = static_cast<u8>(bank % 4);
        ms.access(rq, 1000);     // cold miss warms the line
        auto hit = ms.access(rq, 2000);
        ASSERT_TRUE(hit.l2Hit);
        unsigned dist = (bank / 4) + (bank % 4);
        Cycle lat = ucfg.l2BaseLatency + ucfg.l2NucaStep * dist +
                    (bank % 4);
        EXPECT_EQ(hit.done, 2000 + lat) << "bank " << bank;
    }
}

TEST(MemorySystem, DirtyLineDrainIsIdempotent)
{
    mem::MemorySystemConfig mc;
    mc.numCores = 2;
    mem::MemorySystem ms(mc);

    // Write-allocate three lines dirty in different banks.
    for (unsigned i = 0; i < 3; ++i) {
        mem::MemRequest rq;
        rq.addr = static_cast<Addr>(i) * 64;
        rq.isWrite = true;
        rq.cls = net::OcnClass::WriteReq;
        ms.access(rq, 10);
    }
    u64 wb_before = ms.stats().l2Writebacks;
    EXPECT_EQ(ms.drainDirtyLines(), 3u);
    EXPECT_EQ(ms.stats().l2Writebacks, wb_before + 3);
    EXPECT_EQ(ms.drainDirtyLines(), 0u);     // already clean

    // An absorbed L1 victim re-dirties a resident line.
    ms.noteL1Writeback(0, 0, 64);
    EXPECT_EQ(ms.drainDirtyLines(), 1u);
}

TEST(MemorySystem, PhysicalStridingSeparatesCores)
{
    mem::MemorySystemConfig mc;
    mc.numCores = 2;
    mem::MemorySystem ms(mc);

    // Core 0 warms a line; the same virtual line from core 1 must
    // miss (disjoint physical ranges), then hit once warmed itself.
    mem::MemRequest rq;
    rq.addr = 0x4000;
    rq.coreId = 0;
    ms.access(rq, 10);
    auto again0 = ms.access(rq, 200);
    EXPECT_TRUE(again0.l2Hit);
    rq.coreId = 1;
    auto first1 = ms.access(rq, 400);
    EXPECT_FALSE(first1.l2Hit);
    auto again1 = ms.access(rq, 600);
    EXPECT_TRUE(again1.l2Hit);
}

TEST(CacheDirtyLines, IterationAndMarkDirty)
{
    mem::Cache c(mem::CacheConfig{1024, 2, 64});
    EXPECT_TRUE(c.dirtyLines().empty());
    c.access(0x100, true);
    c.access(0x200, false);
    c.access(0x300, true);
    auto dirty = c.dirtyLines();
    ASSERT_EQ(dirty.size(), 2u);
    // Line-aligned reconstructed addresses.
    EXPECT_EQ(dirty[0] % 64, 0u);

    // markDirty on a present clean line flips it; on an absent line
    // reports absence and changes nothing.
    EXPECT_TRUE(c.markDirty(0x200));
    EXPECT_FALSE(c.markDirty(0x7000));
    EXPECT_EQ(c.dirtyLines().size(), 3u);

    // drainDirty clears but keeps contents resident.
    EXPECT_EQ(c.drainDirty().size(), 3u);
    EXPECT_TRUE(c.dirtyLines().empty());
    EXPECT_TRUE(c.probe(0x100));
}

// ---------------------------------------------------------------------
// Validation.
// ---------------------------------------------------------------------

TEST(ChipConfigValidation, RejectsImpossibleChips)
{
    EXPECT_EQ(uarch::ChipConfig::prototype().validate(), "");
    auto bad = [](auto mut) {
        uarch::ChipConfig c;
        mut(c);
        return c.validate();
    };
    EXPECT_NE(bad([](auto &c) { c.numCores = 0; }), "");
    EXPECT_NE(bad([](auto &c) { c.numCores = 17; }), "");
    EXPECT_NE(bad([](auto &c) { c.bankServicePeriod = 0; }), "");
    EXPECT_NE(bad([](auto &c) { c.physStride = 0; }), "");
    EXPECT_NE(bad([](auto &c) { c.physStride = 12345; }), "");
    EXPECT_NE(bad([](auto &c) { c.core.numFrames = 0; }), "");
    EXPECT_NE(bad([](auto &c) { c.quantum = 0; }), "");

    // Every core count the OCN attach table holds is now legal (the
    // pre-PR-9 chip stopped at 8).
    for (unsigned n = 1; n <= 16; ++n)
        EXPECT_EQ(bad([n](auto &c) { c.numCores = n; }), "")
            << "numCores=" << n;

    mem::MemorySystemConfig mc;
    mc.numBanks = 48;
    EXPECT_NE(mc.validate(), "");
    mc = mem::MemorySystemConfig{};
    mc.l2Bank.assoc = 0;
    EXPECT_NE(mc.validate(), "");
}

TEST(ChipConfigValidation, RejectsPhysicalAddressMapOverflow)
{
    // 16 cores x 1GB stride exactly fills the default 34-bit map;
    // shrinking the map (or growing the stride) must fatal with a
    // message naming the limit, because the upper cores' strided
    // ranges would wrap and alias the lower cores' lines.
    uarch::ChipConfig c;
    c.numCores = 16;
    EXPECT_EQ(c.validate(), "");

    c.physAddrBits = 33;               // 8GB: only 8 cores fit at 1GB
    std::string err = c.validate();
    EXPECT_NE(err, "");
    EXPECT_NE(err.find("physical address map"), std::string::npos) << err;
    EXPECT_NE(err.find("33-bit"), std::string::npos) << err;

    c.numCores = 8;
    EXPECT_EQ(c.validate(), "");

    c.physStride = Addr{1} << 31;      // 8 cores x 2GB > 8GB
    EXPECT_NE(c.validate(), "");

    // And out-of-range map widths are themselves rejected.
    c = uarch::ChipConfig{};
    c.physAddrBits = 8;
    EXPECT_NE(c.validate(), "");
}

TEST(OcnAttachPoints, GridMappingIsDistinctAndPreservesPrototype)
{
    using net::OcnModel;
    // Core 0 and 1 keep the historical mirrored corner profiles
    // bit-identically (the N=2 timing pins depend on it).
    EXPECT_EQ(OcnModel::attachPoint(0), (std::pair<unsigned, unsigned>{0, 0}));
    EXPECT_EQ(OcnModel::attachPoint(1), (std::pair<unsigned, unsigned>{3, 3}));

    net::OcnConfig oc;
    OcnModel ocn(oc, 16);
    for (unsigned bank = 0; bank < 16; ++bank) {
        unsigned row = bank / 4, col = bank % 4;
        EXPECT_EQ(ocn.requestHops(0, bank), row + col);
        EXPECT_EQ(ocn.requestHops(1, bank), (3 - row) + (3 - col));
    }

    // Regression for the even/odd corner mirroring: every core now
    // owns a distinct attach cell (pre-PR-9, cores 2/4/6.. all sat on
    // core 0's corner and 3/5/7.. on core 1's).
    std::set<std::pair<unsigned, unsigned>> seen;
    for (unsigned core = 0; core < 16; ++core) {
        auto at = OcnModel::attachPoint(core);
        EXPECT_LT(at.first, 4u);
        EXPECT_LT(at.second, 4u);
        EXPECT_TRUE(seen.insert(at).second)
            << "cores share attach point (" << at.first << ","
            << at.second << ")";
    }

    // Hop distances from any attach point stay within the 4x4 mesh
    // diameter, so the NUCA latency bound is unchanged.
    for (unsigned core = 0; core < 16; ++core)
        for (unsigned bank = 0; bank < 16; ++bank)
            EXPECT_LE(ocn.requestHops(core, bank), 6u);
}

TEST(ChipConfigValidation, ChipSimThrowsOnBadConfigOrJobs)
{
    Module mod;
    buildMemStress(mod, 97, 8);
    auto prog = compiler::compileToTrips(mod,
                                         compiler::Options::compiled());
    MemImage mem;
    wir::Interp::loadGlobals(mod, mem);

    // Since PR 6 an impossible chip is a catchable TripsError so a
    // config sweep survives a bad point instead of dying mid-run.
    uarch::ChipConfig bad;
    bad.numCores = 0;
    try {
        uarch::ChipSim sim({{&prog, &mem}}, bad);
        ADD_FAILURE() << "ChipSim accepted numCores=0";
    } catch (const TripsError &e) {
        EXPECT_EQ(e.code(), ErrCode::InvalidConfig);
        EXPECT_EQ(e.status().subsys, Subsys::Uarch);
    }

    uarch::ChipConfig two;
    two.numCores = 2;
    try {
        uarch::ChipSim sim({{&prog, &mem}, {&prog, &mem},
                            {&prog, &mem}}, two);
        ADD_FAILURE() << "ChipSim accepted 3 jobs on 2 cores";
    } catch (const TripsError &e) {
        EXPECT_EQ(e.code(), ErrCode::InvalidConfig);
        EXPECT_NE(e.status().message.find("3 jobs"), std::string::npos);
    }
}

// ---------------------------------------------------------------------
// The chip-mode differential oracle itself.
// ---------------------------------------------------------------------

TEST(ChipDiff, GeneratedPairsMatchTheirSoloRuns)
{
    // 6 pairs under TRIPSIM_SLOW_TESTS (the `slow` ctest label), a
    // bounded prefix of the same pairs by default.
    for (u64 i = 0; i < testutil::slowScale(3, 6); ++i) {
        auto r = harness::diffChipPair(harness::taskSeed(77, 2 * i),
                                       harness::taskSeed(77, 2 * i + 1));
        EXPECT_TRUE(r.ok) << r.divergence << "\n  " << r.reproCmd();
        EXPECT_TRUE(r.chip);
    }
}
