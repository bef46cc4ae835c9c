/**
 * @file
 * Differential fuzzing of every execution model.
 *
 * The master property: for any program the seeded generator can emit,
 * the WIR interpreter, both RISC compiler presets, the TRIPS
 * functional simulator (compiled and hand presets), and the TRIPS
 * cycle-level simulator must agree on the return value and the final
 * data-segment image, and each model's statistics must satisfy its
 * structural invariants. The big sweeps here run 500+ generated
 * programs through all of that, sharded across the work-stealing
 * SweepPool.
 *
 * The regression section pins the seeds that found real compiler bugs
 * (fixed in this repository's history) plus hand-crafted minimal
 * reproducers, so those bugs stay dead even if the generator's RNG
 * mapping ever changes:
 *
 *  - operand-totality: a speculated op fed by a predicated load was
 *    marked always-delivering, so a store's address operand got no
 *    NULLW complement coverage and blocks hung at commit;
 *  - live-through writes: in a multi-exit region, a vreg live through
 *    an exit without an in-region definition (e.g. a parameter used
 *    past a join) was written as NULLW, committing null over the live
 *    value — parameters read as 0 after regions with a conditional
 *    call.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "core/machines.hh"
#include "harness/diff.hh"
#include "harness/fuzzgen.hh"
#include "harness/sweep.hh"
#include "testutil.hh"
#include "wir/builder.hh"

using namespace trips;
using harness::DiffOptions;
using harness::DiffResult;
using harness::ShapeConfig;
using harness::SweepPool;

namespace {

/** Fixed sweep base so CI failures are reproducible by seed. */
constexpr u64 SWEEP_BASE = 0x7259507354726970ULL;

void
expectAllOk(const std::vector<DiffResult> &bad)
{
    for (const auto &r : bad) {
        ADD_FAILURE() << "divergence on seed " << r.seed << " ["
                      << r.shape.describe() << "]: " << r.divergence
                      << "\n  repro: " << r.reproCmd();
    }
}

} // namespace

// ---------------------------------------------------------------------
// Sweep pool
// ---------------------------------------------------------------------

TEST(SweepPool, CoversEveryIndexExactlyOnce)
{
    SweepPool pool(4);
    std::vector<std::atomic<int>> hits(1013);
    pool.parallelFor(hits.size(), [&](u64 i) { ++hits[i]; });
    for (size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(SweepPool, ReusableAcrossSweeps)
{
    SweepPool pool(3);
    for (int round = 0; round < 5; ++round) {
        std::atomic<u64> sum{0};
        pool.parallelFor(100, [&](u64 i) { sum += i; });
        EXPECT_EQ(sum.load(), 4950u);
    }
}

TEST(SweepPool, PropagatesFirstExceptionAfterDraining)
{
    SweepPool pool(2);
    std::atomic<u64> ran{0};
    EXPECT_THROW(pool.parallelFor(64,
                                  [&](u64 i) {
                                      ++ran;
                                      if (i == 7)
                                          throw std::runtime_error("boom");
                                  }),
                 std::runtime_error);
    // The sweep drains: one bad index must not cancel the rest.
    EXPECT_EQ(ran.load(), 64u);
    // And the pool stays usable.
    std::atomic<u64> ok{0};
    pool.parallelFor(8, [&](u64) { ++ok; });
    EXPECT_EQ(ok.load(), 8u);
}

TEST(SweepPool, TaskSeedIsDeterministicAndScheduleFree)
{
    EXPECT_EQ(harness::taskSeed(1, 0), harness::taskSeed(1, 0));
    EXPECT_NE(harness::taskSeed(1, 0), harness::taskSeed(1, 1));
    EXPECT_NE(harness::taskSeed(1, 0), harness::taskSeed(2, 0));
    for (u64 i = 0; i < 1000; ++i)
        ASSERT_NE(harness::taskSeed(SWEEP_BASE, i), 0u);

    // Same work, different worker counts: identical per-index results.
    std::vector<i64> one(64), four(64);
    auto task = [](std::vector<i64> &out) {
        return [&out](u64 i) {
            auto mod = harness::generate(harness::taskSeed(9, i),
                                         ShapeConfig{}.shrunk(5));
            out[i] = core::runGolden(mod).retVal;
        };
    };
    SweepPool p1(1), p4(4);
    p1.parallelFor(one.size(), task(one));
    p4.parallelFor(four.size(), task(four));
    EXPECT_EQ(one, four);
}

// ---------------------------------------------------------------------
// Generator properties
// ---------------------------------------------------------------------

TEST(FuzzGen, EmitsVerifiablyValidModules)
{
    for (u64 i = 0; i < 200; ++i) {
        wir::Module mod =
            harness::generate(harness::taskSeed(SWEEP_BASE + 1, i));
        EXPECT_EQ(wir::verifyModule(mod), "");
        EXPECT_TRUE(mod.functions.count("main"));
    }
}

TEST(FuzzGen, DeterministicPerSeed)
{
    for (u64 i = 0; i < 20; ++i) {
        u64 seed = harness::taskSeed(SWEEP_BASE + 2, i);
        auto a = core::runGolden(harness::generate(seed));
        auto b = core::runGolden(harness::generate(seed));
        ASSERT_EQ(a.retVal, b.retVal);
        ASSERT_EQ(a.dynOps, b.dynOps);
    }
}

TEST(FuzzGen, ProgramsTerminateWellWithinFuel)
{
    // The generator's termination guarantee is structural; check the
    // dynamic cost stays in the fast-fuzzing regime too.
    for (u64 i = 0; i < 50; ++i) {
        auto mod = harness::generate(harness::taskSeed(SWEEP_BASE + 3, i));
        auto g = core::runGolden(mod);
        EXPECT_FALSE(g.fuelExhausted);
        EXPECT_LT(g.dynOps, 2'000'000u);
    }
}

TEST(FuzzGen, ReproCommandsNameTheExactShape)
{
    DiffResult onLadder;
    onLadder.seed = 7;
    onLadder.shape = ShapeConfig{}.shrunk(3);
    EXPECT_EQ(onLadder.reproCmd(), "build/sweep_main --repro 7 --shrink 3");

    DiffResult custom;
    custom.seed = 9;
    custom.shape.maxDepth = 3;
    custom.shape.memSlots = 64;
    // Off-ladder shapes must spell out real flags (a pasted command
    // with a '#'-comment shape would silently run the default shape).
    EXPECT_EQ(custom.reproCmd(),
              "build/sweep_main --repro 9 " + custom.shape.cliFlags());
    EXPECT_NE(custom.shape.cliFlags().find("--depth 3"), std::string::npos);
    EXPECT_NE(custom.shape.cliFlags().find("--slots 64"), std::string::npos);
}

TEST(FuzzGen, ShrinkLadderIsMonotoneAndStabilizes)
{
    ShapeConfig s;
    EXPECT_EQ(s.shrunk(0).describe(), s.describe());
    EXPECT_EQ(s.shrunk(ShapeConfig::SHRINK_STEPS).describe(),
              s.shrunk(ShapeConfig::SHRINK_STEPS + 5).describe());
    // Every rung changes something until the ladder bottoms out.
    for (unsigned k = 1; k <= ShapeConfig::SHRINK_STEPS; ++k)
        EXPECT_NE(s.shrunk(k).describe(), s.shrunk(k - 1).describe());
}

TEST(FuzzGen, GrowLadderIsMonotoneAndStabilizes)
{
    ShapeConfig s;
    EXPECT_EQ(s.grown(0).describe(), s.describe());
    EXPECT_EQ(s.grown(ShapeConfig::GROW_STEPS).describe(),
              s.grown(ShapeConfig::GROW_STEPS + 5).describe());
    for (unsigned k = 1; k <= ShapeConfig::GROW_STEPS; ++k) {
        EXPECT_NE(s.grown(k).describe(), s.grown(k - 1).describe());
        // Growth only ever raises the statement scale.
        EXPECT_GE(s.grown(k).topStmts, s.grown(k - 1).topStmts);
        EXPECT_GE(s.grown(k).bodyStmts, s.grown(k - 1).bodyStmts);
    }
}

// ---------------------------------------------------------------------
// The differential sweeps
// ---------------------------------------------------------------------

TEST(FuzzDiff, SweepAcrossAllModels)
{
    // 500 programs under TRIPSIM_SLOW_TESTS (the `slow` ctest label),
    // a bounded prefix of the same seeds by default.
    SweepPool pool;
    DiffOptions opts;
    // The TIL structural verifier re-checks every compiled block
    // between backend passes for the whole sweep.
    opts.verifyTil = true;
    auto bad = harness::sweepDiff(pool, SWEEP_BASE,
                                  testutil::slowScale(150, 500),
                                  ShapeConfig{}, opts);
    expectAllOk(bad);
}

TEST(FuzzDiff, DeepShapesTargetBlockComposition)
{
    // Bigger nests and arenas: fuller hyperblocks, more speculative
    // frames in flight, more LSQ traffic (Fig. 3 corner cases).
    ShapeConfig shape;
    shape.maxDepth = 3;
    shape.topStmts = 12;
    shape.maxLoopTrip = 16;
    shape.memSlots = 64;
    SweepPool pool;
    auto bad = harness::sweepDiff(pool, SWEEP_BASE + 4,
                                  testutil::slowScale(40, 120), shape);
    expectAllOk(bad);
}

TEST(FuzzDiff, GrownShapesForceBlockSplittingAndStayEquivalent)
{
    // The growth ladder's shapes exceed the prototype block limits
    // (32 LSIDs / 32 reads / 128 instructions) on most seeds, forcing
    // the backend's block-splitting pass, with the TIL structural
    // verifier re-checking every block between every pass. The seed
    // backend fataled outright on these shapes.
    SweepPool pool;
    DiffOptions opts;
    opts.verifyTil = true;
    const u64 count = testutil::slowScale(10, 25);
    auto bad = harness::sweepDiff(pool, SWEEP_BASE + 6, count,
                                  ShapeConfig{}.grown(2), opts);
    expectAllOk(bad);

    // And the splitter genuinely engages across the sweep.
    unsigned splitPrograms = 0;
    for (u64 i = 0; i < count; ++i) {
        auto mod = harness::generate(harness::taskSeed(SWEEP_BASE + 6, i),
                                     ShapeConfig{}.grown(2));
        compiler::CompileStats cs;
        compiler::compileToTrips(mod, compiler::Options::compiled(), &cs);
        splitPrograms += cs.splitBlocks > 0;
    }
    EXPECT_GT(splitPrograms, count / 5);
}

TEST(FuzzDiff, ReducedUarchConfigsStayEquivalent)
{
    SweepPool pool;
    for (const auto &[name, cfg] :
         {std::pair<const char *, uarch::UarchConfig>{
              "smallWindow", uarch::UarchConfig::smallWindow()},
          {"narrowIssue", uarch::UarchConfig::narrowIssue()},
          {"tinyMemory", uarch::UarchConfig::tinyMemory()}}) {
        ASSERT_EQ(cfg.validate(), "") << name;
        DiffOptions opts;
        opts.ucfg = cfg;
        opts.handPreset = false;  // uarch focus; hand covered above
        opts.iccPreset = false;
        auto bad = harness::sweepDiff(pool, SWEEP_BASE + 5,
                                      testutil::slowScale(16, 40),
                                      ShapeConfig{}, opts);
        expectAllOk(bad);
    }
}

// ---------------------------------------------------------------------
// Regression pins: seeds and crafted reproducers of fixed bugs
// ---------------------------------------------------------------------

TEST(FuzzRegression, BlockLimitOverflowPreviouslyFatal)
{
    // This (seed, shape) fataled on the seed backend with "single WIR
    // block overflows a TRIPS block in main: LSIDs" — a call
    // continuation reloading more than 32 caller-saved values. The
    // block-splitting pass now chains it through register spills;
    // every model must agree on the result.
    DiffOptions opts;
    opts.verifyTil = true;
    auto r = harness::diffOne(11734127987246357168ULL,
                              ShapeConfig{}.grown(2), opts);
    EXPECT_TRUE(r.ok) << r.divergence;

    auto mod = harness::generate(11734127987246357168ULL,
                                 ShapeConfig{}.grown(2));
    compiler::CompileStats cs;
    compiler::compileToTrips(mod, compiler::Options::compiled(), &cs);
    EXPECT_GT(cs.splitBlocks, 0u);
    EXPECT_GT(cs.spillWrites, 0u);
    EXPECT_GT(cs.overflowRetries, 0u);
}

TEST(FuzzRegression, OpnClassTotalsBalanceWithPacketsInFlightAtHalt)
{
    // Both (seed, shape)s halt the cycle-level core with one OPN packet
    // still in flight. Packets were counted at injection but hop
    // samples at ejection, so the oracle saw "OPN class totals
    // 156 != packets 100 + bypasses 57" (and 23 != 13 + 11). Each
    // packet is now counted once, at injection.
    for (u64 seed : {5233693453965313881ULL, 7659230269054919938ULL}) {
        auto r = harness::diffOne(seed, ShapeConfig{}.shrunk(7));
        EXPECT_TRUE(r.ok) << r.divergence << "\nrepro: " << r.reproCmd();
    }
}

TEST(FuzzRegression, OperandTotalityThroughSpeculatedOps)
{
    // Found by seed 1618348243342716079 (hand preset): block hung at
    // commit because a store address fed by a predicated load got no
    // complement NULLW coverage.
    auto r = harness::diffOne(1618348243342716079ULL);
    EXPECT_TRUE(r.ok) << r.divergence;
}

TEST(FuzzRegression, LiveThroughValuesAcrossMultiExitRegions)
{
    // Found by seeds whose param was nulled after a conditional call.
    for (u64 seed : {8648261378560211653ULL, 297205360454432253ULL,
                     7128174891590460449ULL}) {
        auto r = harness::diffOne(seed);
        EXPECT_TRUE(r.ok) << "seed " << seed << ": " << r.divergence;
    }
}

TEST(FuzzRegression, ParamLiveAcrossConditionalCallCrafted)
{
    // Minimal crafted form of the live-through bug: f's second
    // parameter is used after a join whose else-arm makes a call, so
    // the entry region must forward the incoming register value on
    // both exits rather than writing NULLW.
    wir::Module mod;
    const i64 K = -824107312415061138LL;
    {
        wir::FunctionBuilder fb(mod, "g", 2);
        fb.ret(fb.add(fb.param(0), fb.param(1)));
        fb.finish();
    }
    {
        wir::FunctionBuilder fb(mod, "f", 3);
        auto acc = fb.iconst(K);
        fb.br(fb.cmpLt(fb.param(2), fb.iconst(-1)), "then", "else");
        fb.label("then");
        fb.jmp("join");
        fb.label("else");
        auto r = fb.call("g", {fb.param(1), fb.iconst(1)});
        fb.store(fb.iconst(0x100000), r, 0, wir::MemWidth::B8);
        fb.jmp("join");
        fb.label("join");
        fb.assign(acc, fb.add(acc, fb.param(1)));
        fb.ret(fb.bxor(acc, fb.iconst(1)));
        fb.finish();
    }
    {
        wir::FunctionBuilder fb(mod, "main", 0);
        mod.addGlobal("pad", 64);
        auto one = fb.iconst(1);
        fb.ret(fb.andi(fb.call("f", {one, fb.iconst(-1), one}), 31));
        fb.finish();
    }
    ASSERT_EQ(wir::verifyModule(mod), "");

    i64 golden = core::runGolden(mod).retVal;
    auto compiled =
        core::runTrips(mod, compiler::Options::compiled(), true);
    EXPECT_EQ(compiled.retVal, golden);
    EXPECT_EQ(compiled.uarch.retVal, golden);
    auto hand = core::runTrips(mod, compiler::Options::hand(), false);
    EXPECT_EQ(hand.retVal, golden);
}

TEST(FuzzRegression, PredicatedLoadFeedingStoreAddressCrafted)
{
    // Minimal crafted form of the totality bug: inside an if-arm, a
    // store's address chain runs through a load from the same arm.
    // With speculated arithmetic the address chain is unpredicated but
    // non-total, so the store needs gating on both operands.
    wir::Module mod;
    Addr buf = mod.addGlobal("buf", 256 + 8);
    wir::FunctionBuilder fb(mod, "main", 0);
    auto base = fb.iconst(static_cast<i64>(buf));
    auto i = fb.iconst(0);
    auto acc = fb.iconst(1);
    fb.label("loop");
    fb.store(fb.add(base, fb.shli(fb.andi(i, 31), 3)), fb.addi(i, 101));
    fb.br(fb.andi(i, 1), "odd", "even");
    fb.label("odd");
    auto v = fb.load(fb.add(base, fb.shli(fb.andi(acc, 31), 3)), 0);
    fb.store(fb.add(base, fb.shli(fb.andi(v, 31), 3)), v, 4,
             wir::MemWidth::B2);
    fb.assign(acc, fb.add(acc, v));
    fb.jmp("next");
    fb.label("even");
    fb.assign(acc, fb.addi(acc, 3));
    fb.jmp("next");
    fb.label("next");
    fb.assign(i, fb.addi(i, 1));
    fb.br(fb.cmpLt(i, fb.iconst(40)), "loop", "done");
    fb.label("done");
    fb.ret(acc);
    fb.finish();
    ASSERT_EQ(wir::verifyModule(mod), "");

    i64 golden = core::runGolden(mod).retVal;
    for (const auto &opts :
         {compiler::Options::compiled(), compiler::Options::hand()}) {
        auto r = core::runTrips(mod, opts, false);
        EXPECT_EQ(r.retVal, golden);
    }
}
