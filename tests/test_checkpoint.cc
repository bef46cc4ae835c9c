/**
 * @file
 * Tests for the fast-simulation subsystem (src/sim/): checkpoint
 * serialization round trips, corrupted/versioned-file rejection, the
 * checkpoint-restore differential oracle (restored functional and
 * warm-started cycle-level runs must equal the straight runs), sampled
 * simulation accuracy against full-detail runs, the campaign
 * cache's cold/warm bit-identity, and the result and config schemas:
 * the forEachField walkers against operator==, the pinned byte layout
 * of the campaign record and the checkpoint stats, and the pinned
 * campaign key the config lists produce.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <set>
#include <sstream>

#include "core/machines.hh"
#include "harness/diff.hh"
#include "harness/fuzzgen.hh"
#include "sim/campaign.hh"
#include "sim/checkpoint.hh"
#include "sim/sampling.hh"
#include "testutil.hh"
#include "uarch/chip_sim.hh"
#include "wir/interp.hh"

using namespace trips;
using testutil::expectSame;

namespace {

/** Compile a workload and load its globals into @p mem. */
isa::Program
compileWorkload(const char *name, wir::Module &mod, MemImage &mem,
                const compiler::Options &opts =
                    compiler::Options::compiled())
{
    workloads::find(name).build(mod);
    auto prog = compiler::compileToTrips(mod, opts);
    wir::Interp::loadGlobals(mod, mem);
    return prog;
}

/** Snapshot @p name's functional state after @p blocks blocks. */
sim::Checkpoint
checkpointAfter(const char *name, u64 blocks)
{
    wir::Module mod;
    MemImage mem;
    auto prog = compileWorkload(name, mod, mem);
    sim::FuncSim fsim(prog, mem);
    auto r = fsim.run(blocks);
    EXPECT_TRUE(r.fuelExhausted) << "program ended before " << blocks;
    sim::Checkpoint ck;
    fsim.snapshot(ck);
    return ck;
}

/** Re-seal a tampered checkpoint image so only the targeted field is
 *  invalid (the CRC stays correct). */
std::vector<u8>
resealed(std::vector<u8> bytes)
{
    u32 crc = sim::crc32(bytes.data(), bytes.size() - 4);
    for (unsigned i = 0; i < 4; ++i)
        bytes[bytes.size() - 4 + i] = static_cast<u8>(crc >> (8 * i));
    return bytes;
}

} // namespace

// ---------------------------------------------------------------------
// Checkpoint byte format
// ---------------------------------------------------------------------

TEST(Checkpoint, SerializeDeserializeRoundTripIsExact)
{
    sim::Checkpoint ck = checkpointAfter("vadd", 200);
    EXPECT_EQ(ck.blocksExecuted, 200u);

    auto bytes = sim::serializeCheckpoint(ck);
    sim::Checkpoint rt = sim::deserializeCheckpoint(bytes);
    EXPECT_EQ(rt.nextBlock, ck.nextBlock);
    EXPECT_EQ(rt.blocksExecuted, ck.blocksExecuted);
    EXPECT_EQ(rt.regfile, ck.regfile);
    EXPECT_EQ(rt.callStack, ck.callStack);
    expectSame(rt.stats, ck.stats);
    EXPECT_EQ(sim::diffMemImages(rt.mem, ck.mem), "");

    // Deterministic format: same state, same bytes.
    EXPECT_EQ(sim::serializeCheckpoint(rt), bytes);
}

TEST(Checkpoint, SaveLoadFileRoundTrip)
{
    sim::Checkpoint ck = checkpointAfter("autocor", 500);
    std::string path = testing::TempDir() + "/autocor.ckpt";
    sim::saveCheckpoint(path, ck);
    sim::Checkpoint back = sim::loadCheckpoint(path);
    EXPECT_EQ(sim::serializeCheckpoint(back), sim::serializeCheckpoint(ck));
    std::remove(path.c_str());
}

/** Deserialize expecting a TripsError; returns its error code. */
static ErrCode
loadErrCode(const std::vector<u8> &bytes, size_t n = SIZE_MAX)
{
    try {
        sim::deserializeCheckpoint(
            bytes.data(), n == SIZE_MAX ? bytes.size() : n);
    } catch (const TripsError &e) {
        EXPECT_EQ(e.status().subsys, Subsys::Sim);
        return e.code();
    }
    ADD_FAILURE() << "deserializeCheckpoint did not throw";
    return ErrCode::Ok;
}

TEST(Checkpoint, CorruptedBytesAreRejectedWithStructuredErrors)
{
    sim::Checkpoint ck = checkpointAfter("vadd", 50);
    auto bytes = sim::serializeCheckpoint(ck);

    // Flip one payload byte: the CRC must catch it.
    auto corrupt = bytes;
    corrupt[bytes.size() / 2] ^= 0x40;
    EXPECT_EQ(loadErrCode(corrupt), ErrCode::CorruptData);

    // Truncation is a structured error too, not UB — and, since PR 6,
    // catchable: a campaign survives a bad checkpoint file.
    auto truncated = bytes;
    truncated.resize(bytes.size() / 2);
    EXPECT_EQ(loadErrCode(truncated), ErrCode::CorruptData);
    EXPECT_EQ(loadErrCode(truncated, 3), ErrCode::Truncated);
    EXPECT_THROW(sim::deserializeCheckpoint(truncated), TripsError);
}

TEST(Checkpoint, WrongMagicAndVersionAreRejected)
{
    sim::Checkpoint ck = checkpointAfter("vadd", 50);
    auto bytes = sim::serializeCheckpoint(ck);

    auto wrong_magic = bytes;
    wrong_magic[0] ^= 0xff;
    EXPECT_EQ(loadErrCode(resealed(wrong_magic)), ErrCode::CorruptData);

    // A future/older format version is rejected by name, so stale
    // checkpoint files fail loudly instead of parsing garbage.
    auto wrong_version = bytes;
    wrong_version[4] = static_cast<u8>(sim::CKPT_VERSION + 7);
    EXPECT_EQ(loadErrCode(resealed(wrong_version)),
              ErrCode::VersionMismatch);

    // Loading a missing file is a structured IoError, not a fatal.
    try {
        sim::loadCheckpoint(testing::TempDir() + "/no-such.ckpt");
        ADD_FAILURE() << "loadCheckpoint did not throw";
    } catch (const TripsError &e) {
        EXPECT_EQ(e.code(), ErrCode::IoError);
    }
}

TEST(Checkpoint, MemImageDiffTreatsAbsentPagesAsZero)
{
    MemImage a, b;
    a.write8(0x5000, 0);   // resident page, all zero
    EXPECT_EQ(sim::diffMemImages(a, b), "");
    b.write8(0x5001, 9);
    EXPECT_NE(sim::diffMemImages(a, b), "");
}

// ---------------------------------------------------------------------
// Checkpoint-restore differential oracle
// ---------------------------------------------------------------------

TEST(CheckpointOracle, RestoredRunsEqualStraightRunsOnPinnedWorkloads)
{
    struct Pin
    {
        const char *name;
        u64 every;
    };
    // Mixed suites; intervals chosen so several checkpoints land
    // inside each program (committed counts: vadd 2050, fft 4232,
    // autocor 16417 blocks).
    const Pin pins[] = {{"vadd", 300}, {"fft", 700}, {"autocor", 2500}};
    for (const auto &p : pins) {
        wir::Module mod;
        workloads::find(p.name).build(mod);
        auto r = harness::diffCheckpointRestore(
            mod, p.every, compiler::Options::compiled());
        EXPECT_TRUE(r.ok) << p.name << ": " << r.divergence;
        EXPECT_GE(r.checkpoints, 2u) << p.name;
    }
}

TEST(CheckpointOracle, HandPresetAndReducedUarchSurviveRestore)
{
    wir::Module mod;
    workloads::find("matrix").build(mod);
    auto r = harness::diffCheckpointRestore(
        mod, 2000, compiler::Options::hand(),
        uarch::UarchConfig::smallWindow());
    EXPECT_TRUE(r.ok) << r.divergence;
    EXPECT_GE(r.checkpoints, 2u);
}

TEST(CheckpointOracle, GeneratedProgramsSurviveRestore)
{
    // Fuzz programs exercise call stacks, predication, and memory
    // shapes the workloads do not.
    for (u64 seed : {11u, 23u, 58u}) {
        wir::Module mod = harness::generate(seed, harness::ShapeConfig{});
        auto r = harness::diffCheckpointRestore(
            mod, 20, compiler::Options::compiled());
        EXPECT_TRUE(r.ok) << "seed " << seed << ": " << r.divergence;
    }
}

TEST(CheckpointOracle, WarmStartIntoChipSimMatchesSoloRun)
{
    // Restore the same checkpoint into both cores of a 2-core chip:
    // the shared uncore adds timing interference only, so each core
    // must still finish with the straight run's architecture.
    wir::Module mod;
    MemImage straightMem;
    auto prog = compileWorkload("a2time", mod, straightMem);
    uarch::CycleSim straight(prog, straightMem);
    auto sr = straight.run();

    MemImage fmem;
    wir::Interp::loadGlobals(mod, fmem);
    sim::FuncSim fsim(prog, fmem);
    fsim.run(1500);
    ASSERT_FALSE(fsim.halted());
    sim::Checkpoint ck;
    fsim.snapshot(ck);

    MemImage m0 = ck.mem, m1 = ck.mem;
    std::vector<uarch::ChipJob> jobs(2);
    jobs[0] = {&prog, &m0, &ck};
    jobs[1] = {&prog, &m1, &ck};
    uarch::ChipSim chip(jobs, uarch::ChipConfig::prototype());
    auto cr = chip.run();
    for (unsigned c = 0; c < 2; ++c) {
        EXPECT_EQ(cr.cores[c].retVal, sr.retVal) << "core " << c;
        EXPECT_EQ(ck.blocksExecuted + cr.cores[c].blocksCommitted,
                  sr.blocksCommitted)
            << "core " << c;
    }
    EXPECT_EQ(sim::diffMemImages(straightMem, m0, "core0 mem"), "");
    EXPECT_EQ(sim::diffMemImages(straightMem, m1, "core1 mem"), "");
}

// ---------------------------------------------------------------------
// Sampled simulation
// ---------------------------------------------------------------------

TEST(Sampling, EstimatesWithinFivePercentOnPinnedWorkloads)
{
    // The acceptance bar: sampled cycle estimates within 5% of the
    // full-detail run on >= 4 pinned workloads (measured errors are
    // well inside it: vadd +0.3%, autocor +0.4%, matrix -0.4%,
    // a2time +1.9%, gcc +1.6%).
    const char *pins[] = {"vadd", "autocor", "matrix", "a2time", "gcc"};
    sim::SampleConfig scfg;
    scfg.warmupBlocks = 150;
    scfg.measureBlocks = 350;
    scfg.period = 1000;
    for (const char *name : pins) {
        wir::Module mod;
        MemImage full;
        auto prog = compileWorkload(name, mod, full);
        uarch::CycleSim cs(prog, full);
        auto fr = cs.run();

        MemImage smem;
        wir::Interp::loadGlobals(mod, smem);
        auto s = sim::runSampled(prog, smem, uarch::UarchConfig{}, scfg);
        EXPECT_FALSE(s.fuelExhausted) << name;
        EXPECT_FALSE(s.fullDetail) << name;
        EXPECT_EQ(s.retVal, fr.retVal) << name;
        EXPECT_GE(s.intervals, 2u) << name;
        // Sampling must actually skip work: measured coverage well
        // below 1 while the estimate stays within the 5% bar.
        EXPECT_LT(s.coverage(), 0.6) << name;
        EXPECT_GT(s.coverage(), 0.0) << name;
        double rel = std::abs(s.estCycles - static_cast<double>(fr.cycles))
                     / static_cast<double>(fr.cycles);
        EXPECT_LE(rel, 0.05) << name << ": sampled " << s.estCycles
                             << " vs full " << fr.cycles;
    }
}

TEST(Sampling, FunctionalArchitectureIsExactUnderSampling)
{
    // Sampling changes what is *timed*, never what is *executed*: the
    // functional image the sampler returns equals a plain run's.
    wir::Module mod;
    MemImage plain;
    auto prog = compileWorkload("fft", mod, plain);
    sim::FuncSim fsim(prog, plain);
    auto fr = fsim.run();

    sim::SampleConfig scfg;
    scfg.warmupBlocks = 50;
    scfg.measureBlocks = 100;
    scfg.period = 500;
    MemImage smem;
    wir::Interp::loadGlobals(mod, smem);
    auto s = sim::runSampled(prog, smem, uarch::UarchConfig{}, scfg);
    EXPECT_EQ(s.retVal, fr.retVal);
    EXPECT_EQ(s.totalBlocks, fr.stats.blocks);
    expectSame(s.isa, fr.stats);
    EXPECT_EQ(sim::diffMemImages(plain, smem), "");
}

TEST(Sampling, ShortProgramFallsBackToFullDetail)
{
    wir::Module mod;
    MemImage full;
    auto prog = compileWorkload("vadd", mod, full);
    uarch::CycleSim cs(prog, full);
    auto fr = cs.run();

    sim::SampleConfig scfg;
    scfg.ffwdBlocks = 10'000'000;   // way past the program's end
    MemImage smem;
    wir::Interp::loadGlobals(mod, smem);
    auto s = sim::runSampled(prog, smem, uarch::UarchConfig{}, scfg);
    EXPECT_TRUE(s.fullDetail);
    EXPECT_EQ(s.intervals, 0u);
    EXPECT_EQ(static_cast<u64>(s.estCycles), fr.cycles);
    EXPECT_DOUBLE_EQ(s.coverage(), 1.0);
}

TEST(SamplingDeathTest, InvalidConfigsAreFatal)
{
    EXPECT_EXIT(sim::SampleConfig::parse("nonsense"),
                testing::ExitedWithCode(1), "--sample");
    EXPECT_EXIT(sim::SampleConfig::parse("0:400:400:500"),
                testing::ExitedWithCode(1), "overlap");
    auto ok = sim::SampleConfig::parse("5:100:400:1000");
    EXPECT_EQ(ok.ffwdBlocks, 5u);
    EXPECT_EQ(ok.warmupBlocks, 100u);
    EXPECT_EQ(ok.measureBlocks, 400u);
    EXPECT_EQ(ok.period, 1000u);
}

// ---------------------------------------------------------------------
// Campaign cache
// ---------------------------------------------------------------------

TEST(Campaign, WarmRerunIsBitIdenticalAndSkipsSimulation)
{
    std::string dir = testing::TempDir() + "/campaign_cache_test";
    std::filesystem::remove_all(dir);   // runs must start cold
    const auto &w = workloads::find("autocor");

    sim::Campaign cold(dir);
    auto r1 = cold.runTrips(w, compiler::Options::compiled(), true);
    EXPECT_EQ(cold.cache().hits(), 0u);
    EXPECT_EQ(cold.cache().misses(), 1u);

    sim::Campaign warm(dir);
    auto r2 = warm.runTrips(w, compiler::Options::compiled(), true);
    EXPECT_EQ(warm.cache().hits(), 1u);
    EXPECT_EQ(warm.cache().misses(), 0u);
    expectSame(r1, r2);
}

TEST(Campaign, CorruptOrStaleEntriesAreMissesNeverTrusted)
{
    std::string dir = testing::TempDir() + "/campaign_corrupt_test";
    std::filesystem::remove_all(dir);   // runs must start cold
    wir::Module mod = harness::generate(3, harness::ShapeConfig{});
    auto opts = compiler::Options::compiled();
    auto key = sim::campaignKey(mod, opts, uarch::UarchConfig{}, false);

    sim::Campaign c1(dir);
    auto r1 = c1.runTrips(mod, opts, false);
    EXPECT_EQ(c1.cache().misses(), 1u);

    // Corrupt the stored record: the next lookup must re-simulate,
    // not fatal and not return garbage.
    std::string path = dir + "/" + key.hex() + ".trun";
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 40, SEEK_SET);
    std::fputc(0x5a, f);
    std::fclose(f);

    sim::Campaign c2(dir);
    auto r2 = c2.runTrips(mod, opts, false);
    EXPECT_EQ(c2.cache().hits(), 0u);
    EXPECT_EQ(c2.cache().misses(), 1u);
    EXPECT_EQ(r2.retVal, r1.retVal);

    // The re-run repaired the entry.
    sim::Campaign c3(dir);
    c3.runTrips(mod, opts, false);
    EXPECT_EQ(c3.cache().hits(), 1u);
}

TEST(Campaign, CrcValidButMalformedEntryIsAMissNotAFatal)
{
    // A record can carry a valid seal yet not parse under this build
    // (written by a binary with different structural constants, e.g.
    // another pass count). That must degrade to a miss counted as
    // stale + re-run, not take the campaign down.
    std::string dir = testing::TempDir() + "/campaign_malformed_test";
    std::filesystem::remove_all(dir);
    wir::Module mod = harness::generate(5, harness::ShapeConfig{});
    auto opts = compiler::Options::compiled();
    auto key = sim::campaignKey(mod, opts, uarch::UarchConfig{}, false);
    std::string path = dir + "/" + key.hex() + ".trun";
    const i64 golden = core::runGolden(mod, nullptr).retVal;

    // Store a record, rewrite it with @p tamper and re-seal it: the
    // CRC passes, parsing cannot.
    auto expectStaleMiss = [&](const char *what, auto tamper) {
        SCOPED_TRACE(what);
        sim::Campaign c1(dir);
        c1.runTrips(mod, opts, false);
        std::vector<u8> bytes;
        ASSERT_TRUE(sim::readFile(path, bytes));
        tamper(bytes);
        bytes = resealed(std::move(bytes));
        ASSERT_TRUE(sim::sealIntact(bytes.data(), bytes.size()));
        ASSERT_TRUE(sim::writeFileAtomic(path, bytes).ok());

        sim::Campaign c2(dir);
        auto r = c2.runTrips(mod, opts, false);
        EXPECT_EQ(c2.cache().hits(), 0u);
        EXPECT_EQ(c2.cache().misses(), 1u);
        EXPECT_EQ(c2.cache().stale(), 1u);
        EXPECT_EQ(c2.cache().corrupt(), 0u);
        EXPECT_EQ(r.retVal, golden);
    };

    expectStaleMiss("truncated payload", [](std::vector<u8> &bytes) {
        bytes.resize(bytes.size() - 40);
    });

    // A functional-only record ends with CompileStats::pass: a u32
    // count, NUM_PASSES x 6 u64 counters, then the 4-byte seal.
    expectStaleMiss("another pass count", [](std::vector<u8> &bytes) {
        size_t at = bytes.size() - 4 - (4 + compiler::NUM_PASSES * 6 * 8);
        ASSERT_EQ(bytes[at], compiler::NUM_PASSES);
        bytes[at] = compiler::NUM_PASSES + 1;
    });
}

TEST(Campaign, DisabledCacheIsPassThrough)
{
    sim::Campaign off;
    const auto &w = workloads::find("vadd");
    auto r = off.runTrips(w, compiler::Options::compiled(), false);
    EXPECT_EQ(r.retVal, core::runGolden(w));
    EXPECT_EQ(off.cache().hits(), 0u);
    EXPECT_EQ(off.cache().misses(), 0u);
    EXPECT_EQ(off.report(), "campaign-cache: disabled");
}

// ---------------------------------------------------------------------
// Result and config schemas: every result and config struct lists its
// fields once (support/fields.hh); serialization, the campaign key and
// comparison walk that list.
// ---------------------------------------------------------------------

namespace {

/** Call @p f(path, leaf) on every leaf of @p x in forEachField order,
 *  the path spelled as firstDifference spells it. */
template <class T, class F>
void
forEachLeaf(T &x, const std::string &path, F &f)
{
    if constexpr (HasFields<T>) {
        forEachField(x, [&](const char *name, auto &m) {
            forEachLeaf(m, path.empty() ? name : path + "." + name, f);
        });
    } else if constexpr (Sequence<T>) {
        for (size_t i = 0; i < std::size(x); ++i)
            forEachLeaf(x[i], path + "[" + std::to_string(i) + "]", f);
    } else {
        f(path, x);
    }
}

u64
pathHash(const std::string &path)
{
    u64 h = 0xcbf29ce484222325ULL;
    for (char c : path)
        h = (h ^ static_cast<u8>(c)) * 0x100000001b3ULL;
    return h;
}

/** Give every leaf of @p x a distinct non-zero value (bools: true)
 *  hashed from its path, so reordering a list changes the bytes. */
template <class T>
T
canonical(T x)
{
    auto fill = [](const std::string &path, auto &leaf) {
        using L = std::remove_reference_t<decltype(leaf)>;
        const u64 h = pathHash(path);
        if constexpr (std::is_floating_point_v<L>)
            leaf = static_cast<L>(h >> 20) + 0.25;
        else
            leaf = static_cast<L>(h >> 2 | 1);
    };
    forEachLeaf(x, "", fill);
    return x;
}

/** canonical(@p x), but each bool takes the low bit of its path hash,
 *  so Options' adjacent bools differ and swapping them moves bytes. */
template <class T>
T
distinctLeaves(T x)
{
    auto fill = [](const std::string &path, auto &leaf) {
        if constexpr (std::is_same_v<std::remove_reference_t<
                                         decltype(leaf)>, bool>)
            leaf = pathHash(path) & 1;
    };
    x = canonical(x);
    forEachLeaf(x, "", fill);
    return x;
}

/** @p x with its @p k-th leaf (forEachField order) changed: a bool
 *  toggled, a number incremented. */
template <class T>
T
bumped(T x, size_t k)
{
    size_t i = 0;
    auto bump = [&](const std::string &, auto &leaf) {
        if (i++ != k)
            return;
        if constexpr (std::is_same_v<std::remove_reference_t<
                                         decltype(leaf)>, bool>)
            leaf = !leaf;
        else
            leaf += 1;
    };
    forEachLeaf(x, "", bump);
    return x;
}

std::vector<std::string>
leafPaths(auto x)
{
    std::vector<std::string> paths;
    auto add = [&paths](const std::string &p, auto &) {
        paths.push_back(p);
    };
    forEachLeaf(x, "", add);
    return paths;
}

/** Canonical cycle-level run: every leaf distinct, cycleLevel true. */
core::TripsRun
canonicalRun()
{
    core::TripsRun run = canonical(core::TripsRun());
    EXPECT_TRUE(run.cycleLevel);
    return run;
}

/** A chip result whose vectors are non-empty. */
uarch::ChipResult
sizedChip()
{
    uarch::ChipResult c;
    c.cores.resize(2);
    c.uncore.requestsByCore.resize(2);
    c.uncore.conflictsByCore.resize(2);
    return c;
}

/** Converts to any member type, so T{AnyMember{}, ...} compiles iff
 *  the aggregate T has at least that many members (a C array member
 *  takes one per element, by brace elision). */
struct AnyMember
{
    template <class M>
    operator M() const;
};

template <class T, class... A>
constexpr size_t
memberCount(A... a)
{
    if constexpr (requires { T{a..., AnyMember{}}; })
        return memberCount<T>(a..., AnyMember{});
    else
        return sizeof...(A);
}

/** Members visited by T's forEachField, counted like memberCount. */
template <class T>
size_t
listedMembers(const T &x)
{
    size_t n = 0;
    forEachField(x, [&n](const char *, const auto &m) {
        using M = std::remove_cvref_t<decltype(m)>;
        n += std::is_array_v<M> ? std::extent_v<M> : 1;
    });
    return n;
}

/**
 * The walkers agree with operator== on @p shape: every member of an
 * aggregate but exactly @p unlisted is listed, changing any one
 * leaf of the canonical object breaks ==, and firstDifference names
 * exactly that leaf; putFields/getFields round-trip to an == object.
 */
template <class T>
void
expectWalkersMatchEquality(const T &shape, size_t unlisted = 0)
{
    const T canon = canonical(shape);
    if constexpr (std::is_aggregate_v<T>) {
        EXPECT_EQ(listedMembers(canon) + unlisted, memberCount<T>())
            << "forEachField lists a member too many or too few";
    }
    const auto paths = leafPaths(canon);
    ASSERT_FALSE(paths.empty());
    EXPECT_EQ(std::set<std::string>(paths.begin(), paths.end()).size(),
              paths.size()) << "leaf paths are not unique";
    EXPECT_EQ(firstDifference(canon, canon), "");

    for (size_t k = 0; k < paths.size(); ++k) {
        const T changed = bumped(canon, k);
        EXPECT_FALSE(changed == canon) << paths[k];
        std::string d = firstDifference(changed, canon);
        EXPECT_EQ(d.substr(0, paths[k].size() + 2), paths[k] + ": ") << d;
    }

    sim::ByteWriter w;
    sim::putFields(w, canon);
    sim::ByteReader r(w.data().data(), w.size(), "schema test");
    T back = shape;
    sim::getFields(r, back, "canon");
    r.expectEnd();
    expectSame(back, canon);
}

/** A struct whose list leaves out one member. */
struct PartlyListed
{
    u64 listed = 0;
    u64 unlisted = 0;

    bool operator==(const PartlyListed &) const = default;
};

template <FieldsOf<PartlyListed> S, class V>
void
forEachField(S &s, V &&v)
{
    v("listed", s.listed);
}

} // namespace

TEST(ResultSchema, WalkersMatchEqualityOnEveryStruct)
{
    {
        SCOPED_TRACE("IsaStats");
        expectWalkersMatchEquality(sim::IsaStats());
    }
    {
        SCOPED_TRACE("PassCounters");
        expectWalkersMatchEquality(compiler::PassCounters());
    }
    {
        SCOPED_TRACE("CompileStats");
        expectWalkersMatchEquality(compiler::CompileStats());
    }
    {
        SCOPED_TRACE("NextBlockStats");
        expectWalkersMatchEquality(pred::NextBlockStats());
    }
    {
        SCOPED_TRACE("UarchResult");
        expectWalkersMatchEquality(uarch::UarchResult());
    }
    {
        SCOPED_TRACE("UncoreStats");
        expectWalkersMatchEquality(sizedChip().uncore);
    }
    {
        SCOPED_TRACE("OcnStats");
        expectWalkersMatchEquality(net::OcnStats());
    }
    {
        SCOPED_TRACE("ChipResult");
        expectWalkersMatchEquality(sizedChip());
    }
    {
        SCOPED_TRACE("TripsRun");
        expectWalkersMatchEquality(core::TripsRun());
    }
}

TEST(ResultSchema, FirstDifferenceReportsShapeAndUnlistedMembers)
{
    const auto chip = canonical(sizedChip());
    auto longer = chip;
    longer.cores.emplace_back();
    EXPECT_EQ(firstDifference(chip, longer), "cores: 2 vs 3 entries");

    auto run = canonicalRun();
    auto hop = run;
    hop.uarch.opnHops[3].sample(2);
    const u64 c = run.uarch.opnHops[3].count(2);
    EXPECT_EQ(firstDifference(run, hop),
              "uarch.opnHops[3].count[2]: " + std::to_string(c) + " vs " +
                  std::to_string(c + 1));

    PartlyListed a, b;
    b.unlisted = 1;
    EXPECT_EQ(firstDifference(a, b), "a field outside forEachField differs");
}

TEST(ResultSchema, ArrayCountMismatchNamesTheField)
{
    sim::ByteWriter w;
    sim::putFields(w, canonical(compiler::CompileStats()));
    auto bytes = w.data();
    // The pass[] count prefix follows the 16 scalars (8 u32, 8 u64).
    const size_t at = 8 * 4 + 8 * 8;
    ASSERT_EQ(bytes[at], compiler::NUM_PASSES);
    bytes[at] = compiler::NUM_PASSES + 1;
    sim::ByteReader r(bytes.data(), bytes.size(), "compile stats");
    compiler::CompileStats back;
    try {
        sim::getFields(r, back, "compile");
        FAIL() << "a wrong pass count parsed";
    } catch (const sim::SerialError &e) {
        EXPECT_NE(e.message().find("pass: 8 entries, this build has 7"),
                  std::string::npos) << e.message();
    }
}

// The byte layout of the campaign record and of a checkpoint's stats
// is the forEachField order. These pins were produced by the
// hand-written serializers the field lists replaced: a change to them
// is a format change and must bump CAMPAIGN_FORMAT (campaign record)
// or CKPT_VERSION (checkpoint) and re-pin here.
static_assert(sim::CAMPAIGN_FORMAT == 2 && sim::CKPT_VERSION == 1,
              "format bumped: re-pin the layouts below");
constexpr size_t RECORD_PIN_BYTES = 1999;
constexpr u32 RECORD_PIN_CRC = 4112266728;
constexpr size_t CKPT_PIN_BYTES = 1204;
constexpr u32 CKPT_PIN_CRC = 838218811;

TEST(ResultSchema, CampaignRecordLayoutIsPinnedAndRoundTrips)
{
    std::string dir = testing::TempDir() + "/campaign_schema_test";
    std::filesystem::remove_all(dir);
    const sim::CacheKey key{0x0123456789abcdefULL, 0xfedcba9876543210ULL};
    const core::TripsRun run = canonicalRun();

    sim::CampaignCache cache(dir);
    cache.store(key, run);
    std::vector<u8> bytes;
    ASSERT_TRUE(sim::readFile(dir + "/" + key.hex() + ".trun", bytes));
    EXPECT_EQ(bytes.size(), RECORD_PIN_BYTES);
    EXPECT_EQ(sim::crc32(bytes.data(), bytes.size() - 4), RECORD_PIN_CRC);

    core::TripsRun back;
    ASSERT_TRUE(cache.lookup(key, back));
    expectSame(back, run);
}

TEST(ResultSchema, CheckpointStatsLayoutIsPinnedAndRoundTrips)
{
    sim::Checkpoint ck;
    ck.nextBlock = 7;
    ck.blocksExecuted = 1234;
    ck.callStack = {3, 5};
    ck.stats = canonical(sim::IsaStats());

    auto bytes = sim::serializeCheckpoint(ck);
    EXPECT_EQ(bytes.size(), CKPT_PIN_BYTES);
    EXPECT_EQ(sim::crc32(bytes.data(), bytes.size() - 4), CKPT_PIN_CRC);

    sim::Checkpoint back = sim::deserializeCheckpoint(bytes);
    expectSame(back.stats, ck.stats);
    EXPECT_EQ(back.nextBlock, ck.nextBlock);
    EXPECT_EQ(back.blocksExecuted, ck.blocksExecuted);
    EXPECT_EQ(back.callStack, ck.callStack);
}

TEST(ConfigSchema, WalkersMatchEqualityOnEveryConfig)
{
    {
        // verifyTil and tilDump are the two unlisted debug hooks.
        SCOPED_TRACE("Options");
        expectWalkersMatchEquality(compiler::Options(), 2);
    }
    {
        SCOPED_TRACE("CacheConfig");
        expectWalkersMatchEquality(mem::CacheConfig());
    }
    {
        SCOPED_TRACE("DramConfig");
        expectWalkersMatchEquality(mem::DramConfig());
    }
    {
        SCOPED_TRACE("NextBlockConfig");
        expectWalkersMatchEquality(pred::NextBlockConfig());
    }
    {
        SCOPED_TRACE("UarchConfig");
        expectWalkersMatchEquality(uarch::UarchConfig());
    }
}

TEST(Campaign, KeySeparatesEveryInputDimension)
{
    wir::Module mod = harness::generate(7, harness::ShapeConfig{});
    const auto opts = compiler::Options::compiled();
    const uarch::UarchConfig ucfg;
    const auto base = sim::campaignKey(mod, opts, ucfg, true);

    // Stable for identical inputs.
    EXPECT_EQ(sim::campaignKey(mod, opts, ucfg, true), base);

    // Distinct per module and model level.
    wir::Module mod2 = harness::generate(8, harness::ShapeConfig{});
    EXPECT_NE(sim::campaignKey(mod2, opts, ucfg, true), base);
    EXPECT_NE(sim::campaignKey(mod, opts, ucfg, false), base);

    // Distinct per listed knob of either config, one at a time.
    const auto optPaths = leafPaths(opts);
    for (size_t k = 0; k < optPaths.size(); ++k)
        EXPECT_NE(sim::campaignKey(mod, bumped(opts, k), ucfg, true), base)
            << optPaths[k];
    const auto cfgPaths = leafPaths(ucfg);
    for (size_t k = 0; k < cfgPaths.size(); ++k)
        EXPECT_NE(sim::campaignKey(mod, opts, bumped(ucfg, k), true), base)
            << cfgPaths[k];

    // The debug hooks never split the key space.
    auto verify = opts;
    verify.verifyTil = !verify.verifyTil;
    EXPECT_EQ(sim::campaignKey(mod, verify, ucfg, true), base);
    std::ostringstream sink;
    auto dump = opts;
    dump.tilDump = &sink;
    EXPECT_EQ(sim::campaignKey(mod, dump, ucfg, true), base);
}

// Campaign keys are the config lists' putFields bytes. These pins were
// produced by the hand-written key serializers the lists replaced: a
// changed list is a key change, which needs a CAMPAIGN_FORMAT bump and
// a re-pin here (SIM_VERSION is key material too).
TEST(ConfigSchema, CampaignKeyBytesArePinned)
{
    ASSERT_STREQ(sim::SIM_VERSION, "tripsim-sim-3")
        << "SIM_VERSION bumped: re-pin the keys below";
    const wir::Module mod = harness::generate(7, harness::ShapeConfig{});
    const std::pair<const char *, compiler::Options> optsPresets[] = {
        {"compiled", compiler::Options::compiled()},
        {"hand", compiler::Options::hand()},
        {"basicBlock", compiler::Options::basicBlock()},
    };
    const std::pair<const char *, uarch::UarchConfig> cfgPresets[] = {
        {"prototype", uarch::UarchConfig::prototype()},
        {"smallWindow", uarch::UarchConfig::smallWindow()},
        {"narrowIssue", uarch::UarchConfig::narrowIssue()},
        {"tinyMemory", uarch::UarchConfig::tinyMemory()},
    };
    // (opts, config, cycle-level) in loop order.
    const char *const pins[] = {
        "7ea82b46ea198bcfaa1041624e4471f5",
        "7ea82a46ea19821caa1040624e447042",
        "eaa07f0be748fe174354ad97159d78db",
        "eaa0800be74f08404354ac97159d7728",
        "4ea15e835bc970cb61e5b97438d2dcbc",
        "4ea15f835bc97a7c61e5ba7438d2de6f",
        "7bfc31e517cb739e7b86062f0e8210fe",
        "7bfc32e517cb696d7b86072f0e8212b1",
        "f9d770bb6a4f3924454d10a798ff4b76",
        "f9d76fbb6a4fc6eb454d11a798ff4d29",
        "a778935155a1601d5e1a52a961049934",
        "a778945155a15ed25e1a53a961049ae7",
        "514e41130e8507e435bc27c2fc9d054b",
        "514e42130e85019735bc26c2fc9d0398",
        "6f18bf2ed8e2a0423ea9e8fe1a68455d",
        "6f18be2ed8e2a6113ea9e7fe1a6843aa",
        "d3bf4e5bc448701024474e40494f2cbe",
        "d3bf4f5bc4487e4724474f40494f2e71",
        "414326f6fa7a9efa247dd3b866ff10ac",
        "414325f6fa7a880d247dd4b866ff125f",
        "b78f5c4e83777bb7a98eb0f0bbbd19f3",
        "b78f5d4e837771f8a98eaff0bbbd1840",
        "ee3f5efc648155c0e25bea21321b2e65",
        "ee3f5ffc64815c13e25be921321b2cb2",
    };
    size_t i = 0;
    for (const auto &[oname, opts] : optsPresets) {
        for (const auto &[cname, cfg] : cfgPresets) {
            for (bool cycle : {false, true}) {
                EXPECT_EQ(sim::campaignKey(mod, opts, cfg, cycle).hex(),
                          pins[i++])
                    << oname << " x " << cname << " cycle=" << cycle;
            }
        }
    }

    // Every leaf distinct, bools included: a reordered list or a
    // changed width cannot reproduce these bytes.
    EXPECT_EQ(sim::campaignKey(mod, distinctLeaves(compiler::Options()),
                               distinctLeaves(uarch::UarchConfig()), true)
                  .hex(),
              "1d383818a1a8975beedff017c4e048c4");
}
