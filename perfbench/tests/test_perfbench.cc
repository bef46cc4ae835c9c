/**
 * @file
 * Tests of the benchmark itself: span arithmetic, the traced flow's
 * bit-identity with the untraced one, and the pinned-digest gate.
 */

#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "compiler/options.hh"
#include "digest.hh"
#include "harness/sweep.hh"
#include "sim/checkpoint.hh"
#include "spans.hh"
#include "workloads.hh"
#include "workloads/workload.hh"

using namespace perfbench;

namespace {

Span
mk(const char *name, u64 start, u64 end, i32 parent, u32 lane = 0)
{
    Span s;
    s.name = name;
    s.start = start;
    s.end = end;
    s.parent = parent;
    s.lane = lane;
    return s;
}

} // namespace

TEST(SpanArithmetic, SelfTimeSubtractsDirectChildrenOnly)
{
    // lane 0: task[0,100] { compile[10,40], cycle[50,90] { mem[60,70] } }
    // lane 1: task[5,25] { func[5,20] }
    std::vector<Span> spans = {
        mk("harness.task", 0, 100, -1),
        mk("compiler.compile", 10, 40, 0),
        mk("uarch.cycle", 50, 90, 0),
        mk("mem.access", 60, 70, 2),
        mk("harness.task", 5, 25, -1, 1),
        mk("trips.func", 5, 20, 4, 1),
    };
    SelfTimes st = selfTimes(spans);
    EXPECT_EQ(st.selfNs["harness"], 30u + 5u);
    EXPECT_EQ(st.selfNs["compiler"], 30u);
    EXPECT_EQ(st.selfNs["uarch"], 30u);
    EXPECT_EQ(st.selfNs["mem"], 10u);
    EXPECT_EQ(st.selfNs["trips"], 15u);
    EXPECT_EQ(st.totalNs["uarch.cycle"], 40u);
    EXPECT_EQ(st.count["harness.task"], 2u);
    EXPECT_EQ(st.rootNs, 120u);
    u64 sum = 0;
    for (const auto &[layer, ns] : st.selfNs)
        sum += ns;
    EXPECT_EQ(sum, st.rootNs);
}

TEST(SpanArithmetic, RejectsChildOutsideParent)
{
    std::vector<Span> spans = {mk("harness.task", 0, 10, -1),
                               mk("uarch.cycle", 5, 15, 0)};
    EXPECT_THROW(selfTimes(spans), std::logic_error);
}

TEST(SpanArithmetic, RejectsOverlappingChildren)
{
    std::vector<Span> spans = {mk("harness.task", 0, 10, -1),
                               mk("uarch.cycle", 0, 8, 0),
                               mk("trips.func", 2, 10, 0)};
    EXPECT_THROW(selfTimes(spans), std::logic_error);
}

TEST(SpanArithmetic, OutsideTimeComesFromGapsBetweenRootSpans)
{
    // Window [0,100] on 3 lanes: lane 0 has roots [10,40] and [50,90],
    // lane 1 has [0,100], lane 2 records nothing.
    std::vector<Span> spans = {
        mk("harness.task", 10, 40, -1),
        mk("uarch.cycle", 20, 30, 0),
        mk("harness.task", 50, 90, -1),
        mk("harness.task", 0, 100, -1, 1),
    };
    EXPECT_EQ(outsideNs(spans, 0, 100, 3), 30u + 0u + 100u);
    EXPECT_EQ(outsideNs(spans, 0, 100, 3) + selfTimes(spans).rootNs, 300u);
    EXPECT_THROW(outsideNs(spans, 0, 100, 1), std::logic_error);
}

TEST(SpanArithmetic, OutsideTimeExposesRootsThatDoNotTileTheWindow)
{
    // Overlapping roots and a root past the window's end both make the
    // gaps plus the root total exceed lanes x window.
    std::vector<Span> overlap = {mk("harness.task", 0, 60, -1),
                                 mk("harness.task", 40, 80, -1)};
    EXPECT_EQ(outsideNs(overlap, 0, 100, 1), 20u);
    EXPECT_GT(outsideNs(overlap, 0, 100, 1) + selfTimes(overlap).rootNs,
              100u);
    std::vector<Span> late = {mk("harness.task", 50, 130, -1)};
    EXPECT_EQ(outsideNs(late, 0, 100, 1), 50u);
    EXPECT_GT(outsideNs(late, 0, 100, 1) + selfTimes(late).rootNs, 100u);
}

TEST(SpanArithmetic, AmdahlBound)
{
    // The CI gate's shape: one long core and three short ones.
    EXPECT_DOUBLE_EQ(amdahlBound({410, 60, 70, 60}), 600.0 / 410.0);
    EXPECT_DOUBLE_EQ(amdahlBound({5, 5, 5, 5}), 4.0);
    EXPECT_DOUBLE_EQ(amdahlBound({}), 0.0);
}

TEST(SpanArithmetic, AdoptedLaneNestsUnderTheOpenSpan)
{
    Lane parent;
    parent.open("harness.task", 1);
    parent.open("harness.guard", 1);
    Lane child;
    child.open("compiler.compile", 1);
    child.close();
    child.open("uarch.cycle", 1);
    child.aggregate("mem.access", 1, 0);
    child.close();
    parent.adopt(child);
    parent.close();
    parent.close();

    const auto &s = parent.spans();
    ASSERT_EQ(s.size(), 5u);
    EXPECT_EQ(s[2].parent, 1);  // compile under guard
    EXPECT_EQ(s[3].parent, 1);  // cycle under guard
    EXPECT_EQ(s[4].parent, 3);  // mem under cycle
    SelfTimes st = selfTimes(s);
    EXPECT_EQ(st.count["mem.access"], 1u);
}

TEST(Permutation, IsASeededShuffle)
{
    auto a = permutation(235, 1), b = permutation(235, 1);
    auto c = permutation(235, 2);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    std::sort(c.begin(), c.end());
    for (u64 i = 0; i < c.size(); ++i)
        EXPECT_EQ(c[i], i);
}

/** Every simulated statistic and both final memory images. */
std::string
tripsDigest(const TripsOut &t)
{
    trips::sim::ByteWriter w;
    putTripsRun(w, t.run);
    w.u64v(t.decodedFallbacks);
    trips::sim::putMemImage(w, t.funcMem);
    trips::sim::putMemImage(w, t.cycleMem);
    return digestHex(w);
}

TEST(TracedFlow, LeavesEverySimulatedStatisticIdentical)
{
    // The timing UncorePort and the spans must not perturb the model:
    // every registered workload, every field of the run records.
    const auto &all = trips::workloads::all();
    std::vector<std::string> plain(all.size()), traced(all.size());
    std::vector<u64> accesses(all.size()), memSpans(all.size());
    trips::harness::SweepPool pool(4);
    pool.parallelFor(all.size(), [&](u64 i) {
        trips::wir::Module mod;
        all[i].build(mod);
        const auto opts = trips::compiler::Options::compiled();
        const trips::uarch::UarchConfig ucfg;
        plain[i] = tripsDigest(tripsFlow(mod, opts, true, ucfg, nullptr, i));
        Lane lane;
        TripsOut t = tripsFlow(mod, opts, true, ucfg, &lane, i);
        traced[i] = tripsDigest(t);
        accesses[i] = t.memAccesses;
        memSpans[i] = selfTimes(lane.spans()).count["mem.access"];
    });
    for (size_t i = 0; i < all.size(); ++i) {
        EXPECT_EQ(plain[i], traced[i]) << all[i].name;
        EXPECT_GT(accesses[i], 0u) << all[i].name;
        EXPECT_EQ(memSpans[i], 1u) << all[i].name;
    }
}

namespace {

/** The command's working directory: it reads perfbench/pins.txt and
 *  writes .bench_build/out there. */
const std::string kRunDir = "pinned-digest-run";

/** Run the benchmark command in kRunDir; returns its exit code, output
 *  in @p out. */
int
runCommand(const std::string &args, std::string &out)
{
    const std::string log = "perfbench-test.log";
    std::string cmd = "cd " + kRunDir + " && " + PERFBENCH_EXE + " " + args +
                      " > ../" + log + " 2>&1";
    int rc = std::system(cmd.c_str());
    std::ifstream in(log);
    std::stringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

void
writePins(const std::string &text)
{
    std::filesystem::create_directories(kRunDir + "/perfbench");
    std::ofstream(kRunDir + "/perfbench/pins.txt") << text;
}

} // namespace

TEST(PinnedDigest, CorruptedPinFailsTheCommand)
{
    const std::string args =
        "--workload fuzz --seed 7 --seconds 0.1 --trace 0";
    std::string out;

    writePins("# no pins\n");
    ASSERT_EQ(runCommand(args, out), 0) << out;
    std::smatch m;
    ASSERT_TRUE(std::regex_search(
        out, m, std::regex("digest fuzz seed=7 ([0-9a-f]{32})")))
        << out;
    std::string digest = m[1];

    writePins("fuzz 7 " + digest + "\n");
    EXPECT_EQ(runCommand(args, out), 0) << out;
    EXPECT_NE(out.find("\"correct\": true"), std::string::npos) << out;

    digest[5] = digest[5] == '0' ? '1' : '0';
    writePins("fuzz 7 " + digest + "\n");
    EXPECT_EQ(runCommand(args, out), 1) << out;
    EXPECT_NE(out.find("\"correct\": false"), std::string::npos) << out;
    EXPECT_NE(out.find("!= pinned"), std::string::npos) << out;
}

TEST(PinnedDigest, EveryWorkloadIsPinnedAtItsDefaultSeed)
{
    std::ifstream in(PERFBENCH_PINS);
    ASSERT_TRUE(in) << PERFBENCH_PINS;
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    EXPECT_NE(text.find("\nfigures * "), std::string::npos);
    EXPECT_NE(text.find("\nfuzz 1 "), std::string::npos);
    EXPECT_NE(text.find("\nchip_mix 1 "), std::string::npos);
}
