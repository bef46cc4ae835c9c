/**
 * @file
 * Substrate unit tests: caches (geometry, LRU, writebacks), the DRAM
 * model (row buffer, bandwidth), the operand network (routing,
 * delivery, hop accounting, backpressure), the predictors, the memory
 * image, and the statistics helpers.
 */

#include <gtest/gtest.h>

#include "mem/cache.hh"
#include "mem/dram.hh"
#include "net/opn.hh"
#include "opn_reference.hh"
#include "pred/predictors.hh"
#include "support/memimage.hh"
#include "support/rng.hh"
#include "support/stats.hh"

using namespace trips;

// ---------------------------------------------------------------------
// Cache
// ---------------------------------------------------------------------

TEST(Cache, HitAfterMiss)
{
    mem::Cache c({1024, 2, 64});
    EXPECT_FALSE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x103f, false).hit);   // same line
    EXPECT_FALSE(c.access(0x1040, false).hit);  // next line
    EXPECT_EQ(c.misses(), 2u);
    EXPECT_EQ(c.hits(), 2u);
}

TEST(Cache, LruEviction)
{
    // 2 sets x 2 ways x 64B = 256B; three lines mapping to one set.
    mem::Cache c({256, 2, 64});
    Addr a = 0x0, b = 0x100, d = 0x200;   // same set (stride 128*2)
    c.access(a, false);
    c.access(b, false);
    c.access(a, false);          // a most recent
    EXPECT_FALSE(c.access(d, false).hit);  // evicts b
    EXPECT_TRUE(c.probe(a));
    EXPECT_FALSE(c.probe(b));
    EXPECT_TRUE(c.probe(d));
}

TEST(Cache, DirtyWriteback)
{
    mem::Cache c({256, 2, 64});
    c.access(0x0, true);         // dirty
    c.access(0x100, false);
    auto r = c.access(0x200, false);   // evicts dirty 0x0
    EXPECT_TRUE(r.writeback);
    EXPECT_EQ(r.victimLine, 0x0u);
    EXPECT_EQ(c.writebacks(), 1u);
}

TEST(CacheParam, MissRateFallsWithSize)
{
    // Property: bigger caches never miss more on the same trace.
    Rng rng(42);
    std::vector<Addr> trace;
    for (int i = 0; i < 20000; ++i)
        trace.push_back((rng.below(512) * 64) % 32768);
    double last = 1.0;
    for (u64 size : {1024, 4096, 16384, 65536}) {
        mem::Cache c({size, 4, 64});
        for (Addr a : trace)
            c.access(a, false);
        EXPECT_LE(c.missRate(), last + 1e-9) << size;
        last = c.missRate();
    }
    EXPECT_LT(last, 0.03);   // only cold misses remain (512/20000)
}

// ---------------------------------------------------------------------
// DRAM
// ---------------------------------------------------------------------

TEST(Dram, RowBufferHitsAreFaster)
{
    mem::Dram d(mem::DramConfig{});
    Cycle first = d.request(0x0, 1000);
    // Same channel, same bank, same row: line 16 (channels*banks).
    Cycle second = d.request(16 * 64, first);
    EXPECT_GT(first - 1000, second - first);
    EXPECT_GE(d.rowHits(), 1u);
}

TEST(Dram, BandwidthLimited)
{
    mem::DramConfig cfg;
    mem::Dram d(cfg);
    // Saturate: issue 64 line requests at the same cycle.
    Cycle last = 0;
    for (int i = 0; i < 64; ++i)
        last = std::max(last, d.request(static_cast<Addr>(i) * 64, 0));
    // 64 transfers across 2 channels, each occupying the bus.
    EXPECT_GE(last, 64ull / 2 * cfg.cyclesPerTransfer);
}

// ---------------------------------------------------------------------
// OPN
// ---------------------------------------------------------------------

TEST(Opn, DeliversWithManhattanHops)
{
    net::OpnNetwork opn;
    net::OpnPacket p;
    p.src = isa::opnNode(isa::etCoord(0));    // (1,1)
    p.dst = isa::opnNode(isa::etCoord(15));   // (4,4)
    p.cls = net::OpnClass::EtEt;
    p.tag = 77;
    ASSERT_TRUE(opn.inject(p));
    Cycle t = 0;
    bool got = false;
    while (t < 50 && !got) {
        ++t;
        opn.tick();
        for (const auto &d : opn.delivered()) {
            EXPECT_EQ(d.tag, 77u);
            EXPECT_EQ(d.hops, 6u);
            got = true;
        }
    }
    EXPECT_TRUE(got);
    // Latency at least hop count.
    EXPECT_GE(t, 6u);
    EXPECT_EQ(opn.hopDist(net::OpnClass::EtEt).samples(), 1u);
}

TEST(Opn, AllPairsDeliverExactlyOnce)
{
    net::OpnNetwork opn;
    unsigned sent = 0;
    u64 tag = 1;
    for (unsigned s = 0; s < net::OpnNetwork::NODES; ++s) {
        net::OpnPacket p;
        p.src = s;
        p.dst = (s * 7 + 3) % net::OpnNetwork::NODES;
        p.tag = tag++;
        p.cls = net::OpnClass::Other;
        if (opn.inject(p))
            ++sent;
    }
    unsigned received = 0;
    for (Cycle t = 1; t < 200; ++t) {
        opn.tick();
        received += static_cast<unsigned>(opn.delivered().size());
    }
    EXPECT_EQ(received, sent);
}

TEST(Opn, BackpressureOnFullFifo)
{
    net::OpnNetwork opn;
    net::OpnPacket p;
    p.src = 0;
    p.dst = 24;
    unsigned accepted = 0;
    for (int i = 0; i < 10; ++i)
        accepted += opn.inject(p);
    EXPECT_EQ(accepted, net::OpnNetwork::FIFO_DEPTH);
}

namespace {

/** The router under test and the reference router, driven in lockstep. */
struct OpnLockstep
{
    net::OpnNetwork opn;
    net::ref::OpnNetwork ref;
    u32 tag = 0;
    unsigned ticks = 0;
    u64 rejected = 0, delivered = 0;

    /** Offer one packet to both; their verdicts must agree. */
    void
    inject(unsigned src, unsigned dst, net::OpnClass cls)
    {
        net::OpnPacket p;
        p.src = static_cast<u8>(src);
        p.dst = static_cast<u8>(dst);
        p.cls = cls;
        p.tag = tag++;
        net::ref::OpnPacket r;
        r.src = p.src;
        r.dst = p.dst;
        r.cls = p.cls;
        r.tag = p.tag;
        bool ok = opn.inject(p);
        ASSERT_EQ(ok, ref.inject(r, 0)) << "inject of tag " << p.tag;
        rejected += !ok;
    }

    /** Tick both; the deliveries must agree in order and content. */
    void
    tick()
    {
        const unsigned t = ticks++;
        opn.tick();
        ref.tick(t);
        const auto &got = opn.delivered();
        const auto &want = ref.delivered();
        ASSERT_EQ(got.size(), want.size()) << "tick " << t;
        for (size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].tag, want[i].tag) << "tick " << t;
            EXPECT_EQ(got[i].hops, want[i].hops) << "tick " << t;
            EXPECT_EQ(got[i].src, want[i].src);
            EXPECT_EQ(got[i].dst, want[i].dst);
            EXPECT_EQ(got[i].cls, want[i].cls);
        }
        delivered += got.size();
    }

    /** Every packet sent was delivered, with equal hop histograms. */
    void
    expectDrainedAndEqual()
    {
        EXPECT_EQ(opn.packetsSent(), ref.packetsSent());
        EXPECT_EQ(delivered, opn.packetsSent()) << "drain incomplete";
        const auto classes =
            static_cast<unsigned>(net::OpnClass::NUM_CLASSES);
        for (unsigned c = 0; c < classes; ++c) {
            auto cls = static_cast<net::OpnClass>(c);
            EXPECT_EQ(opn.hopDist(cls), ref.hopDist(cls)) << "class " << c;
        }
    }
};

} // namespace

/**
 * Differential check of the OPN router against the reference copy of
 * the previous implementation (tests/opn_reference.hh). First a
 * directed case for the grant lists' bound, then seeded random
 * traffic mixing uniform packets, same-source bursts that overflow the
 * local FIFO, and hotspot phases that back flits up through the mesh.
 * Every tick compares each inject verdict and the delivery list
 * (order, tag, hops); the end compares every per-class hop histogram.
 */
TEST(Opn, MatchesReferenceRouterUnderRandomTraffic)
{
    constexpr unsigned N = net::OpnNetwork::NODES;
    const auto classes = static_cast<unsigned>(net::OpnClass::NUM_CLASSES);
    const auto cls = net::OpnClass::Other;

    // Directed: every router ejects in one tick while node N-1, the
    // last one arbitrated, holds a second flit, so arbitration visits
    // one more input after the N-th eject grant. Node 0 forwards in
    // the same tick, so a grant-list overrun would corrupt a live
    // forward. The second flit either ejects too (always visited after
    // the grant) or turns west (visited after it in some round-robin
    // phases), at every phase.
    for (unsigned phase = 0; phase < net::OpnNetwork::PORTS; ++phase) {
        for (bool turns : {false, true}) {
            SCOPED_TRACE(testing::Message() << "phase " << phase
                                            << " turns " << turns);
            OpnLockstep ls;
            for (unsigned i = 0; i < phase; ++i)
                ASSERT_NO_FATAL_FAILURE(ls.tick());
            // One tick moves these into a neighbour's input FIFO.
            ASSERT_NO_FATAL_FAILURE(ls.inject(1, 0, cls));   // 0's E input
            if (turns)   // down to N-1's N input, then west
                ASSERT_NO_FATAL_FAILURE(ls.inject(N - 1 - isa::OPN_COLS,
                                                  N - 2, cls));
            else         // N-1's W input, ejecting there
                ASSERT_NO_FATAL_FAILURE(ls.inject(N - 2, N - 1, cls));
            ASSERT_NO_FATAL_FAILURE(ls.tick());
            ASSERT_EQ(ls.delivered, 0u);
            // Every local input holds a flit for its own router, except
            // node 0's, which heads east while node 0 ejects the flit
            // on its E input.
            for (unsigned n = 0; n < N; ++n)
                ASSERT_NO_FATAL_FAILURE(ls.inject(n, n == 0 ? 1 : n, cls));
            ASSERT_NO_FATAL_FAILURE(ls.tick());
            ASSERT_EQ(ls.delivered, N) << "every router ejects at once";
            for (unsigned i = 0; i < 20; ++i)
                ASSERT_NO_FATAL_FAILURE(ls.tick());
            ls.expectDrainedAndEqual();
        }
    }

    for (u64 seed = 1; seed <= 24; ++seed) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        Rng rng(seed);
        OpnLockstep ls;
        auto attempt = [&](unsigned src, unsigned dst) {
            ls.inject(src, dst, static_cast<net::OpnClass>(
                                    rng.below(classes)));
        };
        const unsigned ticks = 3000;
        for (unsigned t = 0; t < ticks + 200; ++t) {
            ASSERT_NO_FATAL_FAILURE(ls.tick());
            if (t >= ticks)
                continue;   // drain phase: no new traffic
            // Phases of 250 ticks cycle through the traffic shapes.
            const unsigned phase = (t / 250 + static_cast<unsigned>(seed)) % 3;
            const unsigned hot = static_cast<unsigned>(rng.below(N));
            const unsigned n = static_cast<unsigned>(rng.below(7));
            for (unsigned k = 0; k < n; ++k) {
                unsigned src = static_cast<unsigned>(rng.below(N));
                unsigned dst = static_cast<unsigned>(rng.below(N));
                if (phase == 1)
                    dst = (t / 250 * 7) % N;   // hotspot sink
                ASSERT_NO_FATAL_FAILURE(attempt(src, dst));
            }
            if (phase == 2 && rng.chance(0.3)) {
                // Same-source burst, longer than the local FIFO.
                for (unsigned k = 0; k < 6; ++k)
                    ASSERT_NO_FATAL_FAILURE(
                        attempt(hot, static_cast<unsigned>(rng.below(N))));
            }
        }
        EXPECT_GT(ls.rejected, 0u) << "traffic never filled a FIFO";
        ls.expectDrainedAndEqual();
    }
}

// ---------------------------------------------------------------------
// Predictors
// ---------------------------------------------------------------------

TEST(Tournament, LearnsBiasAndPattern)
{
    pred::TournamentPredictor tp;
    // Strong taken bias.
    for (int i = 0; i < 100; ++i)
        tp.update(0x40, true);
    EXPECT_TRUE(tp.predict(0x40));
    // Alternating pattern learned via local history.
    for (int i = 0; i < 2000; ++i)
        tp.update(0x80, i & 1);
    int correct = 0;
    for (int i = 0; i < 100; ++i) {
        bool taken = i & 1;
        correct += tp.predict(0x80) == taken;
        tp.update(0x80, taken);
    }
    EXPECT_GT(correct, 90);
}

TEST(NextBlock, LearnsLoopExitAndTarget)
{
    pred::NextBlockPredictor nbp(pred::NextBlockConfig::prototype());
    // Block 5 loops to itself on exit 0 nine times, then exit 1 to 6.
    for (int rep = 0; rep < 50; ++rep) {
        for (int i = 0; i < 9; ++i)
            nbp.update(5, 0, 5, pred::BranchKind::Branch, 0);
        nbp.update(5, 1, 6, pred::BranchKind::Branch, 0);
        nbp.update(6, 0, 5, pred::BranchKind::Branch, 0);
    }
    // After warmup: the common case must predict correctly.
    auto p = nbp.predict(5);
    EXPECT_TRUE(p.valid);
    EXPECT_TRUE(p.nextBlock == 5 || p.nextBlock == 6);
    double rate = nbp.stats().missRate();
    EXPECT_LT(rate, 0.35);   // dominated by the 9-in-10 self loop
}

TEST(NextBlock, RasPredictsReturns)
{
    pred::NextBlockPredictor nbp(pred::NextBlockConfig::improved());
    // call block 1 -> 10, return to 2; callee 10 rets.
    for (int rep = 0; rep < 30; ++rep) {
        nbp.update(1, 0, 10, pred::BranchKind::Call, 2);
        nbp.update(10, 0, 2, pred::BranchKind::Ret, 0);
        nbp.update(2, 0, 1, pred::BranchKind::Branch, 0);
    }
    nbp.update(1, 0, 10, pred::BranchKind::Call, 2);
    auto p = nbp.predict(10);
    EXPECT_TRUE(p.valid);
    EXPECT_EQ(p.nextBlock, 2u);
    nbp.update(10, 0, 2, pred::BranchKind::Ret, 0);
}

TEST(DependencePredictor, TrainsAndDecays)
{
    pred::DependencePredictor dp(256);
    EXPECT_FALSE(dp.shouldWait(0x123));
    dp.trainViolation(0x123);
    EXPECT_TRUE(dp.shouldWait(0x123));
    EXPECT_FALSE(dp.shouldWait(0x456));
    for (int i = 0; i < 3 * 4096 + 10; ++i)
        dp.decayTick();
    EXPECT_FALSE(dp.shouldWait(0x123));
}

// ---------------------------------------------------------------------
// MemImage & stats
// ---------------------------------------------------------------------

TEST(MemImage, LittleEndianAndSparse)
{
    MemImage m;
    m.write(0x1000, 0x1122334455667788ULL, 8);
    EXPECT_EQ(m.read8(0x1000), 0x88);
    EXPECT_EQ(m.read8(0x1007), 0x11);
    EXPECT_EQ(m.read(0x1002, 2), 0x5566u);
    EXPECT_EQ(m.read64(0x900000), 0u);   // untouched reads zero
    m.writeF64(0x2000, 3.25);
    EXPECT_DOUBLE_EQ(m.readF64(0x2000), 3.25);
    EXPECT_LE(m.residentPages(), 3u);
}

TEST(Stats, DistributionAndMeans)
{
    Distribution d(8);
    d.sample(0, 10);
    d.sample(3, 10);
    d.sample(100);   // clamps into last bucket
    EXPECT_EQ(d.samples(), 21u);
    EXPECT_DOUBLE_EQ(d.fraction(0), 10.0 / 21);
    EXPECT_EQ(d.count(7), 1u);
    EXPECT_NEAR(d.mean(), (0 * 10 + 3 * 10 + 100) / 21.0, 1e-9);

    EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-9);
    EXPECT_NEAR(amean({1.0, 2.0, 3.0}), 2.0, 1e-9);
    EXPECT_EQ(geomean({}), 0.0);
}

TEST(Rng, DeterministicAndBounded)
{
    Rng a(7), b(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
    Rng c(9);
    for (int i = 0; i < 1000; ++i) {
        i64 v = c.range(-5, 5);
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 5);
        double u = c.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}
