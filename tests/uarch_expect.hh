/**
 * @file
 * One comparator for cycle-level results, shared by the tests that
 * demand bit-identical runs (observed vs plain, chip vs solo, parallel
 * vs serial). Each field is checked on its own so a failure names it,
 * and the defaulted UarchResult::operator== then catches any field the
 * list below does not name.
 */

#ifndef TRIPSIM_TESTS_UARCH_EXPECT_HH
#define TRIPSIM_TESTS_UARCH_EXPECT_HH

#include <gtest/gtest.h>

#include "uarch/cycle_sim.hh"

namespace trips::testutil {

inline void
expectSameUarch(const uarch::UarchResult &a, const uarch::UarchResult &b)
{
    EXPECT_EQ(a.retVal, b.retVal);
    EXPECT_EQ(a.fuelExhausted, b.fuelExhausted);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.blocksCommitted, b.blocksCommitted);
    EXPECT_EQ(a.blocksFlushed, b.blocksFlushed);
    EXPECT_EQ(a.instsFetched, b.instsFetched);
    EXPECT_EQ(a.instsFired, b.instsFired);
    EXPECT_EQ(a.branchMispredicts, b.branchMispredicts);
    EXPECT_EQ(a.callRetMispredicts, b.callRetMispredicts);
    EXPECT_EQ(a.loadViolationFlushes, b.loadViolationFlushes);
    EXPECT_EQ(a.icacheMissStalls, b.icacheMissStalls);
    EXPECT_EQ(a.l1dHits, b.l1dHits);
    EXPECT_EQ(a.l1dMisses, b.l1dMisses);
    EXPECT_EQ(a.l1iHits, b.l1iHits);
    EXPECT_EQ(a.l1iMisses, b.l1iMisses);
    EXPECT_EQ(a.l2Hits, b.l2Hits);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
    EXPECT_EQ(a.l1dWritebacks, b.l1dWritebacks);
    EXPECT_EQ(a.l2Writebacks, b.l2Writebacks);
    EXPECT_EQ(a.loadsExecuted, b.loadsExecuted);
    EXPECT_EQ(a.storesCommitted, b.storesCommitted);
    EXPECT_EQ(a.bytesL1, b.bytesL1);
    EXPECT_EQ(a.bytesL2, b.bytesL2);
    EXPECT_EQ(a.bytesMem, b.bytesMem);
    EXPECT_EQ(a.avgBlocksInFlight, b.avgBlocksInFlight);
    EXPECT_EQ(a.avgInstsInFlight, b.avgInstsInFlight);
    EXPECT_EQ(a.peakInstsInFlight, b.peakInstsInFlight);
    EXPECT_EQ(a.predictor.predictions, b.predictor.predictions);
    EXPECT_EQ(a.predictor.mispredictions, b.predictor.mispredictions);
    EXPECT_EQ(a.predictor.exitMispredicts, b.predictor.exitMispredicts);
    EXPECT_EQ(a.predictor.targetMispredicts, b.predictor.targetMispredicts);
    EXPECT_EQ(a.predictor.callRetMispredicts,
              b.predictor.callRetMispredicts);
    EXPECT_EQ(a.opnPackets, b.opnPackets);
    EXPECT_EQ(a.localBypasses, b.localBypasses);
    for (size_t c = 0; c < a.opnHops.size(); ++c) {
        const Distribution &da = a.opnHops[c], &db = b.opnHops[c];
        ASSERT_EQ(da.numBuckets(), db.numBuckets()) << "class " << c;
        for (unsigned h = 0; h < da.numBuckets(); ++h)
            EXPECT_EQ(da.count(h), db.count(h))
                << "class " << c << " bucket " << h;
        EXPECT_EQ(da.weightedSum(), db.weightedSum()) << "class " << c;
    }
    EXPECT_TRUE(a == b) << "a UarchResult field not listed above differs";
}

} // namespace trips::testutil

#endif // TRIPSIM_TESTS_UARCH_EXPECT_HH
