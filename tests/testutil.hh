/**
 * @file
 * Shared test helpers.
 *
 * expectSame() is the one comparator for result structs (IsaStats,
 * CompileStats, UarchResult, ChipResult, TripsRun, ...): operator==
 * decides, and a failure names the first differing field path from
 * the struct's forEachField list (support/fields.hh).
 *
 * slowScale() implements the two-tier suite split: expensive sweeps
 * run with a bounded iteration count by default (the tier-1 `ctest`
 * budget stays roughly flat as suites grow) and at full scale when
 * TRIPSIM_SLOW_TESTS is set — which the `slow`-labeled ctest entries
 * do (configure with -DTRIPSIM_SLOW_TESTS=ON, run `ctest -L slow`).
 */

#ifndef TRIPSIM_TESTS_TESTUTIL_HH
#define TRIPSIM_TESTS_TESTUTIL_HH

#include <gtest/gtest.h>

#include <cstdlib>

#include "support/common.hh"
#include "support/fields.hh"

namespace trips::testutil {

/** Every field of @p a equals @p b's, or the failure names the first
 *  field that differs. */
template <class T>
void
expectSame(const T &a, const T &b)
{
    EXPECT_TRUE(a == b) << firstDifference(a, b);
}

inline bool
slowTestsEnabled()
{
    const char *e = std::getenv("TRIPSIM_SLOW_TESTS");
    return e && *e && *e != '0';
}

/** @return @p full under TRIPSIM_SLOW_TESTS, else @p bounded. */
inline u64
slowScale(u64 bounded, u64 full)
{
    return slowTestsEnabled() ? full : bounded;
}

} // namespace trips::testutil

#endif // TRIPSIM_TESTS_TESTUTIL_HH
