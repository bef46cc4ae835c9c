/**
 * @file
 * The benchmark command:
 *
 *   perfbench --workload figures|fuzz|chip_mix --seed N --seconds S
 *             --trace 0|1
 *
 * Run from the repository root: it reads perfbench/pins.txt and writes
 * cache dirs, traces and ledgers under .bench_build/out. Sets the
 * workload up cold several times, each in a fresh process (setup_s is
 * the median), then runs timed passes for S seconds, checks every pass
 * against the oracles and the pinned digest, and prints as its last
 * stdout line
 * one JSON object {"correct", "attempted", "failed", "metrics"}:
 * the end-to-end metrics untraced, the per-layer metrics traced.
 * Exits 0 only if every check passed.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <string>
#include <vector>

namespace perfbench {

/** Metric names printed by untraced (end-to-end) and traced runs;
 *  BENCHMARK.json lists the same names. */
const std::vector<std::string> &endToEndNames();
const std::vector<std::string> &perLayerNames();

int benchMain(int argc, char **argv);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
