/**
 * @file
 * Lightweight statistics primitives used across the simulators: named
 * scalar counters, distributions, and a registry that can dump itself.
 * Modeled loosely on gem5's Stats package at much smaller scale.
 */

#ifndef TRIPSIM_SUPPORT_STATS_HH
#define TRIPSIM_SUPPORT_STATS_HH

#include <map>
#include <string>
#include <vector>

#include "support/common.hh"

namespace trips {

/** A running scalar statistic (count + sum for means). */
class Counter
{
  public:
    Counter() = default;

    void add(double v = 1.0) { _sum += v; ++_samples; }
    void reset() { _sum = 0; _samples = 0; }

    double sum() const { return _sum; }
    u64 samples() const { return _samples; }
    double mean() const { return _samples ? _sum / _samples : 0.0; }

  private:
    double _sum = 0;
    u64 _samples = 0;
};

/** Bucketed distribution over small non-negative integers (e.g. hops). */
class Distribution
{
  public:
    explicit Distribution(unsigned num_buckets = 16)
        : buckets(num_buckets, 0)
    {}

    /** Record one sample; values beyond the last bucket clamp into it. */
    void
    sample(u64 value, u64 weight = 1)
    {
        unsigned idx = value >= buckets.size()
            ? static_cast<unsigned>(buckets.size() - 1)
            : static_cast<unsigned>(value);
        buckets[idx] += weight;
        total += weight;
        weighted_sum += value * weight;
    }

    u64 count(unsigned bucket) const { return buckets.at(bucket); }
    u64 samples() const { return total; }
    unsigned numBuckets() const { return static_cast<unsigned>(buckets.size()); }

    /** Fraction of samples in a bucket, 0 if empty. */
    double
    fraction(unsigned bucket) const
    {
        return total ? static_cast<double>(buckets.at(bucket)) / total : 0.0;
    }

    double
    mean() const
    {
        return total ? static_cast<double>(weighted_sum) / total : 0.0;
    }

    /** Accumulate another distribution into this one (bucket-wise;
     *  buckets beyond our last clamp into it; the weighted sum is
     *  carried over exactly). */
    void
    merge(const Distribution &o)
    {
        for (unsigned b = 0; b < o.numBuckets(); ++b) {
            unsigned idx = b >= buckets.size()
                ? static_cast<unsigned>(buckets.size() - 1) : b;
            buckets[idx] += o.buckets[b];
        }
        total += o.total;
        weighted_sum += o.weighted_sum;
    }

    void
    reset()
    {
        std::fill(buckets.begin(), buckets.end(), 0);
        total = 0;
        weighted_sum = 0;
    }

    /**
     * Nearest-rank percentile over the bucketed samples: the smallest
     * bucket value v such that at least ceil(q/100 * N) samples fall
     * in buckets <= v. Clamped samples report the last bucket's index
     * (the same saturation sample() applied). 0 on an empty
     * distribution. @p q must be in (0, 100].
     */
    u64
    percentile(double q) const
    {
        if (!total)
            return 0;
        // ceil(q/100 * N) without floating-point edge drift for the
        // common integer cases (q = 50, 90, 99).
        u64 rank = static_cast<u64>(q * static_cast<double>(total) / 100.0);
        if (static_cast<double>(rank) * 100.0 <
            q * static_cast<double>(total))
            ++rank;
        if (rank == 0)
            rank = 1;
        u64 cum = 0;
        for (unsigned b = 0; b < buckets.size(); ++b) {
            cum += buckets[b];
            if (cum >= rank)
                return b;
        }
        return buckets.size() - 1;  // unreachable: cum == total >= rank
    }

    u64 p50() const { return percentile(50); }
    u64 p90() const { return percentile(90); }
    u64 p99() const { return percentile(99); }

    // Raw state access for exact serialization (campaign cache):
    // clamped samples make the weighted sum unrecoverable from the
    // buckets alone, so it round-trips explicitly.
    u64 weightedSum() const { return weighted_sum; }

    /** Every bucket, the sample count and the weighted sum match. */
    bool operator==(const Distribution &) const = default;

    /** Rebuild from serialized raw state (inverse of the accessors). */
    void
    restoreRaw(std::vector<u64> counts, u64 weighted)
    {
        buckets = std::move(counts);
        total = 0;
        for (u64 c : buckets)
            total += c;
        weighted_sum = weighted;
    }

  private:
    std::vector<u64> buckets;
    u64 total = 0;
    u64 weighted_sum = 0;
};

/** Geometric mean over a set of ratios; ignores non-positive inputs. */
double geomean(const std::vector<double> &values);

/** Arithmetic mean; 0 for empty input. */
double amean(const std::vector<double> &values);

/** String-keyed bag of scalar statistics for ad-hoc reporting. */
class StatSet
{
  public:
    Counter &operator[](const std::string &name) { return counters[name]; }

    const std::map<std::string, Counter> &all() const { return counters; }

    /** Sum of the named counter, 0 if absent. */
    double
    get(const std::string &name) const
    {
        auto it = counters.find(name);
        return it == counters.end() ? 0.0 : it->second.sum();
    }

  private:
    std::map<std::string, Counter> counters;
};

} // namespace trips

#endif // TRIPSIM_SUPPORT_STATS_HH
