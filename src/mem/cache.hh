/**
 * @file
 * Set-associative write-back cache model with LRU replacement. Timing
 * is managed by the owning simulator; this class tracks contents and
 * hit/miss/writeback statistics. Used for TRIPS L1D banks, the L1I
 * banks, the L2 NUCA banks, and the OoO reference models' hierarchies.
 */

#ifndef TRIPSIM_MEM_CACHE_HH
#define TRIPSIM_MEM_CACHE_HH

#include <string>
#include <vector>

#include "support/common.hh"
#include "support/fields.hh"

namespace trips::mem {

struct CacheConfig
{
    u64 sizeBytes = 32 * 1024;
    unsigned assoc = 2;
    unsigned lineBytes = 64;

    bool operator==(const CacheConfig &) const = default;

    /** "" when the geometry is usable, else "<name>: <violation>". */
    std::string validate(const char *name) const;
};

/** CacheConfig's field list (support/fields.hh). */
template <FieldsOf<CacheConfig> S, class V>
void
forEachField(S &s, V &&v)
{
    v("sizeBytes", s.sizeBytes);
    v("assoc", s.assoc);
    v("lineBytes", s.lineBytes);
}

struct AccessResult
{
    bool hit = false;
    bool writeback = false;   ///< a dirty victim was evicted
    Addr victimLine = 0;
};

class Cache
{
  public:
    explicit Cache(const CacheConfig &cfg);

    /** Access a line; allocates on miss (write-allocate). */
    AccessResult access(Addr addr, bool is_write);

    /** Contents check without LRU update or allocation. */
    bool probe(Addr addr) const;

    /**
     * Write-update side channel: mark the line dirty if present,
     * without allocation, LRU update, or hit/miss accounting (used
     * for victim writebacks absorbed by a lower level -- they must
     * not perturb the timed access stream). Returns presence.
     */
    bool markDirty(Addr addr);

    /** Invalidate everything (cold restart). */
    void reset();

    /** Line-aligned addresses of all valid dirty lines (stable order:
     *  set-major, way-minor). */
    std::vector<Addr> dirtyLines() const;

    /**
     * Drain: clear every dirty bit (contents stay valid) and return
     * the drained lines' addresses. The uncore uses this at end of
     * run to account the writeback traffic still buffered in the L2;
     * a second call returns nothing.
     */
    std::vector<Addr> drainDirty();

    u64 hits() const { return _hits; }
    u64 misses() const { return _misses; }
    u64 writebacks() const { return _writebacks; }
    const CacheConfig &config() const { return cfg; }

    double
    missRate() const
    {
        u64 total = _hits + _misses;
        return total ? static_cast<double>(_misses) / total : 0.0;
    }

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        u64 lru = 0;
    };

    CacheConfig cfg;
    unsigned numSets;
    std::vector<Line> lines;   ///< numSets * assoc
    u64 stamp = 0;
    u64 _hits = 0, _misses = 0, _writebacks = 0;

    unsigned setOf(Addr addr) const;
    Addr tagOf(Addr addr) const;
};

} // namespace trips::mem

#endif // TRIPSIM_MEM_CACHE_HH
