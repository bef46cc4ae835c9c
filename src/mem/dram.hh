/**
 * @file
 * DDR DRAM model: dual channels with per-bank row buffers and
 * bandwidth-limited data transfer. Matches the prototype's memory
 * system shape: 2 controllers, DDR-200 timing relative to a 366 MHz
 * core (the paper's Fig. 8 achieves 57.8% of peak through the
 * controller protocol; the row-buffer protocol here reproduces that
 * kind of loss).
 */

#ifndef TRIPSIM_MEM_DRAM_HH
#define TRIPSIM_MEM_DRAM_HH

#include <string>
#include <vector>

#include "support/common.hh"
#include "support/fields.hh"

namespace trips::mem {

struct DramConfig
{
    unsigned channels = 2;
    unsigned banksPerChannel = 8;
    /** Core cycles a 64B transfer occupies the channel data bus. */
    unsigned cyclesPerTransfer = 15;
    /** Core cycles for a row-buffer hit access (CAS). */
    unsigned rowHitLatency = 22;
    /** Additional core cycles to activate a new row (RP+RCD). */
    unsigned rowMissPenalty = 33;
    unsigned lineBytes = 64;

    bool operator==(const DramConfig &) const = default;

    /** "" when the shape is usable, else "<name>: <violation>". */
    std::string validate(const char *name) const;
};

/** DramConfig's field list (support/fields.hh). */
template <FieldsOf<DramConfig> S, class V>
void
forEachField(S &s, V &&v)
{
    v("channels", s.channels);
    v("banksPerChannel", s.banksPerChannel);
    v("cyclesPerTransfer", s.cyclesPerTransfer);
    v("rowHitLatency", s.rowHitLatency);
    v("rowMissPenalty", s.rowMissPenalty);
    v("lineBytes", s.lineBytes);
}

class Dram
{
  public:
    explicit Dram(const DramConfig &cfg);

    /**
     * Issue a line request at time @p now; returns the completion
     * cycle honoring channel bandwidth and row-buffer state.
     */
    Cycle request(Addr addr, Cycle now);

    u64 requests() const { return _requests; }
    u64 rowHits() const { return _rowHits; }

    /** Peak bandwidth in bytes per core cycle (both channels). */
    double
    peakBytesPerCycle() const
    {
        return static_cast<double>(cfg.lineBytes) *
               cfg.channels / cfg.cyclesPerTransfer;
    }

  private:
    DramConfig cfg;
    std::vector<Cycle> channelFree;
    std::vector<Addr> openRow;     ///< per (channel, bank)
    std::vector<bool> rowValid;
    u64 _requests = 0, _rowHits = 0;
};

} // namespace trips::mem

#endif // TRIPSIM_MEM_DRAM_HH
