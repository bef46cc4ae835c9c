/**
 * @file
 * A timing mem::UncorePort: forwards every call to a MemorySystem and
 * accumulates the host time spent inside it. Passed through
 * CycleSim's public port constructor in traced runs, so the uncore's
 * host time is measured from outside the library. The solo CycleSim
 * constructor builds the same MemorySystem from uncoreConfig(cfg), so
 * the simulated results are identical either way (tested).
 */

#ifndef PERFBENCH_TIMING_PORT_HH
#define PERFBENCH_TIMING_PORT_HH

#include "mem/memsys.hh"
#include "spans.hh"

namespace perfbench {

class TimingPort final : public trips::mem::UncorePort
{
  public:
    explicit TimingPort(trips::mem::MemorySystem &m) : m_(m) {}

    trips::mem::MemResponse
    access(const trips::mem::MemRequest &req, trips::Cycle now) override
    {
        u64 t0 = nowNs();
        trips::mem::MemResponse r = m_.access(req, now);
        ns_ += nowNs() - t0;
        ++accesses_;
        return r;
    }

    void
    noteL1Writeback(unsigned core, trips::Addr victim_line,
                    unsigned bytes) override
    {
        u64 t0 = nowNs();
        m_.noteL1Writeback(core, victim_line, bytes);
        ns_ += nowNs() - t0;
    }

    const trips::mem::MemorySystemConfig &
    config() const override
    {
        return m_.config();
    }

    /** Port accesses (refills and fetch misses; not writeback notes). */
    u64 accesses() const { return accesses_; }
    /** Host ns spent inside the MemorySystem (accesses and notes). */
    u64 ns() const { return ns_; }

  private:
    trips::mem::MemorySystem &m_;
    u64 accesses_ = 0;
    u64 ns_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_TIMING_PORT_HH
