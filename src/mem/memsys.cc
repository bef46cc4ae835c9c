#include "mem/memsys.hh"

#include <algorithm>
#include <sstream>

namespace trips::mem {

namespace {

/** Request packets carry an address + command: one OCN flit. */
constexpr unsigned REQUEST_BYTES = 16;

} // namespace

std::string
MemorySystemConfig::validate() const
{
    std::ostringstream os;
    if (numCores < 1 || numCores > 16) {
        os << "numCores must be in [1, 16]";
    } else if (numBanks < 1 || numBanks > 64 ||
               (numBanks & (numBanks - 1))) {
        os << "numBanks must be a power of two in [1, 64]";
    } else if (bankServicePeriod < 1) {
        os << "bankServicePeriod must be >= 1";
    } else if (physStride == 0 || (physStride & (physStride - 1)) ||
               physStride < (Addr{1} << 20)) {
        os << "physStride must be a power of two >= 1MB (per-core "
              "physical ranges must not alias)";
    } else if (physAddrBits < 24 || physAddrBits > 48) {
        os << "physAddrBits must be in [24, 48]";
    } else if (physStride > (Addr{1} << physAddrBits) / numCores) {
        os << "physical map overflow: " << numCores << " cores x "
           << (physStride >> 20) << "MB physStride exceeds the "
           << physAddrBits << "-bit physical address map ("
           << ((Addr{1} << physAddrBits) >> 20) << "MB limit); the "
              "upper cores' ranges would alias the lower cores'";
    } else {
        std::string err = l2Bank.validate("l2Bank");
        if (err.empty())
            err = dram.validate("dram");
        if (err.empty())
            err = ocn.validate();
        os << err;
    }
    return os.str();
}

MemorySystem::MemorySystem(const MemorySystemConfig &cfg_)
    : cfg(cfg_), lineShift(ilog2(cfg_.l2Bank.lineBytes)),
      dram_(cfg_.dram), ocn_(cfg_.ocn, cfg_.numCores)
{
    std::string err = cfg.validate();
    if (!err.empty())
        TRIPS_FATAL("invalid MemorySystemConfig: ", err);
    for (unsigned b = 0; b < cfg.numBanks; ++b)
        banks.emplace_back(cfg.l2Bank);
    bankBusy.assign(static_cast<size_t>(cfg.numBanks) * cfg.numCores, 0);
    st.requestsByCore.assign(cfg.numCores, 0);
    st.conflictsByCore.assign(cfg.numCores, 0);
}

unsigned
MemorySystem::bankOf(Addr phys) const
{
    return static_cast<unsigned>((phys >> lineShift) & (cfg.numBanks - 1));
}

Cycle
MemorySystem::admit(unsigned bank, unsigned core, Cycle now)
{
    const size_t base = static_cast<size_t>(bank) * cfg.numCores;
    Cycle start = now;
    for (unsigned k = 0; k < cfg.numCores; ++k) {
        if (k != core)
            start = std::max(start, bankBusy[base + k]);
    }
    if (start > now) {
        ++st.bankConflicts;
        st.bankConflictCycles += start - now;
        ++st.conflictsByCore[core];
    }
    // Accumulate the hold: each accepted request extends the bank's
    // busy stamp by a full service period, so a same-cycle burst from
    // one core holds the ingress proportionally long against the
    // others (the core itself never waits on this stamp).
    bankBusy[base + core] =
        std::max(bankBusy[base + core], start) + cfg.bankServicePeriod;
    return start;
}

MemResponse
MemorySystem::access(const MemRequest &req, Cycle now)
{
    TRIPS_ASSERT(req.coreId < cfg.numCores, "request from core ",
                 unsigned{req.coreId}, " but uncore has ", cfg.numCores);
    Addr phys = req.addr + static_cast<Addr>(req.coreId) * cfg.physStride;
    unsigned bank = bankOf(phys);
    Cycle start = admit(bank, req.coreId, now);
    Cycle lat = cfg.l2BaseLatency +
                ocn_.requestLatency(req.coreId, req.srcBank, bank, req.cls,
                                    REQUEST_BYTES);

    ++st.requests;
    ++st.requestsByCore[req.coreId];

    auto r = banks[bank].access(phys, req.isWrite);
    MemResponse resp;
    resp.queuedCycles = start - now;
    resp.bank = static_cast<u8>(bank);
    resp.hops = static_cast<u8>(ocn_.requestHops(req.coreId, bank));
    if (r.writeback) {
        resp.l2Writeback = true;
        ++st.l2Writebacks;
        ocn_.recordWriteback(bank, cfg.l2Bank.lineBytes);
    }
    // The reply leg carries the line back to the requester in both
    // cases; on a hit its latency is folded into `lat` (as the
    // single-core model always did), on a miss it costs lat/2 on top
    // of the DRAM completion.
    ocn_.recordReply(req.coreId, bank, net::OcnClass::Refill,
                     cfg.l2Bank.lineBytes);
    if (r.hit) {
        ++st.l2Hits;
        resp.l2Hit = true;
        resp.done = start + lat;
        return resp;
    }
    ++st.l2Misses;
    Cycle mem_done = dram_.request(phys, start + lat);
    resp.done = mem_done + lat / 2;
    return resp;
}

void
MemorySystem::noteL1Writeback(unsigned core, Addr victim_line,
                              unsigned bytes)
{
    Addr phys = victim_line + static_cast<Addr>(core) * cfg.physStride;
    ++st.l1Writebacks;
    unsigned bank = bankOf(phys);
    ocn_.recordWriteback(bank, bytes);
    // Absorb the victim into the L2 copy if one is resident: a silent
    // dirty-bit update (no allocation, no LRU touch, no timing) so
    // the L2 carries real writeback state for the end-of-run drain.
    // Victims of lines the L2 already evicted drain straight to DRAM.
    banks[bank].markDirty(phys);
}

u64
MemorySystem::drainDirtyLines()
{
    u64 drained = 0;
    for (unsigned b = 0; b < cfg.numBanks; ++b) {
        for (Addr line : banks[b].drainDirty()) {
            (void)line;
            ocn_.recordWriteback(b, cfg.l2Bank.lineBytes);
            ++drained;
        }
    }
    st.l2Writebacks += drained;
    return drained;
}

const UncoreStats &
MemorySystem::stats() const
{
    st.dramRequests = dram_.requests();
    st.dramRowHits = dram_.rowHits();
    return st;
}

} // namespace trips::mem
