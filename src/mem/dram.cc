#include "mem/dram.hh"

#include <algorithm>
#include <sstream>

namespace trips::mem {

std::string
DramConfig::validate(const char *name) const
{
    std::ostringstream os;
    if (channels < 1) {
        os << name << ": channels must be >= 1";
    } else if (banksPerChannel < 1) {
        os << name << ": banksPerChannel must be >= 1";
    } else if (lineBytes < 1) {
        os << name << ": lineBytes must be >= 1";
    }
    return os.str();
}

Dram::Dram(const DramConfig &cfg_)
    : cfg(cfg_),
      channelFree(cfg.channels, 0),
      openRow(static_cast<size_t>(cfg.channels) * cfg.banksPerChannel, 0),
      rowValid(static_cast<size_t>(cfg.channels) * cfg.banksPerChannel,
               false)
{}

Cycle
Dram::request(Addr addr, Cycle now)
{
    ++_requests;
    Addr line = addr / cfg.lineBytes;
    unsigned ch = static_cast<unsigned>(line % cfg.channels);
    unsigned bank = static_cast<unsigned>((line / cfg.channels) %
                                          cfg.banksPerChannel);
    Addr row = line >> 7;  // 128 lines (8KB) per row
    size_t rb = static_cast<size_t>(ch) * cfg.banksPerChannel + bank;

    unsigned access = cfg.rowHitLatency;
    if (rowValid[rb] && openRow[rb] == row) {
        ++_rowHits;
    } else {
        access += cfg.rowMissPenalty;
        openRow[rb] = row;
        rowValid[rb] = true;
    }

    Cycle start = std::max(now, channelFree[ch]);
    Cycle done = start + access + cfg.cyclesPerTransfer;
    channelFree[ch] = start + cfg.cyclesPerTransfer;
    return done;
}

} // namespace trips::mem
