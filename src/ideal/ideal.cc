#include "ideal/ideal.hh"

#include <algorithm>

namespace trips::ideal {

using isa::Block;
using sim::BlockRecord;
using sim::FiredOp;

void
IdealSim::onBlockCommit(const Block &block, const BlockRecord &rec)
{
    // Window constraint at block granularity.
    unsigned window_blocks = std::max<u64>(
        1, cfg.windowInsts / isa::MAX_INSTS);
    Cycle dispatch = first ? 0 : lastDispatch + cfg.dispatchCost;
    first = false;
    if (blockCompletions.size() >= window_blocks) {
        dispatch = std::max(dispatch, blockCompletions.front());
        blockCompletions.pop_front();
    }
    lastDispatch = dispatch;

    // Per-instruction timestamps in record order. This relies on the
    // BlockRecord::fired contract and on nothing more: schedule order is
    // a topological order of dataflow ∪ LSID chain, so every producer's
    // finish time is set before its consumers read it, and memory ops
    // arrive in (LSID, slot) order, so a load sees exactly the
    // older-LSID stores of its own block in storeReady.
    std::vector<Cycle> finish(block.insts.size(), 0);
    Cycle block_done = dispatch;
    for (const FiredOp &f : rec.fired) {
        const auto &in = block.insts[f.inst];
        Cycle start = dispatch;
        auto producer_time = [&](i16 p) -> Cycle {
            if (p == sim::PROD_NONE)
                return dispatch;
            if (sim::isReadProducer(p)) {
                unsigned ridx = sim::readProducerIndex(p);
                return std::max(dispatch,
                                regReady[block.reads[ridx].reg]);
            }
            return finish[p];
        };
        start = std::max(start, producer_time(f.prodOp0));
        start = std::max(start, producer_time(f.prodOp1));
        start = std::max(start, producer_time(f.prodPred));

        unsigned lat = opInfo(in.op).latency;
        if (isLoad(in.op) && !f.nullToken) {
            lat = cfg.loadLatency;
            // Perfect dependence prediction: wait only for true
            // conflicts (8-byte chunk granularity).
            for (Addr a = f.addr >> 3;
                 a <= (f.addr + f.width - 1) >> 3; ++a) {
                auto it = storeReady.find(a);
                if (it != storeReady.end())
                    start = std::max(start, it->second);
            }
        }
        Cycle done = start + lat;
        finish[f.inst] = done;
        if (isStore(in.op) && !f.nullToken) {
            for (Addr a = f.addr >> 3;
                 a <= (f.addr + f.width - 1) >> 3; ++a)
                storeReady[a] = done;
        }
        block_done = std::max(block_done, done);
        ++executed;
    }

    // Register outputs forward at producer completion (ideal).
    for (size_t w = 0; w < block.writes.size(); ++w) {
        i16 p = rec.writeProducer[w];
        if (p >= 0 && !rec.writeIsNull[w])
            regReady[block.writes[w].reg] = finish[p];
    }

    blockCompletions.push_back(block_done);
    makespan = std::max(makespan, block_done);
}

IdealResult
IdealSim::result() const
{
    IdealResult r;
    r.executed = executed;
    r.makespan = makespan;
    return r;
}

} // namespace trips::ideal
