#include "digest.hh"

namespace perfbench {

using trips::u64;
using trips::sim::ByteWriter;

namespace {

void
putDistribution(ByteWriter &w, const trips::Distribution &d)
{
    w.u32v(d.numBuckets());
    for (unsigned b = 0; b < d.numBuckets(); ++b)
        w.u64v(d.count(b));
    w.u64v(d.weightedSum());
}

} // namespace

void
putGolden(ByteWriter &w, const trips::core::GoldenRun &g)
{
    w.i64v(g.retVal);
    w.u64v(g.dynOps);
    w.u64v(g.loads);
    w.u64v(g.stores);
    w.u8v(g.fuelExhausted);
}

void
putRiscCounters(ByteWriter &w, const trips::risc::RiscCounters &c)
{
    for (u64 v : {c.insts, c.loads, c.stores, c.regReads, c.regWrites,
                  c.condBranches, c.takenCondBranches, c.calls, c.returns,
                  c.intOps, c.fpOps, c.moves})
        w.u64v(v);
}

void
putOoo(ByteWriter &w, const trips::ooo::OooResult &o)
{
    w.i64v(o.retVal);
    w.u8v(o.fuelExhausted);
    for (u64 v : {o.cycles, o.insts, o.condBranches, o.branchMispredicts,
                  o.icacheMisses, o.l1dMisses, o.l2Misses})
        w.u64v(v);
}

void
putCompile(ByteWriter &w, const trips::compiler::CompileStats &s)
{
    for (u64 v : {u64{s.functions}, u64{s.regions}, u64{s.blocks},
                  s.totalInsts, s.movInsts, s.nullInsts, s.testInsts,
                  u64{s.splitBlocks}, s.spillWrites, s.spillReads,
                  u64{s.overflowRetries}, u64{s.spilledValues},
                  u64{s.spillSlots}, s.spillLoads, s.spillStores,
                  u64{s.spillRounds}})
        w.u64v(v);
    for (const auto &pc : s.pass) {
        for (u64 v : {pc.tilBlocks, pc.tilNodes, pc.movNodes, pc.nullNodes,
                      pc.testNodes, pc.addedNodes})
            w.u64v(v);
    }
}

void
putUarch(ByteWriter &w, const trips::uarch::UarchResult &u)
{
    w.i64v(u.retVal);
    w.u8v(u.fuelExhausted);
    for (u64 v : {u.cycles, u.blocksCommitted, u.blocksFlushed,
                  u.instsFetched, u.instsFired, u.branchMispredicts,
                  u.callRetMispredicts, u.loadViolationFlushes,
                  u.icacheMissStalls, u.l1dHits, u.l1dMisses, u.l1iHits,
                  u.l1iMisses, u.l2Hits, u.l2Misses, u.l1dWritebacks,
                  u.l2Writebacks, u.loadsExecuted, u.storesCommitted,
                  u.bytesL1, u.bytesL2, u.bytesMem})
        w.u64v(v);
    w.f64v(u.avgBlocksInFlight);
    w.f64v(u.avgInstsInFlight);
    w.u64v(u.peakInstsInFlight);
    for (u64 v : {u.predictor.predictions, u.predictor.mispredictions,
                  u.predictor.exitMispredicts, u.predictor.targetMispredicts,
                  u.predictor.callRetMispredicts})
        w.u64v(v);
    for (const auto &d : u.opnHops)
        putDistribution(w, d);
    w.u64v(u.opnPackets);
    w.u64v(u.localBypasses);
}

void
putChip(ByteWriter &w, const trips::uarch::ChipResult &c)
{
    w.u64v(c.cores.size());
    for (const auto &u : c.cores)
        putUarch(w, u);
    w.u64v(c.cycles);
    w.u8v(c.anyFuelExhausted);
    const auto &s = c.uncore;
    for (u64 v : {s.requests, s.l2Hits, s.l2Misses, s.l2Writebacks,
                  s.l1Writebacks, s.bankConflicts, s.bankConflictCycles,
                  s.dramRequests, s.dramRowHits})
        w.u64v(v);
    for (u64 v : s.requestsByCore)
        w.u64v(v);
    for (u64 v : s.conflictsByCore)
        w.u64v(v);
    for (u64 v : c.ocn.packets)
        w.u64v(v);
    for (u64 v : c.ocn.bytes)
        w.u64v(v);
    for (const auto &d : c.ocn.hops)
        putDistribution(w, d);
    w.u64v(c.ocn.flitHops);
    w.f64v(c.ocnOccupancy);
    w.u64v(c.l2DirtyDrained);
}

std::string
digestHex(const ByteWriter &w)
{
    trips::sim::Fnv128 h;
    h.update(w);
    return h.hex();
}

} // namespace perfbench
