#include "pred/replay.hh"

namespace trips::pred {

void
NbpObserver::onBlockCommit(const isa::Block &b, const sim::BlockRecord &rec)
{
    if (rec.halts)
        return;
    const auto &br = b.insts[rec.branchInst];
    BranchKind kind = rec.isCall ? BranchKind::Call
                    : rec.isRet  ? BranchKind::Ret
                                 : BranchKind::Branch;
    u32 push = rec.isCall ? static_cast<u32>(br.returnBlock) : 0;
    nbp.update(rec.blockIdx, rec.exitTaken, rec.nextBlock, kind, push);
}

void
AlphaObserver::onBlockCommit(const isa::Block &b,
                             const sim::BlockRecord &rec)
{
    if (rec.halts)
        return;
    ++predictions;
    // Direction: exit 0 = "taken" arm by convention.
    bool taken = rec.exitTaken == 0;
    bool dir = tp.predict(rec.blockIdx);
    tp.update(rec.blockIdx, taken);
    u32 tgt;
    u64 key = (static_cast<u64>(rec.blockIdx) << 3) | rec.exitTaken;
    bool tgt_ok = btb.lookup(key, tgt) && tgt == rec.nextBlock;
    if (rec.isRet) {
        u32 v;
        tgt_ok = ras.pop(v) && v == rec.nextBlock;
    }
    if (rec.isCall) {
        const auto &br = b.insts[rec.branchInst];
        ras.push(static_cast<u32>(br.returnBlock));
    }
    btb.update(key, rec.nextBlock);
    if (dir != taken || !tgt_ok)
        ++mispredictions;
}

} // namespace trips::pred
