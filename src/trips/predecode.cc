#include "trips/predecode.hh"

#include "support/error.hh"
#include "trips/exec_core.hh"

namespace trips::sim {

using isa::Block;
using isa::Opcode;
using isa::OpClass;
using isa::Target;

namespace {

/** Map a Target to an operand slot code; 0xff for unused fields and
 *  3 for register-write targets. */
u8
slotOf(const Target &t)
{
    switch (t.kind) {
      case Target::Kind::Op0: return 0;
      case Target::Kind::Op1: return 1;
      case Target::Kind::Pred: return 2;
      case Target::Kind::Write: return 3;
      default: return 0xff;
    }
}

} // namespace

u64
DecodedBlock::bytes() const
{
    u64 total = sizeof(*this);
    total += insts.size() * sizeof(DecInst);
    total += (mergePool.size() + mergeRefs.size()) * sizeof(SrcRef);
    total += readReg.size() + writeReg.size();
    total += writeSrc.size() * sizeof(SrcRef);
    total += (targetBlock.size() + returnBlock.size()) * sizeof(i32);
    total += origSlot.size() * sizeof(u16);
    total += memoFst.size();
    return total;
}

DecodedBlock
decodeBlock(const Block &b)
{
    DecodedBlock d;
    const size_t n = b.insts.size();
    d.n = static_cast<u16>(n);
    d.numReads = static_cast<u16>(b.reads.size());
    d.numWrites = static_cast<u16>(b.writes.size());
    d.storeMask = b.storeMask;

    // The engine's scratch buffers are sized to the architectural
    // limits, and the walk needs a static schedule. validateBlock
    // guarantees both, so only a block mutated after Program::finalize
    // can fail here.
    auto unschedulable = [&](const char *why) {
        TRIPS_THROW(ErrCode::InvalidArgument, Subsys::Sim, "block ",
                    b.label, " cannot be decoded: ", why);
    };
    if (n > isa::MAX_INSTS || b.reads.size() > isa::MAX_READS ||
        b.writes.size() > isa::MAX_WRITES)
        unschedulable("it exceeds the block-format limits");
    const std::vector<u16> sched = isa::fireSchedule(b);
    if (sched.size() != n)
        unschedulable("its dataflow edges and LSID chain form a cycle");

    // Renumber into schedule order: position in the walk IS the
    // instruction index from here on. Header read r becomes result
    // index n + r (its value is injected at block start).
    std::vector<u16> newIdx(n);
    for (size_t k = 0; k < n; ++k)
        newIdx[sched[k]] = static_cast<u16>(k);

    // Per-slot static producer lists (operand slots in new numbering;
    // one extra bucket per header write slot).
    std::vector<std::vector<SrcRef>> slotProd(3 * n);
    std::vector<std::vector<SrcRef>> writeProd(b.writes.size());
    auto note = [&](const Target &t, SrcRef prod) {
        u8 slot = slotOf(t);
        if (slot == 0xff)
            return;
        if (slot == 3)
            writeProd[t.index].push_back(prod);
        else
            slotProd[3 * newIdx[t.index] + slot].push_back(prod);
    };
    for (size_t r = 0; r < b.reads.size(); ++r) {
        for (const auto &t : b.reads[r].targets)
            note(t, static_cast<SrcRef>(n + r));
    }
    for (size_t i = 0; i < n; ++i) {
        // Stores and branches produce no token, so any encoded targets
        // they carry (validateBlock rejects them; a block mutated after
        // finalize may have them) must not become producers.
        const OpClass cls = opInfo(b.insts[i].op).cls;
        if (cls == OpClass::Store || cls == OpClass::Branch)
            continue;
        for (const auto &t : b.insts[i].targets)
            note(t, newIdx[i]);
    }

    // Encode each producer list as a SrcRef; multi-producer slots spill
    // into the merge pool (at most one entry per target plus one count
    // per slot, far below SRC_PAYLOAD). Two header reads into one slot
    // would deliver twice on *every* instance; validateBlock rejects it.
    auto encodeSlot = [&](const std::vector<SrcRef> &prods) -> SrcRef {
        if (prods.empty())
            return SRC_NONE_SLOT;
        if (prods.size() == 1)
            return prods[0];
        unsigned reads = 0;
        for (SrcRef p : prods)
            reads += p >= n;
        if (reads > 1)
            unschedulable("one slot is fed by two header reads");
        SrcRef ref =
            static_cast<SrcRef>(SRC_MERGE | d.mergePool.size());
        d.mergePool.push_back(static_cast<SrcRef>(prods.size()));
        d.mergePool.insert(d.mergePool.end(), prods.begin(),
                           prods.end());
        d.mergeRefs.push_back(ref);
        return ref;
    };

    // Always-fires analysis over the schedule: an instruction whose
    // firing cannot depend on dynamic state (unpredicated, and every
    // required operand fed by a single always-firing producer; header
    // reads always deliver) takes the specialized hot handler that
    // skips the predicate and arrival checks. SRC_NONE_SLOT and merge
    // slots are conservatively "not always".
    std::vector<u8> always(SRC_NONE_SLOT + 1, 0);
    for (size_t r = 0; r < b.reads.size(); ++r)
        always[n + r] = 1;

    d.insts.resize(n + 1);
    d.targetBlock.resize(n);
    d.returnBlock.resize(n);
    d.origSlot = sched;
    for (size_t k = 0; k < n; ++k) {
        const auto &in = b.insts[sched[k]];
        const auto &info = opInfo(in.op);
        DecInst &di = d.insts[k];
        di.op = in.op;
        di.cls = static_cast<u8>(info.cls);
        di.pred = static_cast<u8>(in.pr);
        di.numIn = info.numInputs;
        di.lsid = in.lsid;
        di.imm = static_cast<i64>(in.imm);
        di.width = isMemory(in.op) ? static_cast<u8>(memWidth(in.op)) : 0;
        di.src0 = encodeSlot(slotProd[3 * k + 0]);
        di.src1 = encodeSlot(slotProd[3 * k + 1]);
        di.srcP = encodeSlot(slotProd[3 * k + 2]);
        // Stores and branches deliver nothing, so encoded targets on
        // them must not count as operand messages either — mirroring
        // the producer-note exclusion above.
        u16 msgs = 0;
        if (info.cls != OpClass::Store && info.cls != OpClass::Branch) {
            for (const auto &t : in.targets)
                msgs += slotOf(t) < 3;
        }
        di.opMsgs = msgs;
        d.targetBlock[k] = in.targetBlock;
        d.returnBlock[k] = in.returnBlock;

        DecKind kind;
        if (in.op == Opcode::NULLW)
            kind = DecKind::NullW;
        else if (info.cls == OpClass::Load)
            kind = DecKind::Load;
        else if (info.cls == OpClass::Store)
            kind = DecKind::Store;
        else if (info.cls == OpClass::Branch)
            kind = DecKind::Branch;
        else
            kind = DecKind::Compute;
        di.kind = static_cast<u8>(kind);

        bool af = !in.predicated();
        const SrcRef srcs[2] = {di.src0, di.src1};
        for (unsigned s = 0; af && s < info.numInputs; ++s)
            af = srcs[s] < SRC_MERGE && always[srcs[s]];
        always[k] = af;
        di.handler = af ? static_cast<u8>(H_HOT_BASE +
                                          static_cast<u8>(in.op))
                        : static_cast<u8>(kind);
    }
    // Walk terminator: the sentinel's handler ends the threaded loop.
    d.insts[n] = DecInst{};
    d.insts[n].handler = H_DONE;

    d.readReg.resize(b.reads.size());
    for (size_t r = 0; r < b.reads.size(); ++r)
        d.readReg[r] = b.reads[r].reg;
    d.writeReg.resize(b.writes.size());
    d.writeSrc.resize(b.writes.size());
    for (size_t w = 0; w < b.writes.size(); ++w) {
        d.writeReg[w] = b.writes[w].reg;
        d.writeSrc[w] = encodeSlot(writeProd[w]);
    }

    d.memoFst.assign(DecodedBlock::MEMO_WAYS * n, 0);
    d.insts.shrink_to_fit();
    d.mergePool.shrink_to_fit();
    return d;
}

void
DecodedProgram::decode(u32 idx)
{
    blocks_[idx] =
        std::make_unique<DecodedBlock>(decodeBlock(prog_.block(idx)));
    ++decoded_;
    bytes_ += blocks_[idx]->bytes();
}

} // namespace trips::sim
