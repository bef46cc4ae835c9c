/**
 * @file
 * The WIR-to-TIL front end of the TRIPS backend: hyperblock region
 * formation over the WIR CFG and if-conversion of regions into
 * predicated TIL dataflow graphs (speculating conditional-arm
 * arithmetic per the paper's model). Driven per-pass by the pipeline
 * manager in pipeline.cc through the `Frontend` interface.
 */

#include "compiler/pipeline.hh"

#include <algorithm>
#include <cstring>
#include <map>
#include <optional>
#include <set>

#include "compiler/analysis.hh"
#include "compiler/transform.hh"
#include "support/error.hh"

namespace trips::compiler {

using isa::Opcode;
using til::HBlock;
using til::HRead;
using til::HWrite;
using til::TNode;
using wir::Function;
using wir::Instr;
using wir::MemWidth;
using wir::Module;
using wir::TermKind;
using wir::Vreg;
using wir::WOp;

namespace {

// ---------------------------------------------------------------------
// Region formation
// ---------------------------------------------------------------------

struct Region
{
    std::vector<u32> members;   ///< topological (RPO) order, root first
    bool isCall = false;
};

struct FormElem
{
    u32 block;
    bool pol;
    bool operator==(const FormElem &) const = default;
};
using FormChain = std::vector<FormElem>;

std::vector<Region>
formRegionsOf(const Function &f, const Options &opts,
              const std::set<u32> &force_singleton)
{
    const size_t nb = f.blocks.size();
    std::vector<std::vector<u32>> preds(nb);
    for (u32 b = 0; b < nb; ++b) {
        for (u32 s : f.successors(b))
            preds[s].push_back(b);
    }
    auto rpo = reversePostOrder(f);
    std::vector<u32> rpo_pos(nb, 0xffffffff);
    for (u32 i = 0; i < rpo.size(); ++i)
        rpo_pos[rpo[i]] = i;

    std::vector<i32> assigned(nb, -1);
    std::vector<Region> regions;

    // Chain of a candidate edge pred -> succ.
    auto edge_chain = [&](const FormChain &pc, u32 p, u32 s) {
        FormChain c = pc;
        const auto &t = f.blocks[p].term;
        if (t.kind == TermKind::Br && t.thenBlock != t.elseBlock)
            c.push_back({p, t.thenBlock == s});
        return c;
    };

    for (u32 b : rpo) {
        if (assigned[b] >= 0)
            continue;
        u32 ridx = static_cast<u32>(regions.size());
        Region r;
        r.members.push_back(b);
        assigned[b] = static_cast<i32>(ridx);
        r.isCall = isCallBlock(f, b);

        bool grow = opts.enablePredication && !r.isCall &&
                    !force_singleton.count(b);
        std::map<u32, FormChain> chain;
        chain[b] = {};
        u64 ops = f.blocks[b].instrs.size();
        unsigned mems = blockMemOps(f, b);

        auto count_exits = [&]() {
            unsigned n = 0;
            std::set<u32> mem(r.members.begin(), r.members.end());
            for (u32 m : r.members) {
                const auto &t = f.blocks[m].term;
                if (t.kind == TermKind::Ret) {
                    ++n;
                    continue;
                }
                for (u32 s : f.successors(m)) {
                    if (!mem.count(s) || s == b)
                        ++n;
                }
            }
            return n;
        };

        bool grew = grow;
        while (grew) {
            grew = false;
            std::set<u32> mem(r.members.begin(), r.members.end());
            for (u32 m : r.members) {
                for (u32 s : f.successors(m)) {
                    if (s == b || mem.count(s) || assigned[s] >= 0)
                        continue;
                    if (s == 0 || isCallBlock(f, s) ||
                        force_singleton.count(s))
                        continue;
                    // All predecessors must already be inside.
                    bool all_in = true;
                    for (u32 p : preds[s])
                        all_in &= mem.count(p) != 0;
                    if (!all_in)
                        continue;
                    // Join-shape check.
                    std::vector<FormChain> in_chains;
                    for (u32 p : preds[s])
                        in_chains.push_back(edge_chain(chain[p], p, s));
                    FormChain nc;
                    if (in_chains.size() == 1) {
                        nc = in_chains[0];
                    } else if (in_chains.size() == 2) {
                        auto &c1 = in_chains[0];
                        auto &c2 = in_chains[1];
                        if (c1.size() != c2.size() || c1.empty())
                            continue;
                        bool sibling = true;
                        for (size_t i = 0; i + 1 < c1.size(); ++i)
                            sibling &= c1[i] == c2[i];
                        sibling &= c1.back().block == c2.back().block &&
                                   c1.back().pol != c2.back().pol;
                        if (!sibling)
                            continue;
                        nc.assign(c1.begin(), c1.end() - 1);
                    } else {
                        continue;
                    }
                    if (nc.size() > opts.maxPredDepth)
                        continue;
                    if (ops + f.blocks[s].instrs.size() >
                        opts.regionBudgetOps)
                        continue;
                    if (mems + blockMemOps(f, s) > opts.regionBudgetMem)
                        continue;
                    r.members.push_back(s);
                    if (count_exits() > 7) {
                        r.members.pop_back();
                        continue;
                    }
                    assigned[s] = static_cast<i32>(ridx);
                    chain[s] = nc;
                    ops += f.blocks[s].instrs.size();
                    mems += blockMemOps(f, s);
                    grew = true;
                }
                if (grew)
                    break;
            }
        }
        std::sort(r.members.begin(), r.members.end(),
                  [&](u32 x, u32 y) { return rpo_pos[x] < rpo_pos[y]; });
        regions.push_back(std::move(r));
    }
    return regions;
}

// ---------------------------------------------------------------------
// If-conversion: lowering one region to TIL
// ---------------------------------------------------------------------

/** A value source: the set of producers that deliver exactly one token
 *  on any path consistent with the owning context. */
struct ValSource
{
    std::vector<i32> prods;   ///< >=0 node id; <0 read slot (-1-idx)
    bool total = true;        ///< delivers on every region path
    bool isConst = false;
    i64 cval = 0;
};

struct CElem
{
    i32 test;
    bool pol;
    bool operator==(const CElem &) const = default;
};
using CChain = std::vector<CElem>;

/** Sanity ceiling on pre-split memory ops in one region (the split
 *  pass renumbers per chunk; TNode::lsid is 16-bit). */
constexpr unsigned PRESPLIT_LSID_CAP = 4096;

// ---------------------------------------------------------------------
// Per-function front end
// ---------------------------------------------------------------------

class FuncCompiler
{
  public:
    FuncCompiler(const Module &mod, const std::string &fname,
                 const Options &opts)
        : opts(opts), mod(mod), fname(fname), f(mod.function(fname))
    {}

    Options opts;   ///< by value: overflow retries shrink budgets
    bool oversizedOk = false;   ///< final attempt: split, don't retry

    void
    normalize()
    {
        unrollLoops(f, opts);
        normalizeBlocks(f, 32, 20);
        splitCalls();
        vregSPV = f.nextVreg++;
        vregRETV = f.nextVreg++;
        vregSPREST = f.nextVreg++;
        spillBound = f.nextVreg;
        live.emplace(f);
        planSpills();
    }

    std::vector<unsigned>
    regionLoopDepths() const
    {
        std::vector<unsigned> blockDepth(f.blocks.size(), 0);
        for (const NaturalLoop &lp : findLoops(f)) {
            for (u32 b : lp.body)
                ++blockDepth[b];
        }
        std::vector<unsigned> out(regions.size(), 0);
        for (u32 ri = 0; ri < regions.size(); ++ri) {
            for (u32 m : regions[ri].members)
                out[ri] = std::max(out[ri], blockDepth[m]);
        }
        return out;
    }

    bool
    spillableVreg(Vreg v) const
    {
        return v >= f.numParams && v < spillBound && v != vregSPV &&
               v != vregRETV && v != vregSPREST;
    }

    /**
     * The spill pass's rewrite half (chooser: compiler/spill.cc). Each
     * victim gets a dedicated frame slot above the caller-save area;
     * every def is followed by an 8-byte store to the slot, and every
     * use reloads into a fresh block-local vreg (cached per block, so
     * repeated uses share one reload). A victim defined by a call
     * materializes in the continuation block (via the RETVAL read), so
     * its store is prepended there instead. Loads and stores address
     * the frame through vregSPV, whose lowering pins R1 and reuses the
     * wide-displacement machinery (`frameSlotAddr` path in
     * `lowerInstr`); LSIDs follow WIR program order, and a store after
     * a conditionally executed def is predicated on the same chain, so
     * the slot keeps its old value on the untaken paths — exactly the
     * register's semantics. Afterwards no victim is live across a
     * block boundary, so its regalloc range is gone; liveness and the
     * caller-save plan are recomputed (victims drop out of call
     * live-out sets, so stale caller-save slots would otherwise
     * resurrect the cross-region reads the rewrite just removed).
     */
    Frontend::SpillRewrite
    spillToFrame(const std::vector<Vreg> &victims)
    {
        Frontend::SpillRewrite rw;
        const unsigned base = frameSlots;
        std::map<Vreg, unsigned> slotOf;
        for (Vreg v : victims) {
            TRIPS_ASSERT(spillableVreg(v), "unspillable victim in ",
                         fname);
            unsigned s = base + static_cast<unsigned>(slotOf.size());
            slotOf.emplace(v, s);
        }
        rw.slots = static_cast<unsigned>(slotOf.size());

        // Victims defined by a call get their store at the head of the
        // continuation block (ids of continuations are always greater
        // than their call block's, so ascending order sees the call
        // first).
        std::map<u32, Vreg> contStore;

        auto slotDisp = [&](Vreg v) {
            return static_cast<i64>(slotOf.at(v)) * 8;
        };
        auto makeStore = [&](Vreg v) {
            Instr st;
            st.op = WOp::Store;
            st.srcs = {vregSPV, v};
            st.imm = slotDisp(v);
            st.width = MemWidth::B8;
            ++rw.stores;
            return st;
        };

        for (u32 b = 0; b < f.blocks.size(); ++b) {
            std::vector<Instr> out;
            std::map<Vreg, Vreg> local;  // victim -> in-block copy
            auto it = contStore.find(b);
            if (it != contStore.end()) {
                out.push_back(makeStore(it->second));
                local[it->second] = it->second;
            }
            auto reload = [&](Vreg v) {
                auto lit = local.find(v);
                if (lit != local.end())
                    return lit->second;
                Instr ld;
                ld.op = WOp::Load;
                ld.dst = f.nextVreg++;
                ld.srcs = {vregSPV};
                ld.imm = slotDisp(v);
                ld.width = MemWidth::B8;
                out.push_back(ld);
                ++rw.loads;
                local.emplace(v, ld.dst);
                return ld.dst;
            };
            for (Instr in : f.blocks[b].instrs) {
                for (Vreg &s : in.srcs) {
                    if (slotOf.count(s))
                        s = reload(s);
                }
                const bool isCall = in.op == WOp::Call;
                const Vreg d = in.dst;
                out.push_back(std::move(in));
                if (d != wir::NO_VREG && slotOf.count(d)) {
                    if (isCall) {
                        contStore[callCont.at(b)] = d;
                    } else {
                        out.push_back(makeStore(d));
                        local[d] = d;
                    }
                }
            }
            auto &term = f.blocks[b].term;
            if (term.kind == TermKind::Br && slotOf.count(term.cond))
                term.cond = reload(term.cond);
            if (term.kind == TermKind::Ret &&
                term.retVal != wir::NO_VREG && slotOf.count(term.retVal))
                term.retVal = reload(term.retVal);
            f.blocks[b].instrs = std::move(out);
        }

        frameSlots = base + rw.slots;
        live.emplace(f);
        spillMap.clear();
        planSpills();
        return rw;
    }

    unsigned
    formRegions(const std::set<u32> &force_singleton)
    {
        regions = formRegionsOf(f, opts, force_singleton);
        blockRegion.assign(f.blocks.size(), -1);
        for (u32 ri = 0; ri < regions.size(); ++ri) {
            for (u32 m : regions[ri].members)
                blockRegion[m] = static_cast<i32>(ri);
        }
        return static_cast<unsigned>(regions.size());
    }

    std::vector<HBlock>
    ifConvert()
    {
        std::vector<HBlock> hbs;
        for (u32 ri = 0; ri < regions.size(); ++ri)
            hbs.push_back(genRegion(ri));
        return hbs;
    }

    std::vector<std::vector<Vreg>>
    regionLiveSets() const
    {
        std::vector<std::vector<Vreg>> live_sets(regions.size());
        for (u32 ri = 0; ri < regions.size(); ++ri) {
            std::set<Vreg> ls;
            for (u32 b : regions[ri].members) {
                for (u32 v : (*live).liveIn[b].bits())
                    ls.insert(v);
                for (u32 v : (*live).liveOut[b].bits())
                    ls.insert(v);
            }
            live_sets[ri].assign(ls.begin(), ls.end());
        }
        return live_sets;
    }

    Vreg freshVreg() { return f.nextVreg++; }

    std::string
    labelOf(u32 region_idx) const
    {
        return fname + ".r" + std::to_string(region_idx);
    }

    unsigned frameSlots = 0;

  private:
    const Module &mod;
    std::string fname;
    Function f;
    std::optional<Liveness> live;
    std::vector<Region> regions;
    std::vector<i32> blockRegion;
    Vreg vregSPV = 0, vregRETV = 0, vregSPREST = 0;
    Vreg spillBound = 0;   ///< vregs >= this are backend-invented
                           ///< (split-pass TIL values, spill reloads)

    // Per call block: spill assignments and continuation block.
    std::map<u32, std::map<Vreg, unsigned>> spillMap;
    std::map<u32, u32> callCont;       ///< call block -> continuation
    std::map<u32, u32> contOfRegionRoot;  ///< continuation root -> call

    /** Guarantee each call has a fresh, single-predecessor
     *  continuation block reached by an unconditional jump. */
    void
    splitCalls()
    {
        for (u32 b = 0; b < f.blocks.size(); ++b) {
            if (!isCallBlock(f, b))
                continue;
            wir::BasicBlock tail;
            tail.name = f.blocks[b].name + ".k";
            tail.term = f.blocks[b].term;
            u32 tail_id = static_cast<u32>(f.blocks.size());
            f.blocks[b].term = wir::Terminator{};
            f.blocks[b].term.kind = TermKind::Jmp;
            f.blocks[b].term.thenBlock = tail_id;
            f.blocks.push_back(std::move(tail));
            callCont[b] = tail_id;
        }
    }

    void
    planSpills()
    {
        for (auto &[cb, cont] : callCont) {
            const Instr &call = f.blocks[cb].instrs.back();
            std::map<Vreg, unsigned> slots;
            unsigned next = 0;
            for (u32 v : (*live).liveOut[cb].bits()) {
                if (call.dst != wir::NO_VREG && v == call.dst)
                    continue;
                if (v == vregSPV)
                    continue;  // SP survives calls by convention
                slots[v] = next++;
            }
            frameSlots = std::max(frameSlots, next);
            spillMap[cb] = std::move(slots);
            contOfRegionRoot[cont] = cb;
        }
    }

    // ------------------------------------------------------------------
    // Region code generation
    // ------------------------------------------------------------------

    struct CExit
    {
        CChain chain;
        u32 exitBlock = 0;   ///< WIR block the exit branch lives in
        bool isRet = false;
    };

    struct GenState
    {
        HBlock hb;
        std::map<u32, std::map<Vreg, ValSource>> ctxOf;
        std::map<u32, CChain> chains;
        std::map<u32, i32> ctlTest;
        std::map<Vreg, u32> readIdx;
        std::map<i64, i32> constPool;
        std::map<i64, i32> spAddrPool;  ///< wide frame-slot addresses
        std::set<Vreg> defined;
        std::vector<CExit> exits;
        unsigned memSeq = 0;
        u32 curBlock = 0;
    };

    i32
    newNode(GenState &g, Opcode op)
    {
        g.hb.nodes.push_back(TNode{});
        g.hb.nodes.back().op = op;
        return static_cast<i32>(g.hb.nodes.size() - 1);
    }

    i32
    newMemNode(GenState &g, Opcode op)
    {
        i32 n = newNode(g, op);
        // Multi-block regions re-form with smaller budgets (the retry
        // ladder); single-block regions — and everything on the final
        // attempt — are left for the splitting pass, which renumbers
        // LSIDs per chunk.
        if (g.memSeq >= isa::MAX_LSIDS && !oversizedOk &&
            regions[curRegion].members.size() > 1)
            throw BlockOverflow{regions[curRegion].members, "LSIDs"};
        if (g.memSeq >= PRESPLIT_LSID_CAP)
            throw CompileError(
                ErrCode::ResourceExhausted,
                detail::formatMsg("function ", fname, " region ",
                                  curRegion, " (", labelOf(curRegion),
                                  "): ", g.memSeq,
                                  " memory ops exceed the pre-split "
                                  "cap of ", PRESPLIT_LSID_CAP),
                fname);
        g.hb.nodes[n].lsid = static_cast<u16>(g.memSeq++);
        return n;
    }

    void
    setPred(GenState &g, i32 node, const CChain &chain)
    {
        if (chain.empty())
            return;
        g.hb.nodes[node].predNode = chain.back().test;
        g.hb.nodes[node].predPol = chain.back().pol;
    }

    /** Materialize a constant via GENS/APP chains (cached per region). */
    i32
    constNode(GenState &g, i64 value)
    {
        auto it = g.constPool.find(value);
        if (it != g.constPool.end())
            return it->second;
        // Chunk the constant into 16-bit pieces, high to low; the top
        // chunk sign-extends via GENS.
        int chunks = 1;
        while (chunks < 4) {
            i64 reduced = (value << (64 - 16 * chunks)) >> (64 - 16 * chunks);
            if (reduced == value)
                break;
            ++chunks;
        }
        i32 node = -1;
        for (int c = chunks - 1; c >= 0; --c) {
            i64 piece = (value >> (16 * c)) & 0xffff;
            if (node < 0) {
                i64 signed_piece = (piece ^ 0x8000) - 0x8000;
                node = newNode(g, Opcode::GENS);
                g.hb.nodes[node].imm = signed_piece;
            } else {
                i32 app = newNode(g, Opcode::APP);
                g.hb.nodes[app].imm = static_cast<i64>(
                    static_cast<i16>(piece));
                g.hb.nodes[app].in0.push_back(node);
                node = app;
            }
        }
        g.constPool[value] = node;
        return node;
    }

    /** Resolve a ValSource to concrete producers. */
    const std::vector<i32> &
    prodsOf(GenState &g, ValSource &vs)
    {
        if (vs.isConst && vs.prods.empty())
            vs.prods.push_back(constNode(g, vs.cval));
        return vs.prods;
    }

    void
    connect(GenState &g, i32 node, unsigned operand, ValSource &vs)
    {
        // prodsOf may materialize constant nodes and reallocate the
        // node vector, so resolve producers before touching the list.
        const auto prods = prodsOf(g, vs);
        auto &list = operand == 0 ? g.hb.nodes[node].in0
                                  : g.hb.nodes[node].in1;
        for (i32 p : prods)
            list.push_back(p);
    }

    /** Look up a vreg in the current context, creating a register read
     *  on demand. */
    ValSource &
    lookup(GenState &g, Vreg v)
    {
        auto &ctx = g.ctxOf[g.curBlock];
        auto it = ctx.find(v);
        if (it != ctx.end())
            return it->second;
        ValSource vs;
        auto rit = g.readIdx.find(v);
        if (rit == g.readIdx.end()) {
            HRead r;
            r.v = v;
            bool entry_region = curRegion == 0;
            if (entry_region && v < f.numParams) {
                TRIPS_ASSERT(v < abi::MAX_ARGS, "too many parameters in ",
                             fname);
                r.fixedReg = abi::REG_ARG0 + static_cast<int>(v);
            }
            if (v == vregSPV)
                r.fixedReg = abi::REG_SP;  // SP lives in R1 across regions
            g.readIdx[v] = static_cast<u32>(g.hb.reads.size());
            g.hb.reads.push_back(r);
            rit = g.readIdx.find(v);
        }
        vs.prods.push_back(-1 - static_cast<i32>(rit->second));
        auto [nit, ins] = ctx.emplace(v, std::move(vs));
        (void)ins;
        return nit->second;
    }

    ValSource
    makeNodeVS(GenState &g, i32 node, bool total)
    {
        ValSource vs;
        vs.prods.push_back(node);
        vs.total = total;
        (void)g;
        return vs;
    }

    /**
     * A ValSource for the *incoming* (pre-region) value of a vreg:
     * a register read, without touching any block context. Used when a
     * merge needs "the old value of v" on a path that never defines it.
     */
    ValSource
    incomingVS(GenState &g, Vreg v)
    {
        auto rit = g.readIdx.find(v);
        if (rit == g.readIdx.end()) {
            HRead r;
            r.v = v;
            if (curRegion == 0 && v < f.numParams) {
                TRIPS_ASSERT(v < abi::MAX_ARGS, "too many parameters in ",
                             fname);
                r.fixedReg = abi::REG_ARG0 + static_cast<int>(v);
            }
            if (v == vregSPV)
                r.fixedReg = abi::REG_SP;
            g.readIdx[v] = static_cast<u32>(g.hb.reads.size());
            g.hb.reads.push_back(r);
            rit = g.readIdx.find(v);
        }
        ValSource vs;
        vs.prods.push_back(-1 - static_cast<i32>(rit->second));
        return vs;
    }

    u32 curRegion = 0;

    HBlock
    genRegion(u32 ridx)
    {
        curRegion = ridx;
        const Region &r = regions[ridx];
        GenState g;
        g.hb.label = labelOf(ridx);
        g.hb.wirMembers = r.members;
        const u32 root = r.members[0];
        std::set<u32> members(r.members.begin(), r.members.end());

        // Entry preambles.
        g.curBlock = root;
        g.chains[root] = {};
        g.ctxOf[root];
        bool is_entry = ridx == 0;
        if (is_entry && frameSlots > 0) {
            // SPV = R1 - frame
            ValSource &sp = lookup(g, vregSPV);
            // Force the read to fixed R1: the entry read of SPV *is* the
            // incoming stack pointer.
            g.hb.reads[g.readIdx[vregSPV]].fixedReg = abi::REG_SP;
            i32 adj = spAdjustNode(g, sp,
                                   -static_cast<i64>(frameBytes()),
                                   false);
            g.ctxOf[root][vregSPV] = makeNodeVS(g, adj, true);
            g.defined.insert(vregSPV);
        }
        auto cont_it = contOfRegionRoot.find(root);
        if (cont_it != contOfRegionRoot.end()) {
            // Call continuation: read the return value and reload
            // caller-saved values from the frame.
            u32 call_block = cont_it->second;
            const Instr &call = f.blocks[call_block].instrs.back();
            if (call.dst != wir::NO_VREG) {
                HRead rr;
                rr.v = call.dst;
                rr.fixedReg = abi::REG_RETVAL;
                g.readIdx[call.dst] = static_cast<u32>(g.hb.reads.size());
                g.hb.reads.push_back(rr);
                ValSource vs;
                vs.prods.push_back(
                    -1 - static_cast<i32>(g.readIdx[call.dst]));
                g.ctxOf[root][call.dst] = vs;
                g.defined.insert(call.dst);
            }
            for (auto &[v, slot] : spillMap[call_block]) {
                if (!(*live).liveIn[root].test(v))
                    continue;
                ValSource &sp = lookup(g, vregSPV);
                auto [base, disp] = frameSlotAddr(g, sp, slot);
                i32 ld = newMemNode(g, Opcode::LD);
                g.hb.nodes[ld].imm = disp;
                connect(g, ld, 0, base);
                g.ctxOf[root][v] = makeNodeVS(g, ld, true);
                g.defined.insert(v);
            }
        }
        if (is_entry) {
            // Parameters materialize here; downstream regions read the
            // allocated registers, so params count as defined.
            for (Vreg p = 0; p < f.numParams; ++p) {
                if ((*live).liveIn[root].test(p))
                    g.defined.insert(p);
            }
        }

        // Process members topologically.
        for (size_t mi = 0; mi < r.members.size(); ++mi) {
            u32 B = r.members[mi];
            g.curBlock = B;
            if (mi > 0)
                mergeIntoBlock(g, B, members, root);
            lowerBlockBody(g, B);
            lowerTerminator(g, B, members, root);
        }

        connectWrites(g, r);
        return std::move(g.hb);
    }

    u64 frameBytes() const { return (frameSlots + 1) * 8; }

    /**
     * The stack pointer plus an immediate, as a node: an ADDI when the
     * immediate fits the 9-bit form, else an ADD against a
     * materialized constant (the prototype's wide-offset idiom, used
     * by frames of 32+ spill slots). With `cache`, repeated offsets —
     * the spill/reload loops — share one node per region; the frame
     * adjustments on entry and return are unique per site and stay
     * uncached.
     */
    i32
    spAdjustNode(GenState &g, ValSource &sp, i64 imm, bool cache)
    {
        if (cache) {
            auto it = g.spAddrPool.find(imm);
            if (it != g.spAddrPool.end())
                return it->second;
        }
        i32 n;
        if (imm >= isa::IMM9_MIN && imm <= isa::IMM9_MAX) {
            n = newNode(g, Opcode::ADDI);
            g.hb.nodes[n].imm = imm;
            connect(g, n, 0, sp);
        } else {
            i32 cn = constNode(g, imm);
            n = newNode(g, Opcode::ADD);
            connect(g, n, 0, sp);
            g.hb.nodes[n].in1.push_back(cn);
        }
        if (cache)
            g.spAddrPool[imm] = n;
        return n;
    }

    /**
     * Address of a caller-save frame slot as (base source, imm9
     * displacement). Slots beyond the 9-bit displacement range round
     * down to a shared 256-byte base — one cached ADD per region
     * serves a whole run of wide slots — with the remainder in the
     * memory op's immediate.
     */
    std::pair<ValSource, i64>
    frameSlotAddr(GenState &g, ValSource &sp, unsigned slot)
    {
        i64 disp = static_cast<i64>(slot) * 8;
        if (disp <= isa::IMM9_MAX)
            return {sp, disp};
        i64 base = disp & ~i64{255};
        return {makeNodeVS(g, spAdjustNode(g, sp, base, true), sp.total),
                disp - base};
    }

    /** Compute chain and context of a non-root member from its
     *  in-region predecessors. */
    void
    mergeIntoBlock(GenState &g, u32 B, const std::set<u32> &members,
                   u32 root)
    {
        (void)root;
        std::vector<std::pair<u32, CChain>> in;  // (pred, edge chain)
        for (u32 p : members) {
            for (u32 s : f.successors(p)) {
                if (s != B)
                    continue;
                CChain c = g.chains.at(p);
                const auto &t = f.blocks[p].term;
                if (t.kind == TermKind::Br && t.thenBlock != t.elseBlock)
                    c.push_back({g.ctlTest.at(p), t.thenBlock == B});
                in.emplace_back(p, std::move(c));
            }
        }
        TRIPS_ASSERT(!in.empty() && in.size() <= 2,
                     "bad join shape in region of ", fname);
        if (in.size() == 1) {
            g.chains[B] = in[0].second;
            g.ctxOf[B] = g.ctxOf.at(in[0].first);
            return;
        }
        // Proper diamond join: chains are complementary siblings.
        const CChain &c1 = in[0].second;
        CChain nc(c1.begin(), c1.end() - 1);
        g.chains[B] = nc;
        i32 t = c1.back().test;
        bool pol1 = c1.back().pol;

        auto &ctx1 = g.ctxOf.at(in[0].first);
        auto &ctx2 = g.ctxOf.at(in[1].first);
        std::map<Vreg, ValSource> merged;
        std::set<Vreg> keys;
        for (auto &[v, vs] : ctx1)
            keys.insert(v);
        for (auto &[v, vs] : ctx2)
            keys.insert(v);
        for (Vreg v : keys) {
            auto i1 = ctx1.find(v);
            auto i2 = ctx2.find(v);
            if (i1 != ctx1.end() && i2 != ctx2.end() &&
                i1->second.prods == i2->second.prods &&
                !(i1->second.isConst && i1->second.prods.empty())) {
                merged[v] = i1->second;
                continue;
            }
            if (i1 != ctx1.end() && i2 != ctx2.end() &&
                i1->second.isConst && i2->second.isConst &&
                i1->second.cval == i2->second.cval) {
                merged[v] = i1->second;
                continue;
            }
            if (i1 == ctx1.end() || i2 == ctx2.end()) {
                // Defined on one side only: on the other side the vreg
                // keeps its incoming (register) value, so merge the def
                // against a register read. A NULLW would be wrong here:
                // downstream arithmetic would be poisoned by the null.
                bool from_then = i1 != ctx1.end();
                auto &only = from_then ? i1->second : i2->second;
                i32 mv = newNode(g, Opcode::MOV);
                g.hb.nodes[mv].predNode = t;
                g.hb.nodes[mv].predPol = from_then ? pol1 : !pol1;
                connect(g, mv, 0, only);
                i32 mv2 = newNode(g, Opcode::MOV);
                g.hb.nodes[mv2].predNode = t;
                g.hb.nodes[mv2].predPol = from_then ? !pol1 : pol1;
                ValSource inc = incomingVS(g, v);
                connect(g, mv2, 0, inc);
                ValSource vs;
                vs.prods = {mv, mv2};
                vs.total = nc.empty();
                merged[v] = vs;
                continue;
            }
            // Predicated movs merging the two sides.
            i32 m1 = newNode(g, Opcode::MOV);
            g.hb.nodes[m1].predNode = t;
            g.hb.nodes[m1].predPol = pol1;
            connect(g, m1, 0, i1->second);
            i32 m2 = newNode(g, Opcode::MOV);
            g.hb.nodes[m2].predNode = t;
            g.hb.nodes[m2].predPol = !pol1;
            connect(g, m2, 0, i2->second);
            ValSource vs;
            vs.prods = {m1, m2};
            vs.total = nc.empty();
            merged[v] = vs;
        }
        g.ctxOf[B] = std::move(merged);
    }

    bool
    speculable() const
    {
        return opts.speculateArith;
    }

    /** Lower one WIR instruction list. */
    void
    lowerBlockBody(GenState &g, u32 B)
    {
        const CChain &chain = g.chains.at(B);
        auto &ctx = g.ctxOf[B];
        for (const Instr &in : f.blocks[B].instrs)
            lowerInstr(g, B, chain, ctx, in);
    }

    static bool
    fitsImm9(i64 v)
    {
        return v >= isa::IMM9_MIN && v <= isa::IMM9_MAX;
    }

    /** Integer binop folding when both sides are compile-time consts.
     *  Add/Sub/Mul wrap modulo 2^64 like the ISA's ALU (computed in
     *  u64: signed overflow would be undefined behaviour). */
    static std::optional<i64>
    foldConsts(WOp op, i64 a, i64 b)
    {
        const u64 ua = static_cast<u64>(a), ub = static_cast<u64>(b);
        switch (op) {
          case WOp::Add: return static_cast<i64>(ua + ub);
          case WOp::Sub: return static_cast<i64>(ua - ub);
          case WOp::Mul: return static_cast<i64>(ua * ub);
          case WOp::And: return a & b;
          case WOp::Or: return a | b;
          case WOp::Xor: return a ^ b;
          case WOp::Shl: return static_cast<i64>(
              static_cast<u64>(a) << (b & 63));
          case WOp::Shr: return static_cast<i64>(
              static_cast<u64>(a) >> (b & 63));
          case WOp::Sar: return a >> (b & 63);
          default: return std::nullopt;
        }
    }

    void
    lowerInstr(GenState &g, u32 B, const CChain &chain,
               std::map<Vreg, ValSource> &ctx, const Instr &in)
    {
        auto def = [&](ValSource vs) { ctx[in.dst] = std::move(vs);
                                       g.defined.insert(in.dst); };
        // A speculated (unpredicated) op still only delivers when all
        // its inputs deliver, so totality is ANDed through the inputs:
        // an add fed by a predicated load is NOT total, and a store
        // address built from it must get NULLW complement coverage
        // like any other predicated operand (found by differential
        // fuzzing: blocks hung at commit with the store's address
        // operand starved on the untaken path).
        auto unpredTotal = [&](i32 node, bool inputs_total) {
            bool spec = speculable();
            if (!spec)
                setPred(g, node, chain);
            return makeNodeVS(g, node,
                              (spec || chain.empty()) && inputs_total);
        };

        switch (in.op) {
          case WOp::Const: {
            ValSource vs;
            vs.isConst = true;
            if (in.isFloat)
                std::memcpy(&vs.cval, &in.fimm, 8);
            else
                vs.cval = in.imm;
            def(std::move(vs));
            return;
          }
          case WOp::Copy:
            def(lookup(g, in.srcs[0]));
            return;
          case WOp::Select: {
            ValSource &c = lookup(g, in.srcs[0]);
            if (c.isConst && c.prods.empty()) {
                def(lookup(g, in.srcs[c.cval ? 1 : 2]));
                return;
            }
            i32 t = newNode(g, Opcode::TNEI);
            g.hb.nodes[t].imm = 0;
            connect(g, t, 0, c);
            if (!speculable())
                setPred(g, t, chain);
            ValSource &tv = lookup(g, in.srcs[1]);
            ValSource &fv = lookup(g, in.srcs[2]);
            i32 m1 = newNode(g, Opcode::MOV);
            g.hb.nodes[m1].predNode = t;
            g.hb.nodes[m1].predPol = true;
            connect(g, m1, 0, tv);
            i32 m2 = newNode(g, Opcode::MOV);
            g.hb.nodes[m2].predNode = t;
            g.hb.nodes[m2].predPol = false;
            connect(g, m2, 0, fv);
            ValSource vs;
            vs.prods = {m1, m2};
            // The predicated movs can only fire if the test itself
            // delivers, so the condition's totality gates the result.
            vs.total = c.total && tv.total && fv.total &&
                       (speculable() || chain.empty());
            def(std::move(vs));
            return;
          }
          case WOp::Load: {
            ValSource addr = lookup(g, in.srcs[0]);  // copy: may rewrite
            i64 disp = in.imm;
            if (addr.isConst && addr.prods.empty()) {
                addr.cval += disp;
                disp = 0;
            }
            if (!fitsImm9(disp)) {
                addr = addByConst(g, chain, addr, disp);
                disp = 0;
            }
            Opcode op = loadOpcode(in.width, in.loadSigned);
            i32 n = newMemNode(g, op);
            g.hb.nodes[n].imm = disp;
            setPred(g, n, chain);
            connect(g, n, 0, addr);
            def(makeNodeVS(g, n, chain.empty()));
            return;
          }
          case WOp::Store: {
            ValSource addr = lookup(g, in.srcs[0]);
            ValSource val = lookup(g, in.srcs[1]);
            i64 disp = in.imm;
            if (addr.isConst && addr.prods.empty()) {
                addr.cval += disp;
                disp = 0;
            }
            if (!fitsImm9(disp)) {
                addr = addByConst(g, chain, addr, disp);
                disp = 0;
            }
            Opcode op = storeOpcode(in.width);
            i32 n = newMemNode(g, op);
            g.hb.nodes[n].imm = disp;
            if (chain.empty()) {
                connect(g, n, 0, addr);
                connect(g, n, 1, val);
                return;
            }
            // Predicated path: merge value (and address if needed)
            // against NULLW coverage of the complement paths.
            std::vector<i32> nulls;
            for (const CElem &e : chain) {
                i32 nn = newNode(g, Opcode::NULLW);
                g.hb.nodes[nn].predNode = e.test;
                g.hb.nodes[nn].predPol = !e.pol;
                nulls.push_back(nn);
            }
            auto gate = [&](unsigned operand, ValSource &vs) {
                i32 mv = newNode(g, Opcode::MOV);
                g.hb.nodes[mv].predNode = chain.back().test;
                g.hb.nodes[mv].predPol = chain.back().pol;
                connect(g, mv, 0, vs);
                auto &list = operand == 0 ? g.hb.nodes[n].in0
                                          : g.hb.nodes[n].in1;
                list.push_back(mv);
                for (i32 nn : nulls)
                    list.push_back(nn);
            };
            gate(1, val);
            if (addr.total && !addr.prods.empty())
                connect(g, n, 0, addr);
            else if (addr.isConst && addr.prods.empty())
                connect(g, n, 0, addr);
            else
                gate(0, addr);
            return;
          }
          case WOp::Call:
            lowerCall(g, B, in);
            return;
          default:
            break;
        }

        // Remaining ops are pure value computations.
        ValSource &a = lookup(g, in.srcs[0]);
        ValSource *b = in.srcs.size() > 1 ? &lookup(g, in.srcs[1])
                                          : nullptr;
        bool a_const = a.isConst && a.prods.empty();
        bool b_const = b && b->isConst && b->prods.empty();

        if (a_const && (in.srcs.size() == 1 || b_const)) {
            // Full compile-time folding when supported.
            if (auto fv = b ? foldConsts(in.op, a.cval, b->cval)
                            : std::nullopt) {
                ValSource vs;
                vs.isConst = true;
                vs.cval = *fv;
                def(std::move(vs));
                return;
            }
        }

        // Immediate forms (9-bit) with a constant right operand.
        struct ImmMap { WOp w; Opcode imm; };
        static const ImmMap imm_map[] = {
            {WOp::Add, Opcode::ADDI}, {WOp::Mul, Opcode::MULI},
            {WOp::And, Opcode::ANDI}, {WOp::Or, Opcode::ORI},
            {WOp::Xor, Opcode::XORI}, {WOp::Shl, Opcode::SLLI},
            {WOp::Shr, Opcode::SRLI}, {WOp::Sar, Opcode::SRAI},
            {WOp::CmpEq, Opcode::TEQI}, {WOp::CmpNe, Opcode::TNEI},
            {WOp::CmpLt, Opcode::TLTI}, {WOp::CmpGt, Opcode::TGTI},
        };
        if (opts.foldImmediates && b) {
            ValSource *cv = b_const ? b : nullptr;
            ValSource *ov = b_const ? &a : nullptr;
            bool commutative = in.op == WOp::Add || in.op == WOp::Mul ||
                               in.op == WOp::And || in.op == WOp::Or ||
                               in.op == WOp::Xor;
            if (!cv && a_const && commutative) {
                cv = &a;
                ov = b;
            } else if (cv) {
                ov = &a;
            }
            if (cv && fitsImm9(cv->cval)) {
                for (const auto &mapping : imm_map) {
                    if (mapping.w != in.op)
                        continue;
                    i32 n = newNode(g, mapping.imm);
                    g.hb.nodes[n].imm = cv->cval;
                    connect(g, n, 0, *ov);
                    def(unpredTotal(n, ov->total));
                    return;
                }
            }
            // Sub with constant rhs becomes ADDI of the negation
            // (negated in u64: -INT64_MIN wraps to itself, which fails
            // fitsImm9, instead of being undefined behaviour).
            const i64 neg_b = b_const
                ? static_cast<i64>(0 - static_cast<u64>(b->cval)) : 0;
            if (b_const && in.op == WOp::Sub && fitsImm9(neg_b)) {
                i32 n = newNode(g, Opcode::ADDI);
                g.hb.nodes[n].imm = neg_b;
                connect(g, n, 0, a);
                def(unpredTotal(n, a.total));
                return;
            }
        }

        Opcode op = pureOpcode(in.op);
        i32 n = newNode(g, op);
        connect(g, n, 0, a);
        if (b)
            connect(g, n, 1, *b);
        def(unpredTotal(n, a.total && (!b || b->total)));
    }

    /** addr + wide constant helper (pre-add when disp exceeds imm9). */
    ValSource
    addByConst(GenState &g, const CChain &chain, ValSource &base, i64 c)
    {
        (void)chain;
        i32 cn = constNode(g, c);
        i32 n = newNode(g, Opcode::ADD);
        connect(g, n, 0, base);
        g.hb.nodes[n].in1.push_back(cn);
        return makeNodeVS(g, n, base.total);
    }

    static Opcode
    loadOpcode(MemWidth w, bool sgn)
    {
        switch (w) {
          case MemWidth::B1: return sgn ? Opcode::LB : Opcode::LBU;
          case MemWidth::B2: return sgn ? Opcode::LH : Opcode::LHU;
          case MemWidth::B4: return sgn ? Opcode::LW : Opcode::LWU;
          case MemWidth::B8: return Opcode::LD;
        }
        TRIPS_PANIC("bad width");
    }

    static Opcode
    storeOpcode(MemWidth w)
    {
        switch (w) {
          case MemWidth::B1: return Opcode::SB;
          case MemWidth::B2: return Opcode::SH;
          case MemWidth::B4: return Opcode::SW;
          case MemWidth::B8: return Opcode::SD;
        }
        TRIPS_PANIC("bad width");
    }

    static Opcode
    pureOpcode(WOp w)
    {
        switch (w) {
          case WOp::Add: return Opcode::ADD;
          case WOp::Sub: return Opcode::SUB;
          case WOp::Mul: return Opcode::MUL;
          case WOp::Div: return Opcode::DIV;
          case WOp::DivU: return Opcode::DIVU;
          case WOp::Mod: return Opcode::MOD;
          case WOp::ModU: return Opcode::MODU;
          case WOp::And: return Opcode::AND;
          case WOp::Or: return Opcode::OR;
          case WOp::Xor: return Opcode::XOR;
          case WOp::Not: return Opcode::NOT;
          case WOp::Shl: return Opcode::SLL;
          case WOp::Shr: return Opcode::SRL;
          case WOp::Sar: return Opcode::SRA;
          case WOp::SextB: return Opcode::EXTSB;
          case WOp::SextH: return Opcode::EXTSH;
          case WOp::SextW: return Opcode::EXTSW;
          case WOp::ZextB: return Opcode::EXTUB;
          case WOp::ZextH: return Opcode::EXTUH;
          case WOp::ZextW: return Opcode::EXTUW;
          case WOp::FAdd: return Opcode::FADD;
          case WOp::FSub: return Opcode::FSUB;
          case WOp::FMul: return Opcode::FMUL;
          case WOp::FDiv: return Opcode::FDIV;
          case WOp::FNeg: return Opcode::FNEG;
          case WOp::IToF: return Opcode::ITOF;
          case WOp::FToI: return Opcode::FTOI;
          case WOp::CmpEq: return Opcode::TEQ;
          case WOp::CmpNe: return Opcode::TNE;
          case WOp::CmpLt: return Opcode::TLT;
          case WOp::CmpLe: return Opcode::TLE;
          case WOp::CmpGt: return Opcode::TGT;
          case WOp::CmpGe: return Opcode::TGE;
          case WOp::CmpLtU: return Opcode::TLTU;
          case WOp::CmpGeU: return Opcode::TGEU;
          case WOp::FCmpEq: return Opcode::TFEQ;
          case WOp::FCmpNe: return Opcode::TFNE;
          case WOp::FCmpLt: return Opcode::TFLT;
          case WOp::FCmpLe: return Opcode::TFLE;
          default:
            TRIPS_PANIC("unexpected WIR op in pureOpcode");
        }
    }

    void
    lowerCall(GenState &g, u32 B, const Instr &in)
    {
        TRIPS_ASSERT(in.srcs.size() <= abi::MAX_ARGS,
                     "too many call args in ", fname);
        // Argument writes.
        for (size_t i = 0; i < in.srcs.size(); ++i) {
            HWrite w;
            w.fixedReg = abi::REG_ARG0 + static_cast<int>(i);
            ValSource &vs = lookup(g, in.srcs[i]);
            for (i32 p : prodsOf(g, vs))
                w.prods.push_back(p);
            g.hb.writes.push_back(std::move(w));
        }
        // Caller-save spills.
        for (auto &[v, slot] : spillMap.at(B)) {
            ValSource &sp = lookup(g, vregSPV);
            ValSource &val = lookup(g, v);
            auto [base, disp] = frameSlotAddr(g, sp, slot);
            i32 st = newMemNode(g, Opcode::SD);
            g.hb.nodes[st].imm = disp;
            connect(g, st, 0, base);
            connect(g, st, 1, val);
        }
        // The CALLO exit itself.
        i32 c = newNode(g, Opcode::CALLO);
        g.hb.nodes[c].targetLabel = in.callee + ".r0";
        u32 cont = callCont.at(B);
        i32 cont_region = blockRegion[cont];
        TRIPS_ASSERT(cont_region >= 0, "in ", fname);
        g.hb.nodes[c].returnLabel =
            labelOf(static_cast<u32>(cont_region));
        CExit e;
        e.chain = g.chains.at(B);
        e.exitBlock = B;
        g.exits.push_back(std::move(e));
    }

    i32
    controlTest(GenState &g, u32 B, Vreg cond)
    {
        const CChain &chain = g.chains.at(B);
        ValSource &vs = lookup(g, cond);
        if (vs.prods.size() == 1 && vs.prods[0] >= 0 && chain.empty()) {
            const TNode &n = g.hb.nodes[vs.prods[0]];
            if (isTest(n.op) && n.predNode < 0)
                return vs.prods[0];
        }
        i32 t = newNode(g, Opcode::TNEI);
        g.hb.nodes[t].imm = 0;
        connect(g, t, 0, vs);
        setPred(g, t, chain);
        return t;
    }

    void
    lowerTerminator(GenState &g, u32 B, const std::set<u32> &members,
                    u32 root)
    {
        // A call block's CALLO is its exit; the Jmp to the continuation
        // is encoded as the CALLO return label, not a branch.
        if (isCallBlock(f, B))
            return;
        const auto &t = f.blocks[B].term;
        const CChain &chain = g.chains.at(B);
        auto in_region = [&](u32 s) {
            return members.count(s) && s != root;
        };
        auto emit_bro = [&](u32 target, const CChain &bchain) {
            i32 n = newNode(g, Opcode::BRO);
            i32 tr = blockRegion[target];
            TRIPS_ASSERT(tr >= 0, "in ", fname);
            g.hb.nodes[n].targetLabel = labelOf(static_cast<u32>(tr));
            if (!bchain.empty()) {
                g.hb.nodes[n].predNode = bchain.back().test;
                g.hb.nodes[n].predPol = bchain.back().pol;
            }
            CExit e;
            e.chain = bchain;
            e.exitBlock = B;
            g.exits.push_back(std::move(e));
        };

        switch (t.kind) {
          case TermKind::Jmp:
            if (!in_region(t.thenBlock))
                emit_bro(t.thenBlock, chain);
            return;
          case TermKind::Br: {
            if (t.thenBlock == t.elseBlock) {
                if (!in_region(t.thenBlock))
                    emit_bro(t.thenBlock, chain);
                return;
            }
            i32 ctl = controlTest(g, B, t.cond);
            g.ctlTest[B] = ctl;
            for (bool pol : {true, false}) {
                u32 target = pol ? t.thenBlock : t.elseBlock;
                if (in_region(target))
                    continue;
                CChain bc = chain;
                bc.push_back({ctl, pol});
                emit_bro(target, bc);
            }
            return;
          }
          case TermKind::Ret: {
            if (t.retVal != wir::NO_VREG) {
                g.ctxOf[B][vregRETV] = lookup(g, t.retVal);
                g.defined.insert(vregRETV);
            }
            if (frameSlots > 0) {
                // Restore the caller's stack pointer on return paths:
                // the ret-exit context of SPV becomes SP + frame, so
                // the (fixed R1) write commits the restored value.
                ValSource &sp = lookup(g, vregSPV);
                i32 adj = spAdjustNode(
                    g, sp, static_cast<i64>(frameBytes()), false);
                g.ctxOf[B][vregSPV] = makeNodeVS(g, adj, false);
                g.defined.insert(vregSPV);
            }
            i32 n = newNode(g, Opcode::RET);
            setPred(g, n, chain);
            CExit e;
            e.chain = chain;
            e.exitBlock = B;
            e.isRet = true;
            g.exits.push_back(std::move(e));
            return;
          }
        }
    }

    // ------------------------------------------------------------------
    // Block-output (register write) connection
    // ------------------------------------------------------------------

    void
    connectWrites(GenState &g, const Region &r)
    {
        if (r.isCall) {
            // Live values are spilled; only the arg writes remain —
            // except that an entry region that is itself a call block
            // must still publish the adjusted stack pointer.
            if (g.defined.count(vregSPV)) {
                HWrite w;
                w.v = vregSPV;
                w.fixedReg = abi::REG_SP;
                connectOneWrite(g, w);
                g.hb.writes.push_back(std::move(w));
            }
            return;
        }

        // Which vregs need register writes?
        std::set<Vreg> write_set;
        for (const CExit &e : g.exits) {
            if (e.isRet)
                continue;
            u32 target = exitTargetOf(g, e);
            for (u32 v : (*live).liveIn[target].bits()) {
                if (g.defined.count(v))
                    write_set.insert(v);
            }
        }
        if (g.defined.count(vregRETV))
            write_set.insert(vregRETV);
        if (g.defined.count(vregSPV))
            write_set.insert(vregSPV);

        for (Vreg v : write_set) {
            HWrite w;
            w.v = v;
            if (v == vregRETV)
                w.fixedReg = abi::REG_RETVAL;
            if (v == vregSPV)
                w.fixedReg = abi::REG_SP;
            connectOneWrite(g, w);
            g.hb.writes.push_back(std::move(w));
        }
    }

    /** WIR successor block of a non-ret exit (for liveness). */
    u32
    exitTargetOf(GenState &g, const CExit &e)
    {
        // Recover: scan the exit block's terminator for targets outside
        // the region or back to root — conservative union handled by
        // caller looping over all exits, so returning any outside
        // target of this block is sufficient. We track it precisely by
        // recomputing from the terminator and chain polarity.
        const auto &t = f.blocks[e.exitBlock].term;
        if (t.kind == TermKind::Jmp)
            return t.thenBlock;
        if (t.kind == TermKind::Br) {
            if (e.chain.empty())
                return t.thenBlock;
            // The chain's last element distinguishes then/else when the
            // branch itself created the exit.
            bool pol = e.chain.back().pol;
            auto it = g.ctlTest.find(e.exitBlock);
            if (it != g.ctlTest.end() &&
                it->second == e.chain.back().test)
                return pol ? t.thenBlock : t.elseBlock;
            return t.thenBlock;
        }
        TRIPS_PANIC("ret exit has no target in ", fname);
    }

    void
    connectOneWrite(GenState &g, HWrite &w)
    {
        struct Leaf { const CExit *e; ValSource *vs; };
        std::vector<Leaf> leaves;
        for (const CExit &e : g.exits) {
            auto &ctx = g.ctxOf[e.exitBlock];
            auto it = ctx.find(w.v);
            leaves.push_back({&e, it == ctx.end() ? nullptr : &it->second});
        }
        // Shortcut: single exit, or identical total sources everywhere.
        bool all_same = leaves[0].vs != nullptr;
        for (const Leaf &l : leaves) {
            if (!all_same)
                break;
            all_same &= l.vs != nullptr &&
                        ((l.vs->prods == leaves[0].vs->prods &&
                          !(l.vs->isConst && l.vs->prods.empty())) ||
                         (l.vs->isConst && leaves[0].vs->isConst &&
                          l.vs->prods.empty() &&
                          leaves[0].vs->prods.empty() &&
                          l.vs->cval == leaves[0].vs->cval));
        }
        if (leaves.size() == 1 ||
            (all_same && leaves[0].vs->total)) {
            if (!leaves[0].vs) {
                // Defined only on sibling paths that exit elsewhere:
                // this exit keeps the incoming register value.
                ValSource inc = incomingVS(g, w.v);
                for (i32 p : prodsOf(g, inc))
                    w.prods.push_back(p);
                return;
            }
            for (i32 p : prodsOf(g, *leaves[0].vs))
                w.prods.push_back(p);
            return;
        }
        for (Leaf &l : leaves) {
            TRIPS_ASSERT(!l.e->chain.empty(),
                         "multi-exit region with unpredicated exit in ",
                         fname);
            const CElem &leaf = l.e->chain.back();
            if (!l.vs) {
                // No in-region definition on this exit. If the value is
                // live into the exit's target it is live-THROUGH (e.g.
                // a parameter used past a join): forward the incoming
                // register value. A NULLW here would commit null over
                // the live value (found by differential fuzzing: params
                // read as 0 after a region with a conditional call).
                // Only a genuinely dead exit gets the slot-satisfying
                // NULLW.
                bool live_through =
                    !l.e->isRet && w.fixedReg < 0 &&
                    (*live).liveIn[exitTargetOf(g, *l.e)].test(w.v);
                if (live_through) {
                    i32 mv = newNode(g, Opcode::MOV);
                    g.hb.nodes[mv].predNode = leaf.test;
                    g.hb.nodes[mv].predPol = leaf.pol;
                    ValSource inc = incomingVS(g, w.v);
                    connect(g, mv, 0, inc);
                    w.prods.push_back(mv);
                    continue;
                }
                i32 nn = newNode(g, Opcode::NULLW);
                g.hb.nodes[nn].predNode = leaf.test;
                g.hb.nodes[nn].predPol = leaf.pol;
                w.prods.push_back(nn);
            } else {
                i32 mv = newNode(g, Opcode::MOV);
                g.hb.nodes[mv].predNode = leaf.test;
                g.hb.nodes[mv].predPol = leaf.pol;
                connect(g, mv, 0, *l.vs);
                w.prods.push_back(mv);
            }
        }
    }
};

} // namespace

// ---------------------------------------------------------------------
// Frontend: the pipeline-facing interface
// ---------------------------------------------------------------------

struct Frontend::Impl
{
    FuncCompiler fc;
};

Frontend::Frontend(const Module &mod, const std::string &fname,
                   const Options &opts)
    : impl(std::make_unique<Impl>(Impl{FuncCompiler(mod, fname, opts)}))
{}

Frontend::~Frontend() = default;

void
Frontend::normalize()
{
    impl->fc.normalize();
}

unsigned
Frontend::formRegions(const std::set<u32> &forceSingleton)
{
    return impl->fc.formRegions(forceSingleton);
}

std::vector<til::HBlock>
Frontend::ifConvert()
{
    return impl->fc.ifConvert();
}

std::vector<std::vector<Vreg>>
Frontend::regionLiveSets() const
{
    return impl->fc.regionLiveSets();
}

Options &
Frontend::options()
{
    return impl->fc.opts;
}

Vreg
Frontend::freshVreg()
{
    return impl->fc.freshVreg();
}

void
Frontend::allowOversized(bool yes)
{
    impl->fc.oversizedOk = yes;
}

std::vector<unsigned>
Frontend::regionLoopDepths() const
{
    return impl->fc.regionLoopDepths();
}

bool
Frontend::spillableVreg(Vreg v) const
{
    return impl->fc.spillableVreg(v);
}

Frontend::SpillRewrite
Frontend::spillToFrame(const std::vector<Vreg> &victims)
{
    return impl->fc.spillToFrame(victims);
}

} // namespace trips::compiler
