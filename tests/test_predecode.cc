/**
 * @file
 * Equivalence suite for the functional engine (src/trips/func_sim.hh,
 * src/trips/predecode.hh) against the legacy token-scatter interpreter
 * kept as the test oracle (tests/func_reference.hh). The engine must be
 * architecturally *bit-identical* to the oracle — retVal, final memory
 * image, serialized ISA stats and committed-block count — on every
 * registered workload under both compiler presets and across a
 * differential fuzz slice. Its observer records must carry the
 * oracle's records up to the order of fired instructions, and the Fig.
 * 7 / Fig. 10 consumers of that stream must compute identical results.
 * Plus: checkpoint resumption (with and without an observer), the
 * validation-time rejection of unschedulable blocks, decodeBlock unit
 * tests and the decoded-block cache accounting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "compiler/codegen.hh"
#include "func_reference.hh"
#include "harness/fuzzgen.hh"
#include "harness/sweep.hh"
#include "ideal/ideal.hh"
#include "pred/replay.hh"
#include "sim/checkpoint.hh"
#include "trips/func_sim.hh"
#include "trips/predecode.hh"
#include "wir/interp.hh"
#include "workloads/workload.hh"

#include "testutil.hh"

using namespace trips;

namespace {

std::vector<u8>
isaBytes(const sim::IsaStats &s)
{
    sim::ByteWriter w;
    sim::putIsaStats(w, s);
    return w.data();
}

/** One engine's complete architectural outcome for a program. */
struct EngineRun
{
    i64 retVal = 0;
    u64 blocks = 0;
    bool fuelExhausted = false;
    std::vector<u8> stats;
    MemImage mem;
};

/** The production engine, one straight run. */
EngineRun
runProduction(const isa::Program &prog, const wir::Module &mod,
              u64 fuel = 50'000'000)
{
    EngineRun r;
    wir::Interp::loadGlobals(mod, r.mem);
    sim::FuncSim fsim(prog, r.mem);
    auto res = fsim.run(fuel);
    r.retVal = res.retVal;
    r.blocks = fsim.blocksExecuted();
    r.fuelExhausted = res.fuelExhausted;
    r.stats = isaBytes(res.stats);
    return r;
}

/** The oracle, one straight run. */
EngineRun
runReference(const isa::Program &prog, const wir::Module &mod,
             u64 fuel = 50'000'000)
{
    EngineRun r;
    wir::Interp::loadGlobals(mod, r.mem);
    auto res = sim::ref::refRun(prog, r.mem, fuel);
    r.retVal = res.retVal;
    r.blocks = res.stats.blocks;
    r.fuelExhausted = res.fuelExhausted;
    r.stats = isaBytes(res.stats);
    return r;
}

/** Assert the two runs produced byte-identical outcomes. */
void
expectIdentical(const EngineRun &ref, const EngineRun &prod,
                const std::string &what)
{
    EXPECT_EQ(ref.retVal, prod.retVal) << what;
    EXPECT_EQ(ref.blocks, prod.blocks) << what;
    EXPECT_EQ(ref.fuelExhausted, prod.fuelExhausted) << what;
    EXPECT_EQ(ref.stats, prod.stats) << what << ": ISA stats differ";
    EXPECT_EQ("", sim::diffMemImages(ref.mem, prod.mem, what.c_str()));
}

// ---------------------------------------------------------------------
// Every workload, both presets: full architectural byte-identity.
// ---------------------------------------------------------------------

TEST(PredecodeEquiv, AllWorkloadsBothPresets)
{
    unsigned checked = 0;
    for (const auto &w : workloads::all()) {
        wir::Module mod;
        w.build(mod);
        struct
        {
            const char *name;
            compiler::Options opts;
            bool enabled;
        } presets[] = {
            {"compiled", compiler::Options::compiled(), true},
            {"hand", compiler::Options::hand(), w.isSimple},
        };
        for (const auto &p : presets) {
            if (!p.enabled)
                continue;
            auto prog = compiler::compileToTrips(mod, p.opts);
            expectIdentical(runReference(prog, mod),
                            runProduction(prog, mod),
                            w.name + "/" + p.name);
            ++checked;
        }
    }
    // The registry must not silently shrink under this suite.
    EXPECT_GE(checked, workloads::all().size());
}

// Every workload under every preset passes validation, schedulability
// included (compileToTrips throws when Program::finalize fails), so
// every block it runs has a static schedule.
TEST(PredecodeEquiv, EveryWorkloadAndPresetIsSchedulable)
{
    unsigned compiled = 0;
    for (const auto &w : workloads::all()) {
        wir::Module mod;
        w.build(mod);
        for (const auto &opts :
             {compiler::Options::compiled(), compiler::Options::hand(),
              compiler::Options::basicBlock()}) {
            auto prog = compiler::compileToTrips(mod, opts);
            for (u32 b = 0; b < prog.numBlocks(); ++b) {
                ASSERT_EQ(isa::fireSchedule(prog.block(b)).size(),
                          prog.block(b).insts.size())
                    << w.name << " block " << prog.block(b).label;
            }
            ++compiled;
        }
    }
    EXPECT_EQ(compiled, 3 * workloads::all().size());
}

// ---------------------------------------------------------------------
// Observer stream: the record stream is the input to the Fig. 7/10
// studies, so "roughly equal" is not enough. Per block, every field
// but the order of `fired` must equal the oracle's; production lists
// `fired` in schedule order (see BlockRecord::fired), which the
// recorder checks as it goes.
// ---------------------------------------------------------------------

/**
 * Serializes every committed-block record into one byte stream, with
 * `fired` sorted by slot (the oracle's fire order is dynamic). With
 * @p checkOrder set, also counts records whose `fired` order breaks
 * the schedule contract.
 */
class RecordingObserver : public sim::BlockObserver
{
  public:
    explicit RecordingObserver(bool check_order = false)
        : checkOrder(check_order) {}

    void onBlockCommit(const isa::Block &b, const sim::BlockRecord &rec)
        override
    {
        if (checkOrder && !scheduleOrdered(b, rec))
            ++orderViolations;
        put32(rec.blockIdx);
        put32(rec.nextBlock);
        bytes.push_back(rec.exitTaken);
        bytes.push_back(rec.isCall);
        bytes.push_back(rec.isRet);
        bytes.push_back(rec.halts);
        put32(rec.branchInst);
        auto fired = rec.fired;
        std::sort(fired.begin(), fired.end(),
                  [](const sim::FiredOp &x, const sim::FiredOp &y) {
                      return x.inst < y.inst;
                  });
        put32(static_cast<u32>(fired.size()));
        for (const auto &f : fired) {
            put32(f.inst);
            put32(static_cast<u32>(f.prodOp0));
            put32(static_cast<u32>(f.prodOp1));
            put32(static_cast<u32>(f.prodPred));
            put64(f.addr);
            bytes.push_back(f.width);
            bytes.push_back(f.nullToken);
        }
        put32(static_cast<u32>(rec.writeProducer.size()));
        for (size_t i = 0; i < rec.writeProducer.size(); ++i) {
            put32(static_cast<u32>(rec.writeProducer[i]));
            bytes.push_back(rec.writeIsNull[i]);
        }
        ++records;
    }

    std::vector<u8> bytes;
    u64 records = 0;
    u64 orderViolations = 0;

  private:
    /** Every instruction producer before its consumer; memory ops in
     *  strictly increasing (LSID, slot) order. */
    static bool
    scheduleOrdered(const isa::Block &b, const sim::BlockRecord &rec)
    {
        std::vector<int> pos(b.insts.size(), -1);
        std::tuple<int, int> lastMem{-1, -1};
        for (size_t k = 0; k < rec.fired.size(); ++k) {
            const auto &f = rec.fired[k];
            for (i16 p : {f.prodOp0, f.prodOp1, f.prodPred}) {
                if (p >= 0 && (pos[p] < 0 || pos[p] >= int(k)))
                    return false;
            }
            pos[f.inst] = static_cast<int>(k);
            if (isMemory(b.insts[f.inst].op)) {
                std::tuple<int, int> key{b.insts[f.inst].lsid, f.inst};
                if (key <= lastMem)
                    return false;
                lastMem = key;
            }
        }
        return true;
    }

    void put32(u32 v)
    {
        for (int i = 0; i < 4; ++i)
            bytes.push_back(static_cast<u8>(v >> (8 * i)));
    }
    void put64(u64 v)
    {
        put32(static_cast<u32>(v));
        put32(static_cast<u32>(v >> 32));
    }

    bool checkOrder;
};

TEST(PredecodeEquiv, ObserverStreamIdentical)
{
    for (const char *name : {"autocor", "a2time", "matmul"}) {
        wir::Module mod;
        workloads::find(name).build(mod);
        auto prog =
            compiler::compileToTrips(mod, compiler::Options::compiled());

        MemImage rmem;
        wir::Interp::loadGlobals(mod, rmem);
        RecordingObserver ref;
        const i64 refRet = sim::ref::refRun(prog, rmem, 50'000'000,
                                            {&ref}).retVal;

        MemImage pmem;
        wir::Interp::loadGlobals(mod, pmem);
        sim::FuncSim fsim(prog, pmem);
        RecordingObserver prod(true);
        fsim.addObserver(&prod);
        const i64 prodRet = fsim.run().retVal;

        EXPECT_EQ(refRet, prodRet) << name;
        EXPECT_GT(ref.records, 0u) << name;
        EXPECT_EQ(ref.records, prod.records) << name;
        EXPECT_EQ(ref.bytes, prod.bytes)
            << name << ": observer records differ";
        EXPECT_EQ(prod.orderViolations, 0u)
            << name << ": fired not in schedule order";
    }
}

// ---------------------------------------------------------------------
// Consumer-level pin: the Fig. 7 predictors and the Fig. 10 ideal
// machines must compute the same results on the production stream as
// on the oracle's.
// ---------------------------------------------------------------------

/** Every observer the Fig. 7 and Fig. 10 drivers attach. */
struct FigureConsumers
{
    ideal::IdealSim ideal[3];
    pred::NbpObserver nbpProto{pred::NextBlockConfig::prototype()};
    pred::NbpObserver nbpImproved{pred::NextBlockConfig::improved()};
    pred::AlphaObserver alpha;

    static ideal::IdealConfig
    idealConfig(int k)
    {
        ideal::IdealConfig c;  // k == 0: 1K window, 8-cycle dispatch
        if (k >= 1)
            c.dispatchCost = 0;
        if (k == 2)
            c.windowInsts = 128 * 1024;
        return c;
    }

    FigureConsumers()
        : ideal{ideal::IdealSim(idealConfig(0)),
                ideal::IdealSim(idealConfig(1)),
                ideal::IdealSim(idealConfig(2))}
    {}

    std::vector<sim::BlockObserver *>
    all()
    {
        return {&ideal[0], &ideal[1], &ideal[2], &nbpProto, &nbpImproved,
                &alpha};
    }
};

TEST(PredecodeEquiv, FigureConsumersMatchReference)
{
    for (const char *name : {"autocor", "a2time", "matmul"}) {
        wir::Module mod;
        workloads::find(name).build(mod);
        for (auto [preset, opts] :
             {std::pair{"compiled", compiler::Options::compiled()},
              std::pair{"basicBlock", compiler::Options::basicBlock()}}) {
            const std::string what = std::string(name) + "/" + preset;
            auto prog = compiler::compileToTrips(mod, opts);

            FigureConsumers ref;
            MemImage rmem;
            wir::Interp::loadGlobals(mod, rmem);
            sim::ref::refRun(prog, rmem, 50'000'000, ref.all());

            FigureConsumers prod;
            MemImage pmem;
            wir::Interp::loadGlobals(mod, pmem);
            sim::FuncSim fsim(prog, pmem);
            for (auto *o : prod.all())
                fsim.addObserver(o);
            ASSERT_FALSE(fsim.run().fuelExhausted) << what;

            for (int k = 0; k < 3; ++k) {
                const auto r = ref.ideal[k].result();
                const auto p = prod.ideal[k].result();
                EXPECT_GT(r.executed, 0u) << what;
                EXPECT_EQ(r.executed, p.executed) << what << " ideal " << k;
                EXPECT_EQ(r.makespan, p.makespan) << what << " ideal " << k;
            }
            EXPECT_GT(ref.nbpProto.nbp.stats().predictions, 0u) << what;
            EXPECT_EQ(ref.nbpProto.nbp.stats(), prod.nbpProto.nbp.stats())
                << what;
            EXPECT_EQ(ref.nbpImproved.nbp.stats(),
                      prod.nbpImproved.nbp.stats())
                << what;
            EXPECT_EQ(ref.alpha.predictions, prod.alpha.predictions)
                << what;
            EXPECT_EQ(ref.alpha.mispredictions, prod.alpha.mispredictions)
                << what;
        }
    }
}

// ---------------------------------------------------------------------
// Differential fuzz slice: generated programs, oracle vs production.
// ---------------------------------------------------------------------

TEST(PredecodeEquiv, FuzzSlice)
{
    const u64 count = testutil::slowScale(500, 2000);
    harness::ShapeConfig shape;
    for (u64 i = 0; i < count; ++i) {
        u64 seed = harness::taskSeed(0xdec0ded, i);
        wir::Module mod = harness::generate(seed, shape);
        auto prog =
            compiler::compileToTrips(mod, compiler::Options::compiled());
        expectIdentical(runReference(prog, mod), runProduction(prog, mod),
                        "seed " + std::to_string(seed));
        if (HasFailure()) {
            ADD_FAILURE() << "repro: sweep_main --repro " << seed;
            break;
        }
    }
}

// ---------------------------------------------------------------------
// Checkpoints: walk in slices, snapshot each boundary, resume the
// snapshot in a fresh simulator and demand the oracle's straight-run
// outcome (resumability is engine-independent architectural state).
// ---------------------------------------------------------------------

TEST(PredecodeEquiv, CheckpointResumesToReference)
{
    wir::Module mod;
    workloads::find("autocor").build(mod);
    auto prog =
        compiler::compileToTrips(mod, compiler::Options::compiled());
    auto straight = runReference(prog, mod);
    ASSERT_FALSE(straight.fuelExhausted);

    MemImage wMem;
    wir::Interp::loadGlobals(mod, wMem);
    sim::FuncSim walker(prog, wMem);
    const u64 every = 500;
    unsigned boundaries = 0;
    for (unsigned k = 0; k < 5; ++k) {
        walker.run(every);
        if (walker.halted())
            break;
        sim::Checkpoint ck;
        walker.snapshot(ck);
        // Byte format exercised on the way too.
        sim::Checkpoint rck =
            sim::deserializeCheckpoint(sim::serializeCheckpoint(ck));
        ++boundaries;

        MemImage rMem;
        sim::FuncSim resumed(prog, rMem);
        resumed.restore(rck);
        auto rr = resumed.run();
        ASSERT_FALSE(rr.fuelExhausted);
        EXPECT_EQ(straight.retVal, rr.retVal);
        EXPECT_EQ(straight.blocks, resumed.blocksExecuted());
        EXPECT_EQ(straight.stats, isaBytes(rr.stats));
        EXPECT_EQ("", sim::diffMemImages(straight.mem, rMem,
                                         "resumed mem"));
    }
    EXPECT_GE(boundaries, 2u)
        << "workload too short to exercise checkpoint resumption";
}

// ---------------------------------------------------------------------
// Observed mode is resumable: one observer attached across run()
// slices, rewound by a restore in the middle (its stream truncated to
// the snapshot point), must see exactly the straight run's stream.
// ---------------------------------------------------------------------

TEST(PredecodeEquiv, ObservedRunResumable)
{
    wir::Module mod;
    workloads::find("autocor").build(mod);
    auto prog =
        compiler::compileToTrips(mod, compiler::Options::compiled());

    MemImage sMem;
    wir::Interp::loadGlobals(mod, sMem);
    sim::FuncSim straight(prog, sMem);
    RecordingObserver sRec;
    straight.addObserver(&sRec);
    auto sres = straight.run();
    ASSERT_FALSE(sres.fuelExhausted);

    MemImage mem;
    wir::Interp::loadGlobals(mod, mem);
    sim::FuncSim fsim(prog, mem);
    RecordingObserver rec;
    fsim.addObserver(&rec);
    sim::FuncResult res;
    sim::Checkpoint ck;
    size_t mark = 0;
    bool rewound = false;
    for (unsigned slice = 0; !fsim.halted(); ++slice) {
        res = fsim.run(500);
        if (slice == 1) {
            fsim.snapshot(ck);
            mark = rec.bytes.size();
        } else if (slice == 3 && !fsim.halted()) {
            fsim.restore(sim::deserializeCheckpoint(
                sim::serializeCheckpoint(ck)));
            rec.bytes.resize(mark);
            rewound = true;
        }
    }
    ASSERT_TRUE(rewound) << "workload too short to exercise the rewind";
    EXPECT_EQ(sres.retVal, res.retVal);
    EXPECT_EQ(isaBytes(sres.stats), isaBytes(res.stats));
    EXPECT_EQ(sRec.bytes, rec.bytes) << "sliced observer stream differs";
    EXPECT_EQ("", sim::diffMemImages(sMem, mem, "observed resume mem"));
}

// ---------------------------------------------------------------------
// Unschedulable blocks: validateBlock (so Program::finalize) rejects
// them with a message naming the violation, and the same shape made by
// mutating a finalized block makes decodeBlock — and so FuncSim::run —
// throw TripsError{InvalidArgument, Sim} instead of running it.
// ---------------------------------------------------------------------

/** Smallest complete block: GENS feeding the lone write, plus RET. */
isa::Block
trivialBlock()
{
    isa::Block b;
    b.label = "triv";
    isa::Instruction gens;
    gens.op = isa::Opcode::GENS;
    gens.imm = 7;
    gens.targets[0] = {isa::Target::Kind::Write, 0};
    b.insts.push_back(gens);
    isa::Instruction ret;
    ret.op = isa::Opcode::RET;
    b.insts.push_back(ret);
    b.writes.push_back(isa::WriteInst{3});
    return b;
}

/** finalize() must fail on @p b, naming @p violation. */
void
expectRejected(isa::Block b, const std::string &violation)
{
    isa::Program prog;
    prog.addBlock(std::move(b));
    const std::string err = prog.finalize();
    EXPECT_NE(err.find(violation), std::string::npos)
        << "finalize said: \"" << err << "\"";
}

/** @p prog finalized, then mutated by @p mutate: decoding and running
 *  it must throw TripsError{InvalidArgument, Sim}. */
template <typename F>
void
expectUndecodableAfterMutation(isa::Program prog, F mutate)
{
    ASSERT_EQ("", prog.finalize());
    mutate(prog.mutableBlock(0));
    try {
        sim::decodeBlock(prog.block(0));
        ADD_FAILURE() << "decodeBlock accepted an unschedulable block";
    } catch (const TripsError &e) {
        EXPECT_EQ(e.code(), ErrCode::InvalidArgument) << e.what();
        EXPECT_EQ(e.status().subsys, Subsys::Sim) << e.what();
    }
    MemImage mem;
    sim::FuncSim fsim(prog, mem);
    EXPECT_THROW(fsim.run(), TripsError);
}

/** Two MOVs, each feeding the other. */
isa::Block
dataflowCycleBlock()
{
    isa::Block b = trivialBlock();
    isa::Instruction m0, m1;
    m0.op = isa::Opcode::MOV;
    m1.op = isa::Opcode::MOV;
    m0.targets[0] = {isa::Target::Kind::Op0, 3}; // m1's slot
    m1.targets[0] = {isa::Target::Kind::Op0, 2}; // m0's slot
    b.insts.push_back(m0);
    b.insts.push_back(m1);
    return b;
}

TEST(PredecodeUnit, DataflowCycleRejected)
{
    expectRejected(dataflowCycleBlock(), "dataflow cycle");

    // Valid first: a GENS feeds m0, m0 feeds m1. Then m1 is pointed
    // back at m0.
    isa::Block b = trivialBlock();
    isa::Instruction g, m0, m1;
    g.op = isa::Opcode::GENS;
    g.targets[0] = {isa::Target::Kind::Op0, 3};  // m0
    m0.op = isa::Opcode::MOV;
    m0.targets[0] = {isa::Target::Kind::Op0, 4};  // m1
    m1.op = isa::Opcode::MOV;
    b.insts.push_back(g);
    b.insts.push_back(m0);
    b.insts.push_back(m1);
    isa::Program prog;
    prog.addBlock(std::move(b));
    expectUndecodableAfterMutation(std::move(prog), [](isa::Block &mb) {
        mb.insts[4].targets[0] = {isa::Target::Kind::Op0, 3};
    });
}

/** A load at @p load_lsid feeding the address of a store at
 *  @p store_lsid. */
isa::Block
loadFeedsStoreBlock(u8 load_lsid, u8 store_lsid)
{
    isa::Block b;
    b.label = "lsidcycle";
    isa::Instruction addr;
    addr.op = isa::Opcode::GENS;
    addr.imm = 64;
    addr.targets[0] = {isa::Target::Kind::Op0, 1}; // load address
    b.insts.push_back(addr);
    isa::Instruction ld;
    ld.op = isa::Opcode::LD;
    ld.lsid = load_lsid;
    ld.targets[0] = {isa::Target::Kind::Op0, 2}; // store address
    b.insts.push_back(ld);
    isa::Instruction st;
    st.op = isa::Opcode::SD;
    st.lsid = store_lsid;
    b.insts.push_back(st);
    // Store value operand.
    isa::Instruction val;
    val.op = isa::Opcode::GENS;
    val.imm = 1;
    val.targets[0] = {isa::Target::Kind::Op1, 2};
    b.insts.push_back(val);
    isa::Instruction ret;
    ret.op = isa::Opcode::RET;
    b.insts.push_back(ret);
    b.storeMask = 1u << store_lsid;
    return b;
}

TEST(PredecodeUnit, LsidOrderCycleRejected)
{
    // A later-LSID load feeding the address of an earlier-LSID store:
    // the LSID chain orders store before load, the dataflow edge
    // orders load before store — combined graph is cyclic.
    expectRejected(loadFeedsStoreBlock(1, 0), "LSID order");

    isa::Program prog;
    prog.addBlock(loadFeedsStoreBlock(0, 1));
    expectUndecodableAfterMutation(std::move(prog), [](isa::Block &mb) {
        mb.insts[1].lsid = 1;
        mb.insts[2].lsid = 0;
        mb.storeMask = 1u << 0;
    });
}

/** Header reads of R4 and R5 into MOV operand slots, the MOV feeding
 *  the lone write; @p second_into_mov aims read 1 at the MOV too. */
isa::Block
twoReadsBlock(bool second_into_mov)
{
    isa::Block b;
    b.label = "tworeads";
    b.reads.push_back(isa::ReadInst{4, {{isa::Target::Kind::Op0, 0}, {}}});
    b.reads.push_back(isa::ReadInst{
        5, {{isa::Target::Kind::Op0, second_into_mov ? u8(0) : u8(1)},
            {}}});
    isa::Instruction m0, m1;
    m0.op = isa::Opcode::MOV;
    m0.targets[0] = {isa::Target::Kind::Write, 0};
    m1.op = isa::Opcode::MOV;
    b.insts.push_back(m0);
    b.insts.push_back(m1);
    isa::Instruction ret;
    ret.op = isa::Opcode::RET;
    b.insts.push_back(ret);
    b.writes.push_back(isa::WriteInst{3});
    return b;
}

TEST(PredecodeUnit, TwoHeaderReadsIntoOneSlotRejected)
{
    expectRejected(twoReadsBlock(true),
                   "operand 0 is fed by two header reads");
    // The same for a write slot.
    isa::Block w = twoReadsBlock(false);
    w.reads[0].targets[1] = {isa::Target::Kind::Write, 0};
    w.reads[1].targets[1] = {isa::Target::Kind::Write, 0};
    w.insts[0].targets[0] = {};
    expectRejected(std::move(w), "write slot 0 is fed by two header reads");

    isa::Program prog;
    prog.addBlock(twoReadsBlock(false));
    expectUndecodableAfterMutation(std::move(prog), [](isa::Block &mb) {
        mb.reads[1].targets[0] = {isa::Target::Kind::Op0, 0};
    });
}

// ---------------------------------------------------------------------
// decodeBlock unit tests.
// ---------------------------------------------------------------------

TEST(PredecodeUnit, TrivialBlockDecodes)
{
    auto d = sim::decodeBlock(trivialBlock());
    ASSERT_EQ(d.n, 2);
    // Sentinel terminates the schedule.
    ASSERT_EQ(d.insts.size(), 3u);
    EXPECT_EQ(d.insts[2].handler, sim::H_DONE);
    EXPECT_EQ(d.origSlot, (std::vector<u16>{1, 0}));
    EXPECT_GT(d.bytes(), 0u);
}

// ---------------------------------------------------------------------
// Page-cache invalidation: the engine keeps a one-entry page cache,
// and a page-crossing store falls back to MemImage::write, which can
// create the very page the cache recorded as absent. Sequence inside a
// single block: load from a not-yet-resident page (caches pageR ==
// nullptr), an unaligned store straddling into that page, then a load
// that must observe the stored bytes, not stale zeros.
// ---------------------------------------------------------------------

TEST(PredecodeUnit, PageCrossingStoreInvalidatesPageCache)
{
    constexpr i32 kPage = 0x5000;         // page 5: never touched before
    constexpr i32 kStraddle = kPage - 4;  // 8-byte store spans pages 4/5

    isa::Block b;
    b.label = "pagex";
    b.insts.resize(8);
    b.insts[0].op = isa::Opcode::GENS;    // probe-load address
    b.insts[0].imm = kPage;
    b.insts[0].targets[0] = {isa::Target::Kind::Op0, 1};
    b.insts[1].op = isa::Opcode::LW;      // misses: page not resident
    b.insts[1].lsid = 0;
    b.insts[2].op = isa::Opcode::GENS;    // straddling store address
    b.insts[2].imm = kStraddle;
    b.insts[2].targets[0] = {isa::Target::Kind::Op0, 4};
    b.insts[3].op = isa::Opcode::GENS;    // all-ones store value
    b.insts[3].imm = -1;
    b.insts[3].targets[0] = {isa::Target::Kind::Op1, 4};
    b.insts[4].op = isa::Opcode::SD;
    b.insts[4].lsid = 1;
    b.insts[5].op = isa::Opcode::GENS;    // re-load address
    b.insts[5].imm = kPage;
    b.insts[5].targets[0] = {isa::Target::Kind::Op0, 6};
    b.insts[6].op = isa::Opcode::LW;      // must see the stored bytes
    b.insts[6].lsid = 2;
    b.insts[6].targets[0] = {isa::Target::Kind::Write, 0};
    b.insts[7].op = isa::Opcode::RET;
    b.writes.push_back(isa::WriteInst{sim::FuncSim::RETVAL_REG});
    b.storeMask = 1u << 1;

    isa::Program prog;
    prog.addBlock(std::move(b));
    ASSERT_EQ("", prog.finalize());

    MemImage rmem;
    EXPECT_EQ(sim::ref::refRun(prog, rmem).retVal, -1) << "reference";
    MemImage mem;
    sim::FuncSim fsim(prog, mem);
    EXPECT_EQ(fsim.run().retVal, -1)
        << "load after straddling store saw stale page cache";
}

// ---------------------------------------------------------------------
// Stores and branches never deliver tokens, so encoded targets on them
// (representable in the block format, though validateBlock rejects
// them) must not count as operand messages.
// ---------------------------------------------------------------------

TEST(PredecodeUnit, StoreAndBranchTargetsCountNoOperandMessages)
{
    isa::Block b;
    b.label = "stmsg";
    b.insts.resize(6);
    b.insts[0].op = isa::Opcode::GENS;    // store address
    b.insts[0].imm = 0x100;
    b.insts[0].targets[0] = {isa::Target::Kind::Op0, 2};
    b.insts[1].op = isa::Opcode::GENS;    // store value
    b.insts[1].imm = 5;
    b.insts[1].targets[0] = {isa::Target::Kind::Op1, 2};
    b.insts[2].op = isa::Opcode::SB;
    b.insts[2].lsid = 0;
    b.insts[3].op = isa::Opcode::GENS;    // legit producer for the MOV
    b.insts[3].imm = 9;
    b.insts[3].targets[0] = {isa::Target::Kind::Op0, 4};
    b.insts[4].op = isa::Opcode::MOV;
    b.insts[5].op = isa::Opcode::RET;
    b.storeMask = 1u << 0;

    isa::Program prog;
    prog.addBlock(std::move(b));
    ASSERT_EQ("", prog.finalize());

    // Inject encoded targets on the store and the branch after
    // validation (their formats carry no target fields, so finalize
    // would reject them): both point at the MOV's unused Op1 slot.
    auto &mb = prog.mutableBlock(0);
    mb.insts[2].targets[0] = {isa::Target::Kind::Op1, 4};
    mb.insts[5].targets[0] = {isa::Target::Kind::Op1, 4};

    // Decoder view: the anomalous targets contribute zero messages.
    auto d = sim::decodeBlock(prog.block(0));
    u64 msgs = 0;
    for (u16 i = 0; i < d.n; ++i) {
        const auto cls = static_cast<isa::OpClass>(d.insts[i].cls);
        if (cls == isa::OpClass::Store || cls == isa::OpClass::Branch) {
            EXPECT_EQ(d.insts[i].opMsgs, 0u);
        }
        msgs += d.insts[i].opMsgs;
    }
    EXPECT_EQ(msgs, 3u);  // the three GENS deliveries only

    // End to end: ISA stats (operandMessages included) stay
    // byte-identical to the oracle's.
    MemImage rmem;
    const auto ref = isaBytes(sim::ref::refRun(prog, rmem).stats);
    MemImage mem;
    sim::FuncSim fsim(prog, mem);
    EXPECT_EQ(ref, isaBytes(fsim.run().stats))
        << "ISA stats diverge from the reference";
}

// ---------------------------------------------------------------------
// Decoded-block cache accounting.
// ---------------------------------------------------------------------

TEST(PredecodeUnit, CacheAccounting)
{
    wir::Module mod;
    workloads::find("autocor").build(mod);
    auto prog =
        compiler::compileToTrips(mod, compiler::Options::compiled());

    MemImage mem;
    wir::Interp::loadGlobals(mod, mem);
    sim::FuncSim fsim(prog, mem);
    fsim.run();
    // Lazy decode: only executed blocks are decoded, each at most once.
    EXPECT_GT(fsim.decodedBlocks(), 0u);
    EXPECT_LE(fsim.decodedBlocks(), prog.numBlocks());
    EXPECT_GT(fsim.decodedBytes(), 0u);
    // Every valid block has a static schedule.
    EXPECT_EQ(fsim.decodedFallbacks(), 0u);
}

} // namespace
