#include "isa/block.hh"

#include <algorithm>
#include <array>
#include <bitset>
#include <set>
#include <sstream>

namespace trips::isa {

unsigned
Block::numExits() const
{
    unsigned n = 0;
    for (const auto &in : insts) {
        if (isBranch(in.op))
            ++n;
    }
    return n;
}

unsigned
Block::sizeClass() const
{
    size_t n = insts.size();
    if (n <= 32)
        return 32;
    if (n <= 64)
        return 64;
    if (n <= 96)
        return 96;
    return 128;
}

namespace {

/** Operand index of an Op0/Op1/Pred target: 0, 1 or 2. */
unsigned
operandOf(const Target &t)
{
    return t.kind == Target::Kind::Op0 ? 0
         : t.kind == Target::Kind::Op1 ? 1 : 2;
}

/** Tracks which operand slots of which instructions have producers. */
struct OperandCoverage
{
    // [inst][0]=op0, [1]=op1, [2]=pred
    std::vector<std::array<bool, 3>> covered;
    std::vector<bool> write_covered;

    OperandCoverage(size_t insts, size_t writes)
        : covered(insts, {false, false, false}),
          write_covered(writes, false)
    {}

    std::string
    mark(const Target &t, size_t num_insts)
    {
        switch (t.kind) {
          case Target::Kind::None:
            return "";
          case Target::Kind::Op0:
          case Target::Kind::Op1:
          case Target::Kind::Pred: {
            if (t.index >= num_insts) {
                std::ostringstream os;
                os << "target references instruction slot "
                   << unsigned(t.index) << " beyond block size "
                   << num_insts;
                return os.str();
            }
            covered[t.index][operandOf(t)] = true;
            return "";
          }
          case Target::Kind::Write:
            if (t.index >= write_covered.size()) {
                std::ostringstream os;
                os << "target references write slot " << unsigned(t.index)
                   << " beyond write count " << write_covered.size();
                return os.str();
            }
            write_covered[t.index] = true;
            return "";
        }
        return "bad target kind";
    }
};

/**
 * A slot fed by two header reads takes two tokens on every instance.
 * Returns the first such slot's description, or "". Every read target
 * must already be range-checked.
 */
std::string
doubleReadSlot(const Block &block)
{
    // One bit per operand slot (three per instruction), then one per
    // write slot.
    std::bitset<3 * MAX_INSTS + MAX_WRITES> fed;
    for (const auto &r : block.reads) {
        for (const auto &t : r.targets) {
            if (!t.valid())
                continue;
            const unsigned operand = operandOf(t);
            const size_t key = t.kind == Target::Kind::Write
                                   ? 3 * MAX_INSTS + t.index
                                   : 3 * t.index + operand;
            if (!fed[key]) {
                fed.set(key);
                continue;
            }
            std::ostringstream os;
            if (t.kind == Target::Kind::Write)
                os << "write slot " << unsigned(t.index);
            else if (operand == 2)
                os << "instruction " << unsigned(t.index) << " predicate";
            else
                os << "instruction " << unsigned(t.index) << " operand "
                   << operand;
            os << " is fed by two header reads";
            return os.str();
        }
    }
    return "";
}

/**
 * Kahn's algorithm over the dataflow edges, plus the LSID chain when
 * @p lsid_chain is set, writing the schedule to @p sched and returning
 * its length (short of insts.size() on a cycle). Successors are visited
 * in target order, chain edge last, from a LIFO stack seeded in slot
 * order, so the schedule is a fixed function of the block. Works in
 * fixed buffers: validation runs it on every block of every compile.
 */
size_t
topoOrder(const Block &block, bool lsid_chain,
          std::array<u16, MAX_INSTS> &sched)
{
    const size_t n = block.insts.size();
    TRIPS_ASSERT(n <= MAX_INSTS, "block ", block.label, " too large");
    // At most two targets plus one chain successor per instruction.
    std::array<std::array<u16, 3>, MAX_INSTS> succ;
    std::array<u8, MAX_INSTS> nsucc{};
    std::array<u16, MAX_INSTS> indeg{};
    auto edge = [&](size_t from, u16 to) {
        succ[from][nsucc[from]++] = to;
        ++indeg[to];
    };
    for (size_t i = 0; i < n; ++i) {
        for (const auto &t : block.insts[i].targets) {
            if (t.valid() && t.kind != Target::Kind::Write)
                edge(i, t.index);
        }
    }
    if (lsid_chain) {
        std::array<u16, MAX_INSTS> mem_order;
        size_t m = 0;
        for (size_t i = 0; i < n; ++i) {
            if (isMemory(block.insts[i].op))
                mem_order[m++] = static_cast<u16>(i);
        }
        std::sort(mem_order.begin(), mem_order.begin() + m,
                  [&](u16 a, u16 c) {
                      if (block.insts[a].lsid != block.insts[c].lsid)
                          return block.insts[a].lsid < block.insts[c].lsid;
                      return a < c;
                  });
        for (size_t j = 1; j < m; ++j)
            edge(mem_order[j - 1], mem_order[j]);
    }

    std::array<u16, MAX_INSTS> stack;
    size_t top = 0, len = 0;
    for (size_t i = 0; i < n; ++i) {
        if (indeg[i] == 0)
            stack[top++] = static_cast<u16>(i);
    }
    while (top) {
        const u16 i = stack[--top];
        sched[len++] = i;
        for (u8 k = 0; k < nsucc[i]; ++k) {
            if (--indeg[succ[i][k]] == 0)
                stack[top++] = succ[i][k];
        }
    }
    return len;
}

/** Lowest slot missing from a schedule of length @p len. */
size_t
firstUnscheduled(const std::array<u16, MAX_INSTS> &sched, size_t len,
                 size_t n)
{
    std::array<bool, MAX_INSTS> seen{};
    for (size_t k = 0; k < len; ++k)
        seen[sched[k]] = true;
    size_t i = 0;
    while (i < n && seen[i])
        ++i;
    return i;
}

} // namespace

std::vector<u16>
fireSchedule(const Block &block)
{
    std::array<u16, MAX_INSTS> sched;
    const size_t len = topoOrder(block, true, sched);
    return std::vector<u16>(sched.begin(), sched.begin() + len);
}

std::string
validateBlock(const Block &block, i32 num_program_blocks)
{
    std::ostringstream os;
    if (block.insts.empty())
        return "block has no instructions";
    if (block.insts.size() > MAX_INSTS) {
        os << "block has " << block.insts.size() << " instructions (max "
           << MAX_INSTS << ")";
        return os.str();
    }
    if (block.reads.size() > MAX_READS)
        return "too many read instructions";
    if (block.writes.size() > MAX_WRITES)
        return "too many write instructions";

    OperandCoverage cov(block.insts.size(), block.writes.size());

    for (const auto &r : block.reads) {
        if (r.reg >= NUM_REGS)
            return "read of out-of-range register";
        for (const auto &t : r.targets) {
            auto err = cov.mark(t, block.insts.size());
            if (!err.empty())
                return "read: " + err;
        }
    }
    for (const auto &w : block.writes) {
        if (w.reg >= NUM_REGS)
            return "write of out-of-range register";
    }
    if (auto err = doubleReadSlot(block); !err.empty())
        return "read: " + err;

    u32 store_lsids = 0;
    std::set<unsigned> exits;
    unsigned num_branches = 0;
    for (size_t i = 0; i < block.insts.size(); ++i) {
        const auto &in = block.insts[i];
        const auto &info = opInfo(in.op);
        for (unsigned t = 0; t < 2; ++t) {
            if (t >= info.numTargets && in.targets[t].valid())
                return "instruction uses more targets than its format has";
            auto err = cov.mark(in.targets[t], block.insts.size());
            if (!err.empty())
                return err;
        }
        if (info.hasImm && !isMemory(in.op) &&
            in.op != Opcode::GENS && in.op != Opcode::APP) {
            if (in.imm < IMM9_MIN || in.imm > IMM9_MAX)
                return "ALU immediate out of 9-bit range";
        }
        if (isMemory(in.op)) {
            if (in.imm < IMM9_MIN || in.imm > IMM9_MAX)
                return "memory offset out of 9-bit range";
            if (in.lsid >= MAX_LSIDS)
                return "LSID out of range";
            if (isStore(in.op))
                store_lsids |= 1u << in.lsid;
        }
        if (in.op == Opcode::GENS || in.op == Opcode::APP) {
            if (in.imm < IMM16_MIN || in.imm > IMM16_MAX)
                return "constant immediate out of 16-bit range";
        }
        if (isBranch(in.op)) {
            ++num_branches;
            if (in.exit >= MAX_EXITS)
                return "exit number out of range";
            exits.insert(in.exit);
            if (in.op != Opcode::RET) {
                if (in.targetBlock < 0)
                    return "branch without resolved target block";
                if (num_program_blocks >= 0 &&
                    in.targetBlock >= num_program_blocks)
                    return "branch target out of program range";
            }
            if (in.op == Opcode::CALLO && in.returnBlock < 0)
                return "call without return continuation";
        }
    }

    if (num_branches == 0)
        return "block has no exit branch";
    if (exits.size() != num_branches) {
        // Multiple branches may share an exit only if they are
        // predicate-complementary; the prototype required distinct exit
        // numbers, which the compiler guarantees.
        return "duplicate exit numbers";
    }
    if (store_lsids != block.storeMask)
        return "store mask does not match store LSIDs";

    // Every declared operand of every instruction needs >= 1 producer.
    for (size_t i = 0; i < block.insts.size(); ++i) {
        const auto &in = block.insts[i];
        const auto &info = opInfo(in.op);
        if (info.numInputs >= 1 && !cov.covered[i][0]) {
            os << "instruction " << i << " (" << info.name
               << ") operand 0 has no producer";
            return os.str();
        }
        if (info.numInputs >= 2 && !cov.covered[i][1]) {
            os << "instruction " << i << " (" << info.name
               << ") operand 1 has no producer";
            return os.str();
        }
        if (in.predicated() && !cov.covered[i][2]) {
            os << "instruction " << i << " (" << info.name
               << ") predicate has no producer";
            return os.str();
        }
    }
    for (size_t w = 0; w < block.writes.size(); ++w) {
        if (!cov.write_covered[w]) {
            os << "write slot " << w << " (reg "
               << unsigned(block.writes[w].reg) << ") has no producer";
            return os.str();
        }
    }

    // A static fire schedule must exist: the functional simulator walks
    // every block in this order.
    const size_t n = block.insts.size();
    std::array<u16, MAX_INSTS> sched;
    if (size_t len = topoOrder(block, true, sched); len != n) {
        std::array<u16, MAX_INSTS> dataflow;
        if (size_t dlen = topoOrder(block, false, dataflow); dlen != n) {
            os << "dataflow cycle: instruction "
               << firstUnscheduled(dataflow, dlen, n)
               << " is on or behind a cycle of dataflow edges";
        } else {
            os << "LSID order contradicts dataflow: instruction "
               << firstUnscheduled(sched, len, n)
               << " is on or behind a cycle of dataflow edges and the"
                  " (LSID, slot) memory chain";
        }
        return os.str();
    }

    if (!block.placement.empty()) {
        if (block.placement.size() != block.insts.size())
            return "placement size mismatch";
        std::array<unsigned, NUM_ETS> per_et{};
        for (u8 et : block.placement) {
            if (et >= NUM_ETS)
                return "placement to invalid ET";
            if (++per_et[et] > SLOTS_PER_ET)
                return "ET reservation-station overflow";
        }
    }
    return "";
}

} // namespace trips::isa
