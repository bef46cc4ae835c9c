/**
 * @file
 * The TRIPS Operand Network (OPN): a 5x5 wormhole-routed mesh carrying
 * one 64-bit operand per link per cycle (Gratz et al. [6]). Packets
 * are single-flit; routing is Y-then-X dimension order with 4-deep
 * input FIFOs and round-robin output arbitration. Traffic classes
 * (ET-ET, ET-DT, ET-RT, ET-GT, DT-RT, DT-ET, RT-ET) are accounted for
 * the paper's Fig. 8 hop profile.
 */

#ifndef TRIPSIM_NET_OPN_HH
#define TRIPSIM_NET_OPN_HH

#include <array>
#include <vector>

#include "isa/topology.hh"
#include "support/stats.hh"

namespace trips::net {

/**
 * Traffic classes for the Fig. 8 breakdown. Requests and replies are
 * distinct: EtDt is ET->DT memory requests while DtEt is DT->ET load
 * replies, and EtRt is ET->RT register writes while RtEt is RT->ET
 * read operands (lumping them skews the per-class hop profile).
 */
enum class OpnClass : u8 { EtEt, EtDt, EtRt, EtGt, DtRt, DtEt, RtEt,
                           Other, NUM_CLASSES };

/** Single-flit packet, packed to 8 bytes. */
struct OpnPacket
{
    u8 src = 0;               ///< flat mesh node id (row*5+col)
    u8 dst = 0;
    OpnClass cls = OpnClass::Other;
    u8 hops = 0;              ///< set on delivery (Manhattan distance)
    u32 tag = 0;              ///< owner-defined payload handle
};

/**
 * The router keeps packets in a fixed pool and moves only 16-bit pool
 * ids between its input FIFOs. Every packet inside the network sits in
 * exactly one input FIFO (delivery copies it out and frees its slot),
 * so the pool never needs more than NODES x 5 x FIFO_DEPTH slots.
 */
class OpnNetwork
{
  public:
    static constexpr unsigned NODES = isa::OPN_ROWS * isa::OPN_COLS;
    static constexpr unsigned PORTS = 5;   ///< N, E, S, W, local
    static constexpr unsigned FIFO_DEPTH = 4;
    static constexpr unsigned POOL_SLOTS = NODES * PORTS * FIFO_DEPTH;
    /** Longest Y-then-X route on the mesh (corner to corner). */
    static constexpr unsigned MAX_HOPS = isa::OPN_ROWS + isa::OPN_COLS - 2;

    OpnNetwork();

    /**
     * Inject a packet at its source node. Returns false when the
     * node's local input FIFO is full (caller retries next cycle).
     * A zero-hop (src == dst) packet is ejected by the next tick.
     */
    bool inject(OpnPacket pkt);

    /** Advance one cycle: route flits, collect deliveries. */
    void tick();

    /** Packets that arrived this cycle (valid until next tick). */
    const std::vector<OpnPacket> &delivered() const { return arrivals; }

    /** Per-class hop distribution (bucket = hop count), folded from
     *  the raw per-hop counters on each call. Sampled at injection,
     *  like packetsSent(), so the two balance with flits in flight. */
    Distribution hopDist(OpnClass c) const;

    u64 packetsSent() const { return packets; }

  private:
    /**
     * Input FIFO of pool ids as a shift register: entry k sits in bits
     * 16k..16k+15 of @c ids, so a pop is a shift and a push an OR at
     * the tail. The packets' destinations ride along in @c dsts (8 bits
     * each), so arbitration reads the head's destination without
     * touching the pool.
     */
    struct Fifo
    {
        u64 ids = 0;
        u32 dsts = 0;
        u32 count = 0;
    };

    /** A granted forward: the input FIFO the flit leaves and the
     *  downstream FIFO it enters. */
    struct Grant
    {
        u8 from = 0;
        u8 to = 0;
    };

    static_assert(NODES <= 64, "node occupancy mask is one u64");
    static_assert(POOL_SLOTS <= 0x10000, "pool ids are 16-bit");
    static_assert(FIFO_DEPTH * 16 <= 64, "a FIFO's ids fit one u64");

    /** FIFOs indexed (node << 3) | port, a shift rather than a
     *  multiply, plus a sink slot past the last node that is always
     *  empty: local ejects "enter" it, so the flow-control test needs
     *  no branch on the output port (see opn.cc for its index). */
    static constexpr unsigned FIFO_SLOTS = (NODES + 1) << 3;
    static_assert(FIFO_SLOTS <= 0x100, "FIFO indices are 8-bit");
    std::array<Fifo, FIFO_SLOTS> fifos{};

    std::array<OpnPacket, POOL_SLOTS> pool{};
    std::array<u16, POOL_SLOTS> freeIds{};
    unsigned freeCount = 0;

    /**
     * Occupancy, so tick() touches only routers that hold flits: one
     * bit per node, plus a per-node bit per input port. Every router's
     * round-robin pointer advances once per tick, so one counter
     * (cycling 0..4) stands for all of them.
     */
    u64 nodeMask = 0;
    std::array<u8, NODES> portMask{};
    unsigned rrPointer = 0;

    // Grant lists, refilled every tick: at most one eject per router
    // and one forward per router output. Arbitration stores into the
    // next free slot before it knows whether the grant holds, so each
    // list needs one slot past its most grants: ejects can reach NODES
    // (every router ejects in one tick) and still take a store, hence
    // the extra slot; forwards reach at most the mesh's 80 links, well
    // under NODES * 4.
    std::array<u8, NODES + 1> ejects{};
    std::array<Grant, NODES * (PORTS - 1)> forwards{};
    static_assert(2 * (isa::OPN_ROWS * (isa::OPN_COLS - 1) +
                       isa::OPN_COLS * (isa::OPN_ROWS - 1)) <
                      NODES * (PORTS - 1),
                  "forwards has a slot past one grant per directed link");
    std::vector<OpnPacket> arrivals;

    /** Raw injection counts per class and hop count. */
    std::array<std::array<u64, MAX_HOPS + 1>,
               static_cast<size_t>(OpnClass::NUM_CLASSES)> hopCounts{};
    u64 packets = 0;

    void push(unsigned fifo, u16 id, unsigned dst);
    u16 pop(unsigned fifo);
};

} // namespace trips::net

#endif // TRIPSIM_NET_OPN_HH
