#include "net/opn.hh"

namespace trips::net {

namespace {

constexpr unsigned PORTS = OpnNetwork::PORTS;
constexpr unsigned PORT_BITS = 3;   ///< FIFO index = node << 3 | port
/** Output/input ports: N, E, S, W, local. A link's far end receives
 *  on the opposite port, port ^ 2. */
constexpr unsigned PORT_N = 0, PORT_E = 1, PORT_S = 2, PORT_W = 3;
constexpr unsigned PORT_LOCAL = 4;

/**
 * The mesh is 25 nodes, so every routing decision is a pure function
 * of (node, dst) over a tiny domain: precompute, per (node, dst), the
 * hop count and the FIFO the head flit enters next under Y-then-X
 * routing. That is the neighbour's input FIFO on the opposite port,
 * (neighbour << 3) | (out ^ 2), or the sink for a local eject. The
 * sink's low bits are chosen so that (next & 7) ^ 2 recovers the
 * output port in every case, PORT_LOCAL included.
 */
constexpr unsigned SINK =
    OpnNetwork::NODES << PORT_BITS | (PORT_LOCAL ^ 2);

struct RouteTables
{
    u8 next[OpnNetwork::NODES][OpnNetwork::NODES] = {};
    u8 hops[OpnNetwork::NODES][OpnNetwork::NODES] = {};
};

constexpr RouteTables
makeRouteTables()
{
    RouteTables t;
    for (unsigned n = 0; n < OpnNetwork::NODES; ++n) {
        unsigned nr = n / isa::OPN_COLS, nc = n % isa::OPN_COLS;
        for (unsigned d = 0; d < OpnNetwork::NODES; ++d) {
            unsigned dr = d / isa::OPN_COLS, dc = d % isa::OPN_COLS;
            unsigned next = SINK;
            if (dr < nr)
                next = (n - isa::OPN_COLS) << PORT_BITS | (PORT_N ^ 2);
            else if (dr > nr)
                next = (n + isa::OPN_COLS) << PORT_BITS | (PORT_S ^ 2);
            else if (dc > nc)
                next = (n + 1) << PORT_BITS | (PORT_E ^ 2);
            else if (dc < nc)
                next = (n - 1) << PORT_BITS | (PORT_W ^ 2);
            t.next[n][d] = static_cast<u8>(next);
            t.hops[n][d] = static_cast<u8>(
                (nr > dr ? nr - dr : dr - nr) +
                (nc > dc ? nc - dc : dc - nc));
        }
    }
    return t;
}

constexpr RouteTables ROUTE = makeRouteTables();

} // namespace

OpnNetwork::OpnNetwork()
{
    static_assert(SINK < FIFO_SLOTS, "the sink FIFO is addressable");
    arrivals.reserve(NODES);
    // Hand out ids in ascending order (the free list is a stack).
    for (unsigned i = 0; i < POOL_SLOTS; ++i)
        freeIds[i] = static_cast<u16>(POOL_SLOTS - 1 - i);
    freeCount = POOL_SLOTS;
}

void
OpnNetwork::push(unsigned fifo, u16 id, unsigned dst)
{
    Fifo &f = fifos[fifo];
    f.ids |= u64{id} << (16 * f.count);
    f.dsts |= dst << (8 * f.count);
    ++f.count;
    const unsigned node = fifo >> PORT_BITS;
    portMask[node] |= static_cast<u8>(1u << (fifo & 7));
    nodeMask |= u64{1} << node;
}

u16
OpnNetwork::pop(unsigned fifo)
{
    Fifo &f = fifos[fifo];
    const u16 id = static_cast<u16>(f.ids);
    f.ids >>= 16;
    f.dsts >>= 8;
    --f.count;
    const unsigned node = fifo >> PORT_BITS;
    const unsigned emptied = unsigned{f.count == 0} << (fifo & 7);
    portMask[node] &= static_cast<u8>(~emptied);
    nodeMask &= ~(u64{portMask[node] == 0} << node);
    return id;
}

bool
OpnNetwork::inject(OpnPacket pkt)
{
    const unsigned fifo = pkt.src << PORT_BITS | PORT_LOCAL;
    if (fifos[fifo].count >= FIFO_DEPTH)
        return false;
    const u16 id = freeIds[--freeCount];
    pool[id] = pkt;
    push(fifo, id, pkt.dst);
    ++packets;
    return true;
}

void
OpnNetwork::tick()
{
    arrivals.clear();
    const unsigned cur = rrPointer;
    rrPointer = cur == PORTS - 1 ? 0 : cur + 1;
    if (!nodeMask)
        return;     // nothing in flight anywhere

    // Arbitrate every occupied router against the start-of-tick state
    // (ascending node order), granting at most one flit per output
    // port. Grants are applied only after the scan, so a flit moves at
    // most one hop per tick and flow control sees start-of-tick depths.
    unsigned n_eject = 0, n_fwd = 0;
    auto consider = [&](unsigned node, unsigned in, u8 &used) {
        const unsigned from = node << PORT_BITS | in;
        const unsigned to = ROUTE.next[node][fifos[from].dsts & 0xff];
        const unsigned out = (to & 7) ^ 2;
        const bool go = (((used >> out) & 1) == 0) &
                        (fifos[to].count < FIFO_DEPTH);
        used = static_cast<u8>(used | (unsigned{go} << out));
        const bool local = to == SINK;
        // Store into both lists and count only the grant; the lists
        // keep a spare slot for these stores (see opn.hh).
        ejects[n_eject] = static_cast<u8>(from);
        forwards[n_fwd] = {static_cast<u8>(from), static_cast<u8>(to)};
        n_eject += go & local;
        n_fwd += go & !local;
    };
    for (u64 m = nodeMask; m; m &= m - 1) {
        const unsigned node = static_cast<unsigned>(__builtin_ctzll(m));
        const unsigned pm = portMask[node];
        u8 used = 0;
        if ((pm & (pm - 1)) == 0) {
            // One occupied input: no round-robin order to respect.
            consider(node, static_cast<unsigned>(__builtin_ctz(pm)), used);
            continue;
        }
        // Occupied inputs in round-robin order from the pointer, via
        // the rotated port mask (visiting only non-empty ports is
        // equivalent to skipping empty ones).
        unsigned rot = ((pm >> cur) | (pm << (PORTS - cur))) & 31;
        while (rot) {
            unsigned in = cur + static_cast<unsigned>(__builtin_ctz(rot));
            rot &= rot - 1;
            if (in >= PORTS)
                in -= PORTS;
            consider(node, in, used);
        }
    }

    // Ejects in node order: that is the delivery order.
    for (unsigned i = 0; i < n_eject; ++i) {
        const u16 id = pop(ejects[i]);
        freeIds[freeCount++] = id;
        OpnPacket pkt = pool[id];
        pkt.hops = ROUTE.hops[pkt.src][pkt.dst];
        ++hopCounts[static_cast<size_t>(pkt.cls)][pkt.hops];
        arrivals.push_back(pkt);
    }
    // Each downstream FIFO has one upstream link, so at most one flit
    // enters it per tick; a shift-register FIFO popped and pushed in
    // the same tick ends the same in either order, so the application
    // order is immaterial.
    for (unsigned i = 0; i < n_fwd; ++i) {
        const u16 id = pop(forwards[i].from);
        push(forwards[i].to, id, pool[id].dst);
    }
}

Distribution
OpnNetwork::hopDist(OpnClass c) const
{
    Distribution d;
    const auto &counts = hopCounts[static_cast<size_t>(c)];
    for (unsigned h = 0; h <= MAX_HOPS; ++h) {
        if (counts[h])
            d.sample(h, counts[h]);
    }
    return d;
}

} // namespace trips::net
