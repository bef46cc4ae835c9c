/**
 * @file
 * Reference copy of the operand-network router as it stood before the
 * id-FIFO rewrite: 16-byte packets held by value in per-port rings, a
 * collected move list, and per-packet Distribution samples. Kept only
 * as the oracle for the OPN differential test in test_substrates.cc;
 * nothing in src/ includes it. Do not optimise this copy: its value is
 * that it is the old code, unchanged in behaviour.
 */

#ifndef TRIPSIM_TESTS_OPN_REFERENCE_HH
#define TRIPSIM_TESTS_OPN_REFERENCE_HH

#include <array>
#include <vector>

#include "isa/topology.hh"
#include "net/opn.hh"
#include "support/error.hh"
#include "support/stats.hh"

namespace trips::net::ref {

struct OpnPacket
{
    u8 src = 0;
    u8 dst = 0;
    OpnClass cls = OpnClass::Other;
    u8 hops = 0;
    u32 tag = 0;
    Cycle injected = 0;
};

class OpnNetwork
{
  public:
    static constexpr unsigned NODES = isa::OPN_ROWS * isa::OPN_COLS;
    static constexpr unsigned FIFO_DEPTH = 4;

    OpnNetwork()
    {
        moves.reserve(NODES * 5);
        arrivals.reserve(NODES);
    }

    bool
    inject(OpnPacket pkt, Cycle now)
    {
        pkt.injected = now;
        auto &pm = meta[pkt.src][PORT_LOCAL];
        if (pm.size >= FIFO_DEPTH)
            return false;
        if (pm.size == 0)
            pm.frontDst = pkt.dst;
        ++pm.size;
        fifos[pkt.src][PORT_LOCAL].push_back(pkt);
        markOccupied(pkt.src, PORT_LOCAL);
        ++packets;
        return true;
    }

    void
    tick(Cycle now)
    {
        arrivals.clear();
        moves.clear();
        const unsigned cur = static_cast<unsigned>(ticks % 5);
        ++ticks;
        if (!nodeMask)
            return;
        for (u64 m = nodeMask; m; m &= m - 1) {
            unsigned node = static_cast<unsigned>(__builtin_ctzll(m));
            const auto &nm = meta[node];
            const u8 pm = portMask[node];
            u8 rot = static_cast<u8>(((pm >> cur) | (pm << (5 - cur))) & 31);
            u8 port_used = 0;
            while (rot) {
                unsigned k = static_cast<unsigned>(__builtin_ctz(rot));
                rot = static_cast<u8>(rot & (rot - 1));
                unsigned in = cur + k;
                if (in >= 5)
                    in -= 5;
                unsigned out = routePort(node, nm[in].frontDst);
                if (port_used & (1u << out))
                    continue;
                if (out != PORT_LOCAL) {
                    unsigned nb = neighbor(node, out);
                    if (meta[nb][oppositePort(out)].size >= FIFO_DEPTH)
                        continue;
                }
                port_used = static_cast<u8>(port_used | (1u << out));
                moves.push_back({node, in, out});
            }
        }
        for (const auto &m : moves) {
            auto &q = fifos[m.node][m.in_port];
            OpnPacket pkt = q.front();
            q.pop_front();
            auto &pm = meta[m.node][m.in_port];
            if (--pm.size > 0)
                pm.frontDst = q.front().dst;
            updateEmptied(m.node, m.in_port);
            if (m.out_port == PORT_LOCAL) {
                unsigned h = hopCount(pkt.src, pkt.dst);
                pkt.hops = static_cast<u8>(h);
                hop_dist[static_cast<size_t>(pkt.cls)].sample(h);
                latSum += now - pkt.injected;
                ++latCount;
                arrivals.push_back(pkt);
            } else {
                unsigned nb = neighbor(m.node, m.out_port);
                unsigned port = oppositePort(m.out_port);
                auto &dpm = meta[nb][port];
                if (dpm.size == 0)
                    dpm.frontDst = pkt.dst;
                ++dpm.size;
                fifos[nb][port].push_back(pkt);
                markOccupied(nb, port);
            }
        }
    }

    const std::vector<OpnPacket> &delivered() const { return arrivals; }

    const Distribution &
    hopDist(OpnClass c) const
    {
        return hop_dist[static_cast<size_t>(c)];
    }

    u64 packetsSent() const { return packets; }

  private:
    static constexpr unsigned PORT_N = 0, PORT_E = 1, PORT_S = 2,
                              PORT_W = 3, PORT_LOCAL = 4;

    static unsigned
    neighbor(unsigned node, unsigned port)
    {
        switch (port) {
          case PORT_N: return node - isa::OPN_COLS;
          case PORT_S: return node + isa::OPN_COLS;
          case PORT_E: return node + 1;
          case PORT_W: return node - 1;
        }
        TRIPS_PANIC("bad port");
    }

    static unsigned
    oppositePort(unsigned port)
    {
        switch (port) {
          case PORT_N: return PORT_S;
          case PORT_S: return PORT_N;
          case PORT_E: return PORT_W;
          case PORT_W: return PORT_E;
        }
        TRIPS_PANIC("bad port");
    }

    /** Y-then-X dimension order. */
    static unsigned
    routePort(unsigned n, unsigned d)
    {
        unsigned nr = n / isa::OPN_COLS, nc = n % isa::OPN_COLS;
        unsigned dr = d / isa::OPN_COLS, dc = d % isa::OPN_COLS;
        if (dr < nr)
            return PORT_N;
        if (dr > nr)
            return PORT_S;
        if (dc > nc)
            return PORT_E;
        if (dc < nc)
            return PORT_W;
        return PORT_LOCAL;
    }

    static unsigned
    hopCount(unsigned n, unsigned d)
    {
        unsigned nr = n / isa::OPN_COLS, nc = n % isa::OPN_COLS;
        unsigned dr = d / isa::OPN_COLS, dc = d % isa::OPN_COLS;
        return (nr > dr ? nr - dr : dr - nr) + (nc > dc ? nc - dc : dc - nc);
    }

    struct Fifo
    {
        std::array<OpnPacket, FIFO_DEPTH> buf;
        u8 head = 0;
        u8 count = 0;

        bool empty() const { return count == 0; }
        OpnPacket &front() { return buf[head]; }

        void
        push_back(const OpnPacket &p)
        {
            buf[(head + count) % FIFO_DEPTH] = p;
            ++count;
        }

        void
        pop_front()
        {
            head = (head + 1) % FIFO_DEPTH;
            --count;
        }
    };

    struct Move
    {
        unsigned node, in_port, out_port;
    };

    struct PortMeta
    {
        u8 size = 0;
        u8 frontDst = 0;
    };

    void
    markOccupied(unsigned node, unsigned port)
    {
        portMask[node] |= static_cast<u8>(1u << port);
        nodeMask |= u64{1} << node;
    }

    void
    updateEmptied(unsigned node, unsigned port)
    {
        if (fifos[node][port].empty()) {
            portMask[node] &= static_cast<u8>(~(1u << port));
            if (portMask[node] == 0)
                nodeMask &= ~(u64{1} << node);
        }
    }

    std::array<std::array<Fifo, 5>, NODES> fifos{};
    std::array<std::array<PortMeta, 5>, NODES> meta{};
    std::vector<Move> moves;
    std::vector<OpnPacket> arrivals;
    u64 nodeMask = 0;
    std::array<u8, NODES> portMask{};
    u64 ticks = 0;
    std::array<Distribution, static_cast<size_t>(OpnClass::NUM_CLASSES)>
        hop_dist;
    u64 latSum = 0;
    u64 latCount = 0;
    u64 packets = 0;
};

} // namespace trips::net::ref

#endif // TRIPSIM_TESTS_OPN_REFERENCE_HH
