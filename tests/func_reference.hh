/**
 * @file
 * Reference copy of the TRIPS functional simulator as it stood before
 * the pre-decoded engine became the only one: the token-scatter
 * interpreter, which discovers each block instance's dataflow at run
 * time (a ready queue per delivered token, memory ops polled in LSID
 * order, a reachability search to retire starved memory ops). Kept only
 * as the oracle that tests compare sim::FuncSim against, and as the
 * BM_FuncSim_legacy baseline in bench/bench_simspeed.cc; nothing in
 * src/ includes it.
 *
 * Its observer records list fired instructions in dynamic fire order;
 * FuncSim lists the same set in static schedule order (see
 * BlockRecord::fired). Everything else — retVal, memory, IsaStats,
 * committed blocks and every record field — is bit-identical.
 */

#ifndef TRIPSIM_TESTS_FUNC_REFERENCE_HH
#define TRIPSIM_TESTS_FUNC_REFERENCE_HH

#include <vector>

#include "isa/program.hh"
#include "support/memimage.hh"
#include "trips/func_sim.hh"

namespace trips::sim::ref {

/**
 * Run @p prog from its entry block on @p mem for at most @p max_blocks
 * committed blocks, reporting each to @p observers (not owned). Same
 * result contract as a single FuncSim::run() on a fresh simulator.
 */
FuncResult refRun(const isa::Program &prog, MemImage &mem,
                  u64 max_blocks = 50'000'000,
                  const std::vector<BlockObserver *> &observers = {});

} // namespace trips::sim::ref

#endif // TRIPSIM_TESTS_FUNC_REFERENCE_HH
