/**
 * @file
 * Digest of every simulated statistic a workload produces, pinned per
 * workload and seed in perfbench/pins.txt. Any change to a simulated
 * result (a cycle, a counter, a compile statistic) changes the digest;
 * host timings never enter it.
 *
 * The field lists below must follow the result structs: a field added
 * to UarchResult, CompileStats, IsaStats or ChipResult belongs here too.
 */

#ifndef PERFBENCH_DIGEST_HH
#define PERFBENCH_DIGEST_HH

#include <string>

#include "core/machines.hh"
#include "sim/serial.hh"
#include "uarch/chip_sim.hh"

namespace perfbench {

void putGolden(trips::sim::ByteWriter &w, const trips::core::GoldenRun &g);
void putRiscCounters(trips::sim::ByteWriter &w,
                     const trips::risc::RiscCounters &c);
void putOoo(trips::sim::ByteWriter &w, const trips::ooo::OooResult &o);
void putCompile(trips::sim::ByteWriter &w,
                const trips::compiler::CompileStats &s);
void putUarch(trips::sim::ByteWriter &w, const trips::uarch::UarchResult &u);
void putChip(trips::sim::ByteWriter &w, const trips::uarch::ChipResult &c);

/** 32 hex digits of the 128-bit FNV hash of @p w's bytes. */
std::string digestHex(const trips::sim::ByteWriter &w);

} // namespace perfbench

#endif // PERFBENCH_DIGEST_HH
