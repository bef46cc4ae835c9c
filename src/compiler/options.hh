/**
 * @file
 * TRIPS compiler configuration. The three presets model the paper's
 * code-generation regimes: "compiled" (the TRIPS research compiler),
 * "hand" (hand-optimized code — per paper §7 the effective hand
 * optimizations are largely mechanical: more aggressive unrolling,
 * fuller blocks, merged regions), and "basic block" code used by the
 * Fig. 7 predictor study (no predication, no hyperblocks).
 */

#ifndef TRIPSIM_COMPILER_OPTIONS_HH
#define TRIPSIM_COMPILER_OPTIONS_HH

#include <iosfwd>

#include "support/common.hh"
#include "support/fields.hh"

namespace trips::compiler {

struct Options
{
    /** Form hyperblocks by if-conversion (dataflow predication). */
    bool enablePredication = true;

    /** Leave conditional-arm arithmetic unpredicated (speculation);
     *  generates the paper's Executed-Not-Used category. */
    bool speculateArith = true;

    /** Maximum loop-unroll factor (1 = off). */
    unsigned maxUnroll = 4;

    /** Unroll only while the unrolled body is below this WIR-op count. */
    unsigned unrollBudgetOps = 48;

    /** Target budget of WIR ops per hyperblock region (pre-expansion). */
    unsigned regionBudgetOps = 52;

    /** Maximum predication chain depth inside one hyperblock. */
    unsigned maxPredDepth = 3;

    /** Memory-op budget per region (hardware LSID limit is 32). */
    unsigned regionBudgetMem = 24;

    /** Fold small constants into 9-bit immediate instruction forms. */
    bool foldImmediates = true;

    /** Debug: run the TIL structural verifier between backend passes
     *  (fatal on the first violation). See compiler/pipeline.hh. */
    bool verifyTil = false;

    /** Debug: stream receiving a textual TIL dump after each
     *  TIL-shaping pass (nullptr = off; not owned). */
    std::ostream *tilDump = nullptr;

    bool operator==(const Options &) const = default;

    /** Named presets. */
    static Options compiled();
    static Options hand();
    static Options basicBlock();
};

/**
 * Options' field list (support/fields.hh), in campaign-key byte order.
 * The debug hooks verifyTil and tilDump are left out: they never
 * change the compiled program, so they must not split the key space.
 */
template <FieldsOf<Options> S, class V>
void
forEachField(S &s, V &&v)
{
    v("enablePredication", s.enablePredication);
    v("speculateArith", s.speculateArith);
    v("maxUnroll", s.maxUnroll);
    v("unrollBudgetOps", s.unrollBudgetOps);
    v("regionBudgetOps", s.regionBudgetOps);
    v("maxPredDepth", s.maxPredDepth);
    v("regionBudgetMem", s.regionBudgetMem);
    v("foldImmediates", s.foldImmediates);
}

inline Options
Options::compiled()
{
    return Options{};
}

inline Options
Options::hand()
{
    Options o;
    o.maxUnroll = 8;
    o.unrollBudgetOps = 68;
    o.regionBudgetOps = 72;
    o.regionBudgetMem = 28;
    o.maxPredDepth = 4;
    return o;
}

inline Options
Options::basicBlock()
{
    Options o;
    o.enablePredication = false;
    o.speculateArith = false;
    o.maxUnroll = 1;
    return o;
}

} // namespace trips::compiler

#endif // TRIPSIM_COMPILER_OPTIONS_HH
