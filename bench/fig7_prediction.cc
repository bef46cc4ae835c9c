/** Fig. 7: next-block prediction study (configs A, B, H, I). */
#include "bench_util.hh"
#include "pred/replay.hh"
using namespace trips;

using pred::AlphaObserver;
using pred::NbpObserver;

int main() {
    bench::header("Figure 7: prediction breakdown A/B/H/I",
                  "SPEC INT MPKI: A=14.9 B=14.8 H=8.5 I=6.9; "
                  "FP: 0.9/1.3/1.1/0.8; hyperblocks make ~70% fewer "
                  "predictions on INT");
    TextTable t;
    t.header({"suite", "cfg", "preds", "mispreds", "missRate",
              "MPKI(useful)"});
    for (const char *s : {"specint", "specfp", "eembc"}) {
        double a_p = 0, a_m = 0, b_p = 0, b_m = 0, h_p = 0, h_m = 0,
               i_p = 0, i_m = 0, useful_bb = 0, useful_hb = 0;
        for (auto *w : workloads::suite(s)) {
            // Basic-block code: configs A and B.
            AlphaObserver a;
            NbpObserver bb(pred::NextBlockConfig::prototype());
            auto rb = core::runTripsObserved(
                *w, compiler::Options::basicBlock(), {&a, &bb});
            a_p += a.predictions;
            a_m += a.mispredictions;
            b_p += bb.nbp.stats().predictions;
            b_m += bb.nbp.stats().mispredictions;
            useful_bb += rb.isa.useful;
            // Hyperblock code: configs H and I.
            NbpObserver h(pred::NextBlockConfig::prototype());
            NbpObserver imp(pred::NextBlockConfig::improved());
            auto rh = core::runTripsObserved(
                *w, compiler::Options::compiled(), {&h, &imp});
            h_p += h.nbp.stats().predictions;
            h_m += h.nbp.stats().mispredictions;
            i_p += imp.nbp.stats().predictions;
            i_m += imp.nbp.stats().mispredictions;
            useful_hb += rh.isa.useful;
        }
        auto emit = [&](const char *cfg, double p, double m,
                        double useful) {
            t.row({s, cfg, TextTable::fmtInt(static_cast<u64>(p)),
                   TextTable::fmtInt(static_cast<u64>(m)),
                   TextTable::pct(p ? m / p : 0),
                   TextTable::fmt(useful ? 1000.0 * m / useful : 0, 2)});
        };
        emit("A (alpha, bb)", a_p, a_m, useful_bb);
        emit("B (trips, bb)", b_p, b_m, useful_bb);
        emit("H (trips, hyper)", h_p, h_m, useful_hb);
        emit("I (improved)", i_p, i_m, useful_hb);
        std::cout.flush();
        t.rule();
    }
    t.print(std::cout);
    std::cout << "\nShape checks: hyperblocks make fewer predictions "
                 "than basic blocks; I <= H MPKI.\n";
    return 0;
}
