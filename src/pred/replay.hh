/**
 * @file
 * Committed-block replay of the Fig. 7 predictors: BlockObservers that
 * feed the functional simulator's block stream into the TRIPS
 * next-block predictor (configs B, H, I) and into an Alpha
 * 21264-style per-branch predictor (config A). They read only the
 * block-level record fields (blockIdx, exitTaken, nextBlock, isCall,
 * isRet, halts, branchInst).
 */

#ifndef TRIPSIM_PRED_REPLAY_HH
#define TRIPSIM_PRED_REPLAY_HH

#include "pred/predictors.hh"
#include "trips/func_sim.hh"

namespace trips::pred {

/** Replays committed blocks into a TRIPS next-block predictor. */
class NbpObserver : public sim::BlockObserver
{
  public:
    explicit NbpObserver(const NextBlockConfig &cfg) : nbp(cfg) {}

    void onBlockCommit(const isa::Block &b,
                       const sim::BlockRecord &rec) override;

    NextBlockPredictor nbp;
};

/** Alpha-21264-style per-branch predictor replay (config A). */
class AlphaObserver : public sim::BlockObserver
{
  public:
    void onBlockCommit(const isa::Block &b,
                       const sim::BlockRecord &rec) override;

    TournamentPredictor tp;
    SimpleBtb btb{1024};
    ReturnStack ras{16};
    u64 predictions = 0, mispredictions = 0;
};

} // namespace trips::pred

#endif // TRIPSIM_PRED_REPLAY_HH
