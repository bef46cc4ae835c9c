/**
 * @file
 * Prediction structures: the TRIPS next-block predictor (local/global
 * tournament exit predictor plus multi-component target predictor with
 * BTB, call target buffer and return address stack), an Alpha
 * 21264-style per-branch tournament predictor for the conventional
 * baselines, and the store-load dependence predictor (load-wait table).
 *
 * The prototype configuration approximates the paper's 5KB exit +
 * 5KB target budgets; the "improved" configuration scales the target
 * components to ~9KB (paper Fig. 7 bar I).
 */

#ifndef TRIPSIM_PRED_PREDICTORS_HH
#define TRIPSIM_PRED_PREDICTORS_HH

#include <vector>

#include "support/common.hh"

namespace trips::pred {

// ---------------------------------------------------------------------
// Alpha 21264-like per-branch tournament predictor
// ---------------------------------------------------------------------

class TournamentPredictor
{
  public:
    TournamentPredictor(unsigned local_entries = 1024,
                        unsigned global_entries = 4096);

    bool predict(u64 pc) const;
    void update(u64 pc, bool taken);

  private:
    unsigned localMask, globalMask;
    std::vector<u16> localHist;   ///< 10-bit histories
    std::vector<u8> localCtr;     ///< 3-bit counters, indexed by history
    std::vector<u8> globalCtr;    ///< 2-bit counters
    std::vector<u8> choiceCtr;    ///< 2-bit: >=2 favors global
    u32 ghr = 0;
};

/** Direct-mapped branch target buffer with tags. */
class SimpleBtb
{
  public:
    explicit SimpleBtb(unsigned entries);

    /** Returns target+hit. */
    bool lookup(u64 key, u32 &target) const;
    void update(u64 key, u32 target);
    unsigned size() const { return static_cast<unsigned>(tags.size()); }

  private:
    std::vector<u64> tags;
    std::vector<u32> targets;
    std::vector<bool> valid;
    unsigned mask;
};

/** Fixed-depth return address stack (wraps on overflow). */
class ReturnStack
{
  public:
    explicit ReturnStack(unsigned depth) : stack(depth, 0) {}

    void
    push(u32 v)
    {
        top_idx = (top_idx + 1) % stack.size();
        stack[top_idx] = v;
        if (count < stack.size())
            ++count;
    }

    bool
    pop(u32 &v)
    {
        if (count == 0)
            return false;
        v = stack[top_idx];
        top_idx = (top_idx + stack.size() - 1) % stack.size();
        --count;
        return true;
    }

  private:
    std::vector<u32> stack;
    size_t top_idx = 0;
    size_t count = 0;
};

// ---------------------------------------------------------------------
// TRIPS next-block predictor
// ---------------------------------------------------------------------

enum class BranchKind : u8 { Branch, Call, Ret };

struct NextBlockConfig
{
    // Exit predictor (~5KB in the prototype).
    unsigned localEntries = 512;
    unsigned localHistBits = 9;      ///< 3 exits x 3 bits
    unsigned localPatternEntries = 2048;
    unsigned globalHistBits = 12;
    unsigned globalEntries = 4096;
    unsigned choiceEntries = 4096;
    // Target predictor (~5KB prototype / ~9KB improved).
    unsigned btbEntries = 512;
    unsigned ctbEntries = 64;        ///< paper: call targets too small
    unsigned rasEntries = 8;
    unsigned btypeEntries = 512;

    static NextBlockConfig prototype() { return NextBlockConfig{}; }

    static NextBlockConfig
    improved()
    {
        NextBlockConfig c;
        c.btbEntries = 2048;
        c.ctbEntries = 512;
        c.rasEntries = 64;
        c.btypeEntries = 2048;
        c.globalHistBits = 14;
        c.globalEntries = 16384;
        c.choiceEntries = 8192;
        return c;
    }
};

struct NextBlockStats
{
    u64 predictions = 0;
    u64 mispredictions = 0;
    u64 exitMispredicts = 0;
    u64 targetMispredicts = 0;   ///< right exit, wrong target
    u64 callRetMispredicts = 0;  ///< mispredict on a call or return

    bool operator==(const NextBlockStats &) const = default;

    double
    missRate() const
    {
        return predictions
            ? static_cast<double>(mispredictions) / predictions : 0.0;
    }
};

class NextBlockPredictor
{
  public:
    explicit NextBlockPredictor(const NextBlockConfig &cfg);

    struct Prediction
    {
        u8 exit = 0;
        u32 nextBlock = 0;
        bool valid = false;   ///< target known (BTB/CTB/RAS hit)
    };

    /** Predict the exit and successor of a block about to execute. */
    Prediction predict(u32 block);

    /**
     * Train with the committed outcome, count mispredictions, and
     * maintain the RAS (@p push_val is the call's return block).
     */
    void update(u32 block, u8 exit, u32 next, BranchKind kind,
                u32 push_val);

    const NextBlockStats &stats() const { return st; }

  private:
    NextBlockConfig cfg;
    NextBlockStats st;

    // Exit predictor state.
    std::vector<u16> localHist;
    std::vector<u8> localExit;     ///< 3-bit exit + 2-bit confidence
    std::vector<u8> localConf;
    std::vector<u8> globalExit;
    std::vector<u8> globalConf;
    std::vector<u8> choice;
    u32 ghr = 0;

    SimpleBtb btb;
    SimpleBtb ctb;
    std::vector<u8> btype;         ///< 2-bit kind per (block,exit)
    ReturnStack ras;

    u8 predictExit(u32 block) const;
    void trainExit(u32 block, u8 exit);
    unsigned btypeIndex(u32 block, u8 exit) const;
};

// ---------------------------------------------------------------------
// Store-load dependence predictor (load-wait table)
// ---------------------------------------------------------------------

class DependencePredictor
{
  public:
    explicit DependencePredictor(unsigned entries = 1024);

    /** Should this load wait for earlier stores to resolve? */
    bool shouldWait(u64 load_key) const;

    /** A speculative load was flushed by a conflicting store. */
    void trainViolation(u64 load_key);

    /** Periodic decay keeps the table from saturating. */
    void decayTick();

  private:
    std::vector<u8> table;   ///< 2-bit counters
    unsigned mask;
    u64 accesses = 0;
};

} // namespace trips::pred

#endif // TRIPSIM_PRED_PREDICTORS_HH
