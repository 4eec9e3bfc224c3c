/**
 * @file
 * LET and LIT hit-ratio meters reproducing the §2.3.1 methodology:
 * table contents are considered useful once two complete
 * executions/iterations have been observed since the entry was inserted
 * (enough history for a stride predictor).
 */

#ifndef LOOPSPEC_TABLES_HIT_RATIO_HH
#define LOOPSPEC_TABLES_HIT_RATIO_HH

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "loop/loop_event.hh"
#include "tables/loop_table.hh"

namespace loopspec
{

/**
 * Replacement variants evaluated by the paper (§2.3.2): plain LRU, and
 * the alternative that "inhibits the insertion of a loop in the LIT and
 * the LET when it implies to eliminate a loop that is nested into it".
 * The paper found the improvement negligible; bench_ablation part D
 * reproduces that comparison.
 */
enum class TableReplacement : uint8_t
{
    Lru,
    NestAware,
};

/**
 * Tracks which loops have (ever) executed nested inside which others —
 * the "store for each loop, which other loops are nested into it" state
 * the nest-aware policy needs. Shared helper for both meters.
 */
class LoopNestingTracker
{
  public:
    void
    onExecStart(uint32_t loop)
    {
        for (uint32_t outer : live)
            inner[outer].insert(loop);
        live.push_back(loop);
    }

    void
    onExecEnd(uint32_t loop)
    {
        for (size_t i = live.size(); i-- > 0;) {
            if (live[i] == loop) {
                live.erase(live.begin() + static_cast<long>(i));
                return;
            }
        }
    }

    /** Has @p candidate ever had @p victim nested inside it? */
    bool
    nestedInto(uint32_t victim, uint32_t candidate) const
    {
        auto it = inner.find(candidate);
        return it != inner.end() && it->second.count(victim) != 0;
    }

  private:
    std::vector<uint32_t> live;
    std::unordered_map<uint32_t, std::unordered_set<uint32_t>> inner;
};

/** Accumulated access/hit counts. */
struct HitRatioResult
{
    uint64_t accesses = 0;
    uint64_t hits = 0;

    double
    ratio() const
    {
        return accesses ? static_cast<double>(hits) /
                              static_cast<double>(accesses)
                        : 0.0;
    }
};

/**
 * LET hit-ratio meter. Accessed when a new execution starts: hit iff the
 * loop's entry is present and >= 2 executions of it completed since
 * insertion. Entries are inserted on execution start; LRU is keyed by
 * execution starts. Completions of single-iteration executions advance
 * the completion count (they are detected, complete executions) but are
 * not themselves measured accesses — they were never *started* from the
 * table's point of view (detection happens at their end).
 */
class LetHitMeter : public LoopListener
{
  public:
    explicit LetHitMeter(size_t num_entries,
                         TableReplacement policy = TableReplacement::Lru);

    /** Table lines keyed by loop id: worth warming before dispatch. */
    bool wantsPrefetchHints() const override { return true; }
    void prefetchLoop(uint32_t loop) override
    {
        (void)loop;
        table.prefetch();
    }
    void onExecStart(const ExecStartEvent &ev) override;
    void onExecEnd(const ExecEndEvent &ev) override;
    void onSingleIterExec(const SingleIterExecEvent &ev) override;

    const HitRatioResult &result() const { return res; }
    size_t numEntries() const { return table.numEntries(); }

  private:
    struct Entry
    {
        uint32_t completedExecs = 0;
    };

    LoopTable<Entry> table;
    HitRatioResult res;
    TableReplacement policy;
    LoopNestingTracker nesting;
};

/**
 * LIT hit-ratio meter. Accessed when an iteration starts (never the first
 * iteration of an execution — the detector cannot see it, and our
 * IterStart events begin at index 2 accordingly): hit iff the loop's
 * entry is present and >= 2 iterations of it completed since insertion.
 * Entries are inserted on execution start; LRU is keyed by iteration
 * starts. Completion counts persist across executions while the entry
 * stays resident.
 */
class LitHitMeter : public LoopListener
{
  public:
    explicit LitHitMeter(size_t num_entries,
                         TableReplacement policy = TableReplacement::Lru);

    /** Table lines keyed by loop id: worth warming before dispatch. */
    bool wantsPrefetchHints() const override { return true; }
    void prefetchLoop(uint32_t loop) override
    {
        (void)loop;
        table.prefetch();
    }
    void onExecStart(const ExecStartEvent &ev) override;
    void onIterStart(const IterEvent &ev) override;
    void onIterEnd(const IterEvent &ev) override;
    void onExecEnd(const ExecEndEvent &ev) override;

    const HitRatioResult &result() const { return res; }
    size_t numEntries() const { return table.numEntries(); }

  private:
    struct Entry
    {
        uint64_t completedIters = 0;
    };

    LoopTable<Entry> table;
    HitRatioResult res;
    TableReplacement policy;
    LoopNestingTracker nesting;
};

} // namespace loopspec

#endif // LOOPSPEC_TABLES_HIT_RATIO_HH
