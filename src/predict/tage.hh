/**
 * @file
 * TAGE-style run-length predictor (Seznec & Michaud 2006, re-targeted):
 * instead of predicting branch directions from global direction
 * history, the tagged geometric-history tables predict loop *trip
 * counts* directly. The per-PC history is a register of the last eight
 * completed run lengths (8 bits each); table i hashes the most recent
 * h_i of them — h_i geometrically spaced in [minHist, maxHist] — with
 * the PC into a partial-tagged entry holding a predicted run length, a
 * two-bit prediction counter, and a two-bit useful counter. The longest
 * matching table provides the prediction, falling back to the
 * alternative match while the provider's counter is still weak, and
 * allocation on a mispredict claims the first longer-history entry
 * whose useful counter has decayed to zero (docs/PREDICTORS.md).
 *
 * tests/predictor_property_test.cc holds an independent std::map
 * reference model for the tag-match, useful-counter aging, and
 * allocation policy; the hash helpers are public so the model indexes
 * identically without reimplementing the mixer.
 */

#ifndef LOOPSPEC_PREDICT_TAGE_HH
#define LOOPSPEC_PREDICT_TAGE_HH

#include <cmath>
#include <vector>

#include "predict/branch_predictor.hh"
#include "predict/sat_counter.hh"

namespace loopspec
{

class TageRunLengthPredictor : public BranchPredictor
{
  public:
    static constexpr unsigned kTagBits = 8;
    static constexpr uint32_t kTagMask = (1u << kTagBits) - 1;
    //!< run lengths clamp to one history byte
    static constexpr uint32_t kMaxHistLen = 255;

    explicit TageRunLengthPredictor(const PredictorConfig &c)
        : tableMask((1u << c.tableBits) - 1),
          histLens(historyLengths(c)),
          baseValid(size_t(1) << c.tableBits),
          baseLen(size_t(1) << c.tableBits),
          cur(size_t(1) << c.tableBits),
          hist(size_t(1) << c.tableBits),
          tables(histLens.size(),
                 std::vector<TaggedEntry>(size_t(1) << c.tableBits))
    {
    }

    /**
     * The per-table history depths (in completed runs): geometric
     * interpolation from tageMinHist to tageMaxHist, bumped to stay
     * strictly increasing. tage:4/2-8 gives {2, 3, 5, 8}.
     */
    static std::vector<unsigned>
    historyLengths(const PredictorConfig &c)
    {
        unsigned n = c.tageTables;
        std::vector<unsigned> lens(n);
        for (unsigned i = 0; i < n; ++i) {
            double h = c.tageMaxHist;
            if (n > 1) {
                double ratio = static_cast<double>(c.tageMaxHist) /
                               static_cast<double>(c.tageMinHist);
                h = c.tageMinHist *
                    std::pow(ratio, static_cast<double>(i) / (n - 1));
            }
            unsigned r = static_cast<unsigned>(std::llround(h));
            if (r < c.tageMinHist)
                r = c.tageMinHist;
            if (r > c.tageMaxHist)
                r = c.tageMaxHist;
            if (i > 0 && r <= lens[i - 1])
                r = lens[i - 1] + 1 < c.tageMaxHist ? lens[i - 1] + 1
                                                    : c.tageMaxHist;
            lens[i] = r;
        }
        return lens;
    }

    /** Table index of @p pc in tagged table @p t (pre-mask), over the
     *  most recent @p units runs of @p hist_reg. */
    static uint32_t
    tableIndex(uint32_t pc, uint64_t hist_reg, unsigned units,
               unsigned t)
    {
        uint64_t pc_idx = predict_detail::pcIndexBits(pc);
        return static_cast<uint32_t>(
            mix(histSlice(hist_reg, units) ^
                pc_idx * 0x9E3779B97F4A7C15ULL ^ t));
    }

    /** Partial tag of @p pc in tagged table @p t. */
    static uint32_t
    tableTag(uint32_t pc, uint64_t hist_reg, unsigned units, unsigned t)
    {
        uint64_t pc_idx = predict_detail::pcIndexBits(pc);
        return static_cast<uint32_t>(
                   mix(histSlice(hist_reg, units) ^
                       pc_idx * 0xC2B2AE3D27D4EB4FULL ^ (t + 0x40u))) &
               kTagMask;
    }

    bool
    predict(uint32_t pc) const override
    {
        Lookup lk = lookup(pc);
        if (lk.finalLen < 0)
            return true; // no history anywhere: assume it keeps going
        return predict_detail::runRemaining(lk.finalLen,
                                            cur[baseIndex(pc)], 1) > 0;
    }

    unsigned
    predictRun(uint32_t pc, unsigned max_n) const override
    {
        Lookup lk = lookup(pc);
        if (lk.finalLen < 0)
            return max_n;
        return predict_detail::runRemaining(lk.finalLen,
                                            cur[baseIndex(pc)], max_n);
    }

    void
    update(uint32_t pc, bool taken) override
    {
        uint32_t bi = baseIndex(pc);
        if (taken) {
            ++cur[bi];
            return;
        }

        // The not-taken outcome closes a run of length L: train the
        // provider, then (on a mispredict) allocate a longer-history
        // entry, then retire the run into base table and history.
        uint32_t len = cur[bi];
        Lookup lk = lookup(pc);

        if (lk.provider >= 0) {
            TaggedEntry &e = tables[lk.provider][lk.providerSlot];
            // Useful counter: credit the provider only where it beat
            // the alternative (and debit where the alternative beat it).
            if (lk.altLen >= 0 && lk.providerLen != lk.altLen) {
                if (lk.providerLen == static_cast<int64_t>(len))
                    e.u.up();
                else if (lk.altLen == static_cast<int64_t>(len))
                    e.u.down();
            }
            if (e.len == len)
                e.ctr.up();
            else if (e.ctr.value() > 0)
                e.ctr.down();
            else
                e.len = len; // confidence exhausted: relearn in place
        }

        if (lk.finalLen != static_cast<int64_t>(len)) {
            // Mispredicted run length: claim the first longer-history
            // slot whose useful counter has decayed to zero; if none
            // has, age them all so a repeat offender eventually wins.
            uint64_t h = hist[bi];
            bool allocated = false;
            for (unsigned t = lk.provider + 1; t < tables.size(); ++t) {
                uint32_t idx =
                    tableIndex(pc, h, histLens[t], t) & tableMask;
                TaggedEntry &e = tables[t][idx];
                if (!e.valid || e.u.value() == 0) {
                    e.valid = true;
                    e.tag = static_cast<uint16_t>(
                        tableTag(pc, h, histLens[t], t));
                    e.len = len;
                    e.ctr = SatCounter<2>(1); // weak: alt path covers it
                    e.u = SatCounter<2>(0);
                    allocated = true;
                    break;
                }
            }
            if (!allocated) {
                for (unsigned t = lk.provider + 1; t < tables.size();
                     ++t) {
                    uint32_t idx =
                        tableIndex(pc, h, histLens[t], t) & tableMask;
                    tables[t][idx].u.down();
                }
            }
        }

        baseValid[bi] = 1;
        baseLen[bi] = len;
        hist[bi] = (hist[bi] << 8) |
                   (len > kMaxHistLen ? kMaxHistLen : len);
        cur[bi] = 0;
    }

    void
    reset() override
    {
        baseValid.assign(baseValid.size(), 0);
        baseLen.assign(baseLen.size(), 0);
        cur.assign(cur.size(), 0);
        hist.assign(hist.size(), 0);
        for (auto &table : tables)
            table.assign(table.size(), TaggedEntry());
    }

    uint64_t
    stateHash() const override
    {
        // Documented fold order (the reference model reimplements it):
        // per base slot valid/len/cur/hist, then each tagged table's
        // valid/tag/len/ctr/u in slot order.
        uint64_t h = predict_detail::fnv1aInit();
        for (size_t i = 0; i < baseLen.size(); ++i) {
            predict_detail::fnv1aAdd(h, baseValid[i]);
            predict_detail::fnv1aAdd(h, baseLen[i]);
            predict_detail::fnv1aAdd(h, cur[i]);
            predict_detail::fnv1aAdd(h, hist[i]);
        }
        for (const auto &table : tables) {
            for (const TaggedEntry &e : table) {
                predict_detail::fnv1aAdd(h, e.valid);
                predict_detail::fnv1aAdd(h, e.tag);
                predict_detail::fnv1aAdd(h, e.len);
                predict_detail::fnv1aAdd(h, e.ctr.value());
                predict_detail::fnv1aAdd(h, e.u.value());
            }
        }
        return h;
    }

  private:
    struct TaggedEntry
    {
        uint8_t valid = 0;
        uint16_t tag = 0;
        uint32_t len = 0;     //!< predicted run length
        SatCounter<2> ctr;    //!< prediction confidence
        SatCounter<2> u;      //!< useful (allocation victim filter)
    };

    struct Lookup
    {
        int provider = -1; //!< longest-history tag match, -1 = none
        uint32_t providerSlot = 0;
        int64_t providerLen = -1;
        int64_t altLen = -1;   //!< next match, else base, else unknown
        int64_t finalLen = -1; //!< after weak-provider alt substitution
    };

    /** splitmix64 finalizer: the shared index/tag mixer. */
    static uint64_t
    mix(uint64_t x)
    {
        x ^= x >> 30;
        x *= 0xBF58476D1CE4E5B9ULL;
        x ^= x >> 27;
        x *= 0x94D049BB133111EBULL;
        x ^= x >> 31;
        return x;
    }

    /** The most recent @p units run lengths of @p hist_reg. */
    static uint64_t
    histSlice(uint64_t hist_reg, unsigned units)
    {
        return units >= 8 ? hist_reg
                          : hist_reg & ((1ULL << (8 * units)) - 1);
    }

    uint32_t
    baseIndex(uint32_t pc) const
    {
        return predict_detail::pcIndexBits(pc) & tableMask;
    }

    Lookup
    lookup(uint32_t pc) const
    {
        uint32_t bi = baseIndex(pc);
        uint64_t h = hist[bi];
        Lookup lk;
        for (int t = static_cast<int>(tables.size()) - 1; t >= 0; --t) {
            uint32_t idx =
                tableIndex(pc, h, histLens[t], t) & tableMask;
            const TaggedEntry &e = tables[t][idx];
            if (e.valid && e.tag == tableTag(pc, h, histLens[t], t)) {
                if (lk.provider < 0) {
                    lk.provider = t;
                    lk.providerSlot = idx;
                    lk.providerLen = e.len;
                } else {
                    lk.altLen = e.len;
                    break;
                }
            }
        }
        if (lk.altLen < 0 && baseValid[bi])
            lk.altLen = baseLen[bi];
        if (lk.provider < 0)
            lk.finalLen = lk.altLen;
        else if (!tables[lk.provider][lk.providerSlot].ctr.confident() &&
                 lk.altLen >= 0)
            lk.finalLen = lk.altLen; // altmatch while provider is weak
        else
            lk.finalLen = lk.providerLen;
        return lk;
    }

    uint32_t tableMask;
    std::vector<unsigned> histLens;
    std::vector<uint8_t> baseValid;
    std::vector<uint32_t> baseLen;  //!< tagless base: last run length
    std::vector<uint32_t> cur;      //!< takens in the current run
    std::vector<uint64_t> hist;     //!< packed last-8-run-lengths
    std::vector<std::vector<TaggedEntry>> tables;
};

} // namespace loopspec

#endif // LOOPSPEC_PREDICT_TAGE_HH
