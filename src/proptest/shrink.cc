#include "proptest/shrink.h"

#include <cstddef>
#include <utility>
#include <vector>

namespace uniloc::proptest {

namespace {

/// Greedy shrink state: `best` always fails; every probe spends budget.
class Shrinker {
 public:
  Shrinker(CaseSpec best, const FailFn& fails, std::size_t budget,
           ShrinkStats* stats)
      : best_(std::move(best)), fails_(fails), budget_(budget),
        stats_(stats) {}

  const CaseSpec& best() const { return best_; }

  bool exhausted() const { return budget_ == 0; }

  /// True when `candidate` still fails: it becomes the new best.
  bool accept(const CaseSpec& candidate) {
    if (budget_ == 0 || candidate == best_) return false;
    --budget_;
    if (stats_ != nullptr) ++stats_->attempts;
    if (!fails_(candidate)) return false;
    best_ = candidate;
    if (stats_ != nullptr) ++stats_->accepted;
    return true;
  }

  /// Minimize an integral field toward `floor`: floor first (one probe
  /// often wins outright), then binary search between floor and the
  /// current value. The oracle need not be monotone in the field -- any
  /// failing probe is simply kept -- monotonicity only makes the search
  /// optimal.
  template <typename T, typename Set>
  void minimize(T current, T floor, const Set& set) {
    if (current <= floor) return;
    CaseSpec c = best_;
    set(c, floor);
    if (accept(c)) return;
    T lo = floor + 1;
    T hi = current;
    while (lo < hi && !exhausted()) {
      const T mid = lo + (hi - lo) / 2;
      CaseSpec m = best_;
      set(m, mid);
      if (accept(m)) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
  }

 private:
  CaseSpec best_;
  const FailFn& fails_;
  std::size_t budget_;
  ShrinkStats* stats_;
};

}  // namespace

CaseSpec shrink_case(const CaseSpec& failing, const FailFn& still_fails,
                     std::size_t budget, ShrinkStats* stats) {
  Shrinker s(failing, still_fails, budget, stats);

  // One pass is usually enough (each field is independent), but a
  // smaller world can unlock fewer walkers and vice versa -- loop to a
  // fixpoint, bounded by the budget.
  for (int round = 0; round < 3 && !s.exhausted(); ++round) {
    const CaseSpec before = s.best();

    // --- pass 1: the big scalars, most impactful first ----------------
    s.minimize<std::uint32_t>(s.best().epochs, 1,
                              [](CaseSpec& c, std::uint32_t v) {
                                c.epochs = v;
                              });
    s.minimize<std::uint32_t>(s.best().walkers, 1,
                              [](CaseSpec& c, std::uint32_t v) {
                                c.walkers = v;
                              });
    s.minimize<std::uint32_t>(s.best().burst, 1,
                              [](CaseSpec& c, std::uint32_t v) {
                                c.burst = v;
                              });
    s.minimize<int>(s.best().place.walkways, 1, [](CaseSpec& c, int v) {
      c.place.walkways = v;
    });
    s.minimize<int>(s.best().place.legs_per_walkway, 1,
                    [](CaseSpec& c, int v) { c.place.legs_per_walkway = v; });
    s.minimize<int>(static_cast<int>(s.best().place.leg_length_m), 5,
                    [](CaseSpec& c, int v) {
                      c.place.leg_length_m = static_cast<double>(v);
                    });
    s.minimize<int>(s.best().place.cell_towers, 0, [](CaseSpec& c, int v) {
      c.place.cell_towers = v;
    });
    s.minimize<std::uint32_t>(s.best().workers, 0,
                              [](CaseSpec& c, std::uint32_t v) {
                                c.workers = v;
                              });
    {
      CaseSpec c = s.best();
      c.batch = false;
      s.accept(c);
    }

    // --- pass 2: the schedules ----------------------------------------
    {
      // Crash rounds, then blackout windows -- each "whole list empty?"
      // probe first, then element-wise removal.
      CaseSpec c = s.best();
      c.faults.crash_rounds.clear();
      c.crash_restore = false;
      s.accept(c);
      bool changed = true;
      while (changed && !s.exhausted()) {
        changed = false;
        for (std::size_t i = 0; i < s.best().faults.crash_rounds.size();
             ++i) {
          CaseSpec m = s.best();
          m.faults.crash_rounds.erase(m.faults.crash_rounds.begin() +
                                      static_cast<std::ptrdiff_t>(i));
          if (s.accept(m)) {
            changed = true;
            break;
          }
        }
      }
    }
    {
      CaseSpec c = s.best();
      c.faults.blackouts.clear();
      s.accept(c);
      bool changed = true;
      while (changed && !s.exhausted()) {
        changed = false;
        for (std::size_t i = 0; i < s.best().faults.blackouts.size(); ++i) {
          CaseSpec m = s.best();
          m.faults.blackouts.erase(m.faults.blackouts.begin() +
                                   static_cast<std::ptrdiff_t>(i));
          if (s.accept(m)) {
            changed = true;
            break;
          }
        }
      }
    }

    // --- pass 3: zero the knobs ---------------------------------------
    {
      CaseSpec c = s.best();
      c.faults.rates = fault::FaultRates{};
      s.accept(c);
    }
    for (int field = 0; field < 6; ++field) {
      CaseSpec c = s.best();
      switch (field) {
        case 0: c.faults.rates.drop = 0.0; break;
        case 1: c.faults.rates.duplicate = 0.0; break;
        case 2: c.faults.rates.reorder = 0.0; break;
        case 3: c.faults.rates.corrupt = 0.0; break;
        case 4: c.faults.rates.base_delay_us = 0; break;
        case 5: c.faults.rates.jitter_delay_us = 0; break;
      }
      s.accept(c);
    }
    {
      CaseSpec c = s.best();
      c.delta_chain = false;
      s.accept(c);
    }
    {
      CaseSpec c = s.best();
      c.gait = sim::GaitProfile{};
      s.accept(c);
    }

    if (s.best() == before) break;  // fixpoint
  }
  return s.best();
}

}  // namespace uniloc::proptest
