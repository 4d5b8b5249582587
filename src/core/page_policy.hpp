// DRAM page-management policies (paper §V, evaluated in Figs. 12-13).
//
// When the memory controller finishes the column accesses for a μbank and
// finds no pending request for it in the queue, it must speculatively either
// keep the row open (betting the next access is a row hit) or precharge
// (betting on a row miss). The paper evaluates:
//   - static open / static close (Rixner-style baselines),
//   - minimalist-open (close after a few row hits),
//   - local  prediction: a 2-bit bimodal counter per (μ)bank,
//   - global prediction: a 2-bit bimodal counter per thread,
//   - tournament: a per-(μ)bank chooser over {open, close, local, global},
//   - perfect: an oracle that always makes the retrospectively-best choice.
//
// The oracle is expressed as PageDecision::Lazy: the controller leaves the
// row open but, on the next access, charges the timing that the best
// decision would have produced (a hit if the rows match, otherwise a
// precharge assumed to have been issued at the earliest legal point).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "ckpt/serialize.hpp"
#include "common/flat_map.hpp"
#include "common/types.hpp"

namespace mb::core {

enum class PageDecision {
  KeepOpen,  // leave the row in the sense amplifiers
  Close,     // precharge as soon as legal
  Lazy,      // oracle: resolve retroactively at the next access
};

enum class PolicyKind {
  Open,
  Close,
  MinimalistOpen,
  LocalBimodal,
  GlobalBimodal,
  Tournament,
  Perfect,
};

std::string policyKindName(PolicyKind kind);

/// Saturating 2-bit counter with the paper's state encoding:
/// 0 strongly-open, 1 open, 2 close, 3 strongly-close.
class TwoBitCounter {
 public:
  bool predictsOpen() const { return state_ < 2; }
  /// nextWasSameRow == true means "open" was the correct call.
  void train(bool nextWasSameRow) {
    if (nextWasSameRow) {
      if (state_ > 0) --state_;
    } else {
      if (state_ < 3) ++state_;
    }
  }
  int state() const { return state_; }
  /// Checkpoint restore; out-of-range values clamp to the nearest state.
  void setState(int s) { state_ = s < 0 ? 0 : (s > 3 ? 3 : s); }

 private:
  int state_ = 1;  // weakly open: matches an open-page default before history
};

/// Interface consulted by the memory controller.
class PagePolicy {
 public:
  virtual ~PagePolicy() = default;

  /// Speculative decision for a μbank that just went idle.
  virtual PageDecision decide(std::int64_t flatUbank, ThreadId thread) = 0;

  /// Called when the next access to the μbank resolves the previous
  /// speculation: sameRow == true means keeping the row open was correct.
  virtual void observeOutcome(std::int64_t flatUbank, ThreadId thread, bool sameRow) {
    (void)flatUbank;
    (void)thread;
    (void)sameRow;
  }

  /// Called on every serviced access (used by minimalist-open's hit budget).
  virtual void onAccess(std::int64_t flatUbank, bool rowHit) {
    (void)flatUbank;
    (void)rowHit;
  }

  virtual PolicyKind kind() const = 0;
  std::string name() const { return policyKindName(kind()); }

  /// Serializable protocol. Open/Close/Perfect are stateless; the
  /// predictive policies keep their counters in key-sorted FlatMaps, so the
  /// serialized bytes are key-ordered by construction (no hash-order walk
  /// reaches a snapshot or report; ShardDifferentialGrid checks restores).
  virtual void save(ckpt::Writer&) const {}
  virtual void load(ckpt::Reader&) {}
};

/// Factory for every policy the paper evaluates.
std::unique_ptr<PagePolicy> makePagePolicy(PolicyKind kind);

/// Static open-page: always bet on a future row hit.
class OpenPagePolicy final : public PagePolicy {
 public:
  PageDecision decide(std::int64_t, ThreadId) override { return PageDecision::KeepOpen; }
  PolicyKind kind() const override { return PolicyKind::Open; }
};

/// Static close-page: always precharge when idle.
class ClosePagePolicy final : public PagePolicy {
 public:
  PageDecision decide(std::int64_t, ThreadId) override { return PageDecision::Close; }
  PolicyKind kind() const override { return PolicyKind::Close; }
};

/// Minimalist-open (Kaseridis et al.): allow a small budget of row hits per
/// activation, then close.
class MinimalistOpenPolicy final : public PagePolicy {
 public:
  explicit MinimalistOpenPolicy(int hitBudget = 4) : hitBudget_(hitBudget) {}

  PageDecision decide(std::int64_t flatUbank, ThreadId) override {
    auto it = hitsSinceAct_.find(flatUbank);
    const int hits = it == hitsSinceAct_.end() ? 0 : it->second;
    return hits < hitBudget_ ? PageDecision::KeepOpen : PageDecision::Close;
  }

  void onAccess(std::int64_t flatUbank, bool rowHit) override {
    auto& hits = hitsSinceAct_[flatUbank];
    hits = rowHit ? hits + 1 : 0;
  }

  PolicyKind kind() const override { return PolicyKind::MinimalistOpen; }

  void save(ckpt::Writer& w) const override {
    ckpt::saveMapSorted(w, hitsSinceAct_, [&](int hits) { w.i32(hits); });
  }
  void load(ckpt::Reader& r) override {
    hitsSinceAct_.clear();
    const std::uint64_t n = r.count(12);
    for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
      const std::int64_t key = r.i64();
      hitsSinceAct_.emplace(key, r.i32());
    }
  }

 private:
  int hitBudget_;
  FlatMap<std::int64_t, int> hitsSinceAct_;
};

/// Local prediction: one bimodal counter per μbank (§V: "per bank history").
class LocalBimodalPolicy final : public PagePolicy {
 public:
  PageDecision decide(std::int64_t flatUbank, ThreadId) override {
    return counters_[flatUbank].predictsOpen() ? PageDecision::KeepOpen
                                               : PageDecision::Close;
  }
  void observeOutcome(std::int64_t flatUbank, ThreadId, bool sameRow) override {
    counters_[flatUbank].train(sameRow);
  }
  PolicyKind kind() const override { return PolicyKind::LocalBimodal; }

  void save(ckpt::Writer& w) const override {
    ckpt::saveMapSorted(w, counters_,
                        [&](const TwoBitCounter& c) { w.i32(c.state()); });
  }
  void load(ckpt::Reader& r) override {
    counters_.clear();
    const std::uint64_t n = r.count(12);
    for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
      const std::int64_t key = r.i64();
      counters_[key].setState(r.i32());
    }
  }

 private:
  FlatMap<std::int64_t, TwoBitCounter> counters_;
};

/// Global prediction: one bimodal counter per requesting thread.
class GlobalBimodalPolicy final : public PagePolicy {
 public:
  PageDecision decide(std::int64_t, ThreadId thread) override {
    return counters_[thread].predictsOpen() ? PageDecision::KeepOpen
                                            : PageDecision::Close;
  }
  void observeOutcome(std::int64_t, ThreadId thread, bool sameRow) override {
    counters_[thread].train(sameRow);
  }
  PolicyKind kind() const override { return PolicyKind::GlobalBimodal; }

  void save(ckpt::Writer& w) const override {
    ckpt::saveMapSorted(w, counters_,
                        [&](const TwoBitCounter& c) { w.i32(c.state()); });
  }
  void load(ckpt::Reader& r) override {
    counters_.clear();
    const std::uint64_t n = r.count(12);
    for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
      const ThreadId key = static_cast<ThreadId>(r.i64());
      counters_[key].setState(r.i32());
    }
  }

 private:
  FlatMap<ThreadId, TwoBitCounter> counters_;
};

/// Tournament: per-μbank chooser over {open, close, local, global}
/// candidates (§V treats the static policies as static predictors). Each
/// candidate keeps a small saturating accuracy score; the current best
/// candidate's prediction wins.
class TournamentPolicy final : public PagePolicy {
 public:
  PageDecision decide(std::int64_t flatUbank, ThreadId thread) override;
  void observeOutcome(std::int64_t flatUbank, ThreadId thread, bool sameRow) override;
  void onAccess(std::int64_t flatUbank, bool rowHit) override;
  PolicyKind kind() const override { return PolicyKind::Tournament; }

  /// Index of the currently winning candidate for a μbank (for tests).
  int bestCandidate(std::int64_t flatUbank) const;

  void save(ckpt::Writer& w) const override;
  void load(ckpt::Reader& r) override;

 private:
  static constexpr int kNumCandidates = 4;  // open, close, local, global
  struct Scores {
    // Saturating accuracy score in [0, 7] per candidate; start equal.
    int score[kNumCandidates] = {4, 4, 4, 4};
  };

  bool candidatePredictsOpen(int candidate, std::int64_t flatUbank, ThreadId thread);

  FlatMap<std::int64_t, Scores> scores_;
  LocalBimodalPolicy local_;
  GlobalBimodalPolicy global_;
};

/// Perfect (oracle) management: the controller resolves it lazily.
class PerfectPolicy final : public PagePolicy {
 public:
  PageDecision decide(std::int64_t, ThreadId) override { return PageDecision::Lazy; }
  PolicyKind kind() const override { return PolicyKind::Perfect; }
};

}  // namespace mb::core
