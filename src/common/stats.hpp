// Statistics primitives: counters, scalar accumulators, histograms, and a
// time-weighted level, each serializable into a component's snapshot
// section.
#pragma once

#include <cstdint>
#include <vector>

#include "ckpt/serialize.hpp"
#include "common/check.hpp"
#include "common/types.hpp"

namespace mb {

/// Simple monotonically increasing event counter.
class Counter {
 public:
  void inc(std::int64_t by = 1) { value_ += by; }
  std::int64_t value() const { return value_; }
  void reset() { value_ = 0; }

  void save(ckpt::Writer& w) const { w.i64(value_); }
  void load(ckpt::Reader& r) { value_ = r.i64(); }

 private:
  std::int64_t value_ = 0;
};

/// Accumulates a scalar sample stream: count / sum / min / max / mean.
class Accumulator {
 public:
  void add(double sample) {
    if (count_ == 0 || sample < min_) min_ = sample;
    if (count_ == 0 || sample > max_) max_ = sample;
    sum_ += sample;
    sumSq_ += sample * sample;
    ++count_;
  }

  std::int64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_); }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double variance() const;
  void reset() { *this = Accumulator{}; }

  void save(ckpt::Writer& w) const {
    w.i64(count_);
    w.f64(sum_);
    w.f64(sumSq_);
    w.f64(min_);
    w.f64(max_);
  }
  void load(ckpt::Reader& r) {
    count_ = r.i64();
    sum_ = r.f64();
    sumSq_ = r.f64();
    min_ = r.f64();
    max_ = r.f64();
  }

 private:
  std::int64_t count_ = 0;
  double sum_ = 0.0;
  double sumSq_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Fixed-bucket histogram over [0, bucketWidth * numBuckets); out-of-range
/// samples land in the final overflow bucket.
class Histogram {
 public:
  Histogram(double bucketWidth, int numBuckets)
      : bucketWidth_(bucketWidth), buckets_(static_cast<size_t>(numBuckets) + 1, 0) {
    MB_CHECK(bucketWidth > 0.0 && numBuckets > 0);
  }

  void add(double sample);

  /// Fold another histogram (same geometry, MB_CHECK otherwise) into this
  /// one. Bucket counts and totals are integers and commute, but `sum_` is
  /// a double and FP addition is non-associative — callers reducing
  /// per-channel histograms MUST merge in channel-index order, never in
  /// shard completion order, or mean() becomes scheduling-dependent
  /// (see the StatsOrder and ShardDifferential tests).
  void merge(const Histogram& other) {
    MB_CHECK_MSG(other.bucketWidth_ == bucketWidth_ &&
                     other.buckets_.size() == buckets_.size(),
                 "histogram merge with mismatched geometry");
    for (std::size_t i = 0; i < buckets_.size(); ++i)
      buckets_[i] += other.buckets_[i];
    total_ += other.total_;
    sum_ += other.sum_;
  }

  std::int64_t bucketCount(int bucket) const { return buckets_.at(static_cast<size_t>(bucket)); }
  int numBuckets() const { return static_cast<int>(buckets_.size()) - 1; }
  std::int64_t overflowCount() const { return buckets_.back(); }
  std::int64_t totalCount() const { return total_; }
  double mean() const { return total_ == 0 ? 0.0 : sum_ / static_cast<double>(total_); }
  /// Value below which `fraction` of the samples fall (bucket-granular).
  double percentile(double fraction) const;

  /// Bucket geometry is a construction parameter, so load() requires the
  /// target histogram to have the same width and bucket count and fails the
  /// reader otherwise.
  void save(ckpt::Writer& w) const {
    w.f64(bucketWidth_);
    w.u64(buckets_.size());
    for (std::int64_t b : buckets_) w.i64(b);
    w.i64(total_);
    w.f64(sum_);
  }
  void load(ckpt::Reader& r) {
    const double width = r.f64();
    const std::uint64_t n = r.count(8);
    if (width != bucketWidth_ || n != buckets_.size()) {
      r.fail();
      return;
    }
    for (auto& b : buckets_) b = r.i64();
    total_ = r.i64();
    sum_ = r.f64();
  }

 private:
  double bucketWidth_;
  std::vector<std::int64_t> buckets_;
  std::int64_t total_ = 0;
  double sum_ = 0.0;
};

/// Integrates a piecewise-constant level over time; used for request-queue
/// occupancy and power integration. Call `update` whenever the level changes.
class TimeWeightedLevel {
 public:
  void update(Tick now, double newLevel) {
    MB_CHECK_MSG(now >= lastTick_, "time ran backwards: now=%lldps last=%lldps",
                 static_cast<long long>(now), static_cast<long long>(lastTick_));
    weightedSum_ += level_ * static_cast<double>(now - lastTick_);
    lastTick_ = now;
    level_ = newLevel;
  }

  /// Average level over [0, now]. A zero-length window (now == 0, including
  /// now == lastTick_ == 0 right after an update) has no time to average
  /// over and reports 0.0 — not the instantaneous level, and never NaN/inf
  /// from a zero divisor — so downstream energy integration of an empty run
  /// stays finite.
  double average(Tick now) const {
    if (now <= 0) return 0.0;
    MB_CHECK_MSG(now >= lastTick_, "average asked before last update: now=%lldps last=%lldps",
                 static_cast<long long>(now), static_cast<long long>(lastTick_));
    const double total =
        weightedSum_ + level_ * static_cast<double>(now - lastTick_);
    return total / static_cast<double>(now);
  }

  double current() const { return level_; }

  void save(ckpt::Writer& w) const {
    w.i64(lastTick_);
    w.f64(level_);
    w.f64(weightedSum_);
  }
  void load(ckpt::Reader& r) {
    lastTick_ = r.i64();
    level_ = r.f64();
    weightedSum_ = r.f64();
  }

 private:
  Tick lastTick_ = 0;
  double level_ = 0.0;
  double weightedSum_ = 0.0;
};

}  // namespace mb
