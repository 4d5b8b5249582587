#include "common/stats.hpp"

#include <cmath>

namespace mb {

double Accumulator::variance() const {
  if (count_ < 2) return 0.0;
  const double n = static_cast<double>(count_);
  const double m = sum_ / n;
  const double v = sumSq_ / n - m * m;
  return v < 0.0 ? 0.0 : v;
}

void Histogram::add(double sample) {
  size_t idx;
  if (sample < 0.0) {
    idx = 0;
  } else {
    const auto b = static_cast<size_t>(sample / bucketWidth_);
    idx = b >= buckets_.size() - 1 ? buckets_.size() - 1 : b;
  }
  ++buckets_[idx];
  ++total_;
  sum_ += sample;
}

double Histogram::percentile(double fraction) const {
  MB_CHECK_MSG(fraction >= 0.0 && fraction <= 1.0, "fraction=%g", fraction);
  if (total_ == 0) return 0.0;
  // fraction == 0 must be the lower edge, not the first bucket's upper edge
  // (the old target of 0 matched an empty leading bucket immediately); and a
  // truncated target of 0 for tiny fractions had the same defect, so the
  // target sample rank is clamped to [1, total].
  if (fraction <= 0.0) return 0.0;
  auto target = static_cast<std::int64_t>(std::ceil(fraction * static_cast<double>(total_)));
  if (target < 1) target = 1;
  if (target > total_) target = total_;  // fraction == 1.0 under rounding
  std::int64_t running = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    running += buckets_[i];
    if (running >= target) return static_cast<double>(i + 1) * bucketWidth_;
  }
  // Unreachable: the clamped target is <= total_, the sum of all buckets.
  return static_cast<double>(buckets_.size()) * bucketWidth_;
}

}  // namespace mb
