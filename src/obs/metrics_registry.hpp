// Named metrics registry: counters, gauges and log-linear histograms the
// serving stack accumulates into, replacing ad-hoc scalar fields. The
// registry is the machine-readable side of observability (flat JSON/CSV
// dumps via `ckv serve --metrics-out`); the tracer (obs/trace.hpp) is the
// timeline side. ServeMetrics keeps its public aggregate API but stores
// through these instruments internally.
//
// Everything here is deterministic: histogram buckets are derived with
// frexp (pure bit manipulation, identical across platforms/libms), and
// instruments iterate in name order when exported.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <ostream>
#include <string>
#include <string_view>

#include "tensor/stats.hpp"
#include "util/common.hpp"
#include "util/thread_safety.hpp"

namespace ckv::obs {

/// Monotonically increasing sum. Backed by a double so integer token /
/// byte counts stay exact up to 2^53 while virtual-ms costs accumulate in
/// the same instrument type.
class Counter {
 public:
  void add(double delta) noexcept { value_ += delta; }
  void add(std::int64_t delta) noexcept { value_ += static_cast<double>(delta); }
  [[nodiscard]] double value() const noexcept { return value_; }
  [[nodiscard]] std::int64_t as_int() const noexcept {
    return static_cast<std::int64_t>(value_);
  }

 private:
  double value_ = 0.0;
};

/// Point-in-time samples of a level (fast-tier bytes, batch size, queue
/// depth): keeps the last sample plus a RunningStat over all samples, in
/// the exact add order the caller used (ServeMetrics equivalence depends
/// on that ordering).
class Gauge {
 public:
  void set(double value) noexcept {
    last_ = value;
    stat_.add(value);
  }
  [[nodiscard]] double last() const noexcept { return last_; }
  [[nodiscard]] const RunningStat& stat() const noexcept { return stat_; }

 private:
  double last_ = 0.0;
  RunningStat stat_;
};

/// Log-linear histogram: each power-of-two octave is split into
/// `kSubBuckets` linear sub-buckets, giving a bounded relative error of
/// 1/kSubBuckets per octave across the full double range without
/// preconfigured bounds. Bucketing uses frexp only — no logarithms — so
/// bucket assignment is bit-exact on every platform. Values <= 0 land in
/// a single underflow bucket.
class Histogram {
 public:
  static constexpr int kSubBuckets = 8;

  void record(double value) noexcept;

  [[nodiscard]] Index count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  [[nodiscard]] double min() const noexcept { return count_ == 0 ? 0.0 : min_; }
  [[nodiscard]] double max() const noexcept { return count_ == 0 ? 0.0 : max_; }

  /// Approximate percentile (p in [0, 100]) by linear interpolation
  /// inside the covering bucket, clamped to the observed [min, max].
  /// Relative error is bounded by the sub-bucket width (12.5%).
  [[nodiscard]] double percentile(double p) const;

  /// Occupied buckets, ascending by value: {lower_bound, count}.
  [[nodiscard]] const std::map<std::int32_t, std::int64_t>& buckets()
      const noexcept {
    return buckets_;
  }
  /// Lower edge of a bucket key as returned by buckets().
  [[nodiscard]] static double bucket_lower(std::int32_t key) noexcept;
  [[nodiscard]] static double bucket_upper(std::int32_t key) noexcept;

  /// Key of the values-<= 0 bucket in buckets() (bounds are not derived
  /// from the key; percentile treats it as [min(min, 0), 0]).
  static constexpr std::int32_t kUnderflowKey =
      std::numeric_limits<std::int32_t>::min();

 private:
  std::map<std::int32_t, std::int64_t> buckets_;
  Index count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Name-keyed instrument store. Instruments are created on first access
/// and live for the registry's lifetime; references stay valid across
/// later insertions (std::map nodes are stable). Export walks names in
/// lexicographic order so dumps are diffable.
///
/// Concurrency contract: *thread-compatible, externally synchronized*. A
/// registry is confined to the scheduler thread — ServeMetrics records
/// only from the tick's serial commit phase, never from pool workers
/// (docs/SCHEDULING.md). The maps are CKV_GUARDED_BY an ExclusiveContext
/// (a compile-time-only capability, no runtime lock): the clang CI leg
/// rejects any new access path that does not explicitly claim exclusive
/// ownership, which is how "don't record from a worker" stays a build
/// error instead of a TSan finding. Note the claim covers the *maps*;
/// instrument references handed out by the accessors inherit the same
/// contract by documentation (the analysis cannot follow them).
class MetricsRegistry {
 public:
  [[nodiscard]] Counter& counter(const std::string& name) {
    const ExclusiveLock own(owner_);
    return counters_[name];
  }
  [[nodiscard]] Gauge& gauge(const std::string& name) {
    const ExclusiveLock own(owner_);
    return gauges_[name];
  }
  [[nodiscard]] Histogram& histogram(const std::string& name) {
    const ExclusiveLock own(owner_);
    return histograms_[name];
  }

  /// A counter's value, 0 when it was never registered. Unlike counter(),
  /// never creates the instrument, so reading a total cannot change what
  /// write_json / write_csv export.
  [[nodiscard]] double counter_value(std::string_view name) const noexcept {
    const ExclusiveLock own(owner_);
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0.0 : it->second.value();
  }

  [[nodiscard]] const std::map<std::string, Counter, std::less<>>& counters()
      const noexcept {
    const ExclusiveLock own(owner_);
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, Gauge>& gauges() const noexcept {
    const ExclusiveLock own(owner_);
    return gauges_;
  }
  [[nodiscard]] const std::map<std::string, Histogram>& histograms()
      const noexcept {
    const ExclusiveLock own(owner_);
    return histograms_;
  }

  /// Flat JSON dump: {"counters": {...}, "gauges": {...},
  /// "histograms": {...}} with count/sum/mean/min/max/p50/p95/p99 per
  /// histogram and last/mean/min/max/count per gauge.
  void write_json(std::ostream& out) const;
  /// Flat CSV dump: kind,name,field,value — one row per exported scalar.
  void write_csv(std::ostream& out) const;

 private:
  /// Static stand-in for the owning thread (see the class comment).
  mutable ExclusiveContext owner_;
  std::map<std::string, Counter, std::less<>> counters_ CKV_GUARDED_BY(owner_);
  std::map<std::string, Gauge> gauges_ CKV_GUARDED_BY(owner_);
  std::map<std::string, Histogram> histograms_ CKV_GUARDED_BY(owner_);
};

}  // namespace ckv::obs
