#pragma once
// Process-wide metrics registry: named counters, gauges, and histograms
// with lock-free per-thread shards, merged deterministically at scrape.
//
// Design (see docs/OBSERVABILITY.md):
//
//  * Registration (counter("sa/moves") etc.) interns the name under a mutex
//    once and returns a trivially copyable handle. Handles are cheap to
//    store as function-local statics next to the hot loop they instrument.
//  * Recording is lock-free: each thread lazily owns one Shard per registry
//    — fixed-capacity arrays of relaxed std::atomics — so a counter add is
//    one thread-local lookup plus one relaxed fetch_add, with zero
//    cross-thread contention. Gauges are registry-level (set semantics:
//    last write wins) rather than sharded.
//  * scrape() merges shards in shard-creation order. Counter values and
//    histogram bucket counts are unsigned integers, so the merged totals
//    are exact and independent of which thread recorded what — the
//    determinism contract tests/obs_test.cpp pins at 1/2/8 threads.
//    Histogram *sums* are doubles: they are exact whenever the recorded
//    values are integers (every partial sum is representable), and within
//    rounding otherwise.
//  * Every record call is behind obs::enabled() (metrics disabled = one
//    relaxed atomic load).
//
// Capacity is fixed at registration caps (kMaxCounters/...) so shard
// storage never reallocates under a concurrent reader; exceeding a cap is
// a programming error and fails a CHECK.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/obs.hpp"

namespace aplace::obs {

class MetricsRegistry;

/// Monotone event count (moves proposed, jobs done, FFT transforms, ...).
class Counter {
 public:
  Counter() = default;
  void add(std::uint64_t delta) const;
  void inc() const { add(1); }

 private:
  friend class MetricsRegistry;
  Counter(MetricsRegistry* reg, std::uint32_t id) : reg_(reg), id_(id) {}
  MetricsRegistry* reg_ = nullptr;
  std::uint32_t id_ = 0;
};

/// Last-write-wins instantaneous value (queue depth, thread count, ...).
class Gauge {
 public:
  Gauge() = default;
  void set(double value) const;
  /// Keep the maximum of the current and the given value (high-water mark).
  void set_max(double value) const;

 private:
  friend class MetricsRegistry;
  Gauge(MetricsRegistry* reg, std::uint32_t id) : reg_(reg), id_(id) {}
  MetricsRegistry* reg_ = nullptr;
  std::uint32_t id_ = 0;
};

/// Value distribution with base-2 exponential buckets spanning
/// [1e-9, 1e-9 * 2^47) — nanoseconds to ~1.6 days when the value is in
/// seconds — plus exact count / sum / min / max.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 48;

  Histogram() = default;
  void record(double value) const;

  /// Bucket index for a value: 0 for values below the 1e-9 base, else
  /// floor(log2(value / 1e-9)) clamped to the bucket range. Exposed so
  /// tests can pin bucket boundaries.
  [[nodiscard]] static std::size_t bucket_of(double value);
  /// Inclusive upper bound of bucket `i` (1e-9 * 2^(i+1); +inf for the
  /// last bucket).
  [[nodiscard]] static double bucket_upper(std::size_t i);

 private:
  friend class MetricsRegistry;
  Histogram(MetricsRegistry* reg, std::uint32_t id) : reg_(reg), id_(id) {}
  MetricsRegistry* reg_ = nullptr;
  std::uint32_t id_ = 0;
};

/// Point-in-time merged view of every metric, sorted by name. JSON export
/// is a single stable object (keys sorted), so two scrapes of identical
/// state serialize identically.
struct MetricsSnapshot {
  struct CounterRow {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeRow {
    std::string name;
    double value = 0;
  };
  struct HistogramRow {
    std::string name;
    std::uint64_t count = 0;
    double sum = 0;
    double min = 0;  ///< 0 when count == 0
    double max = 0;
    /// Sparse non-zero buckets as (bucket index, count) pairs.
    std::vector<std::pair<std::uint32_t, std::uint64_t>> buckets;

    [[nodiscard]] double mean() const {
      return count > 0 ? sum / static_cast<double>(count) : 0.0;
    }
  };

  std::vector<CounterRow> counters;
  std::vector<GaugeRow> gauges;
  std::vector<HistogramRow> histograms;

  [[nodiscard]] bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
  [[nodiscard]] const CounterRow* find_counter(std::string_view name) const;
  [[nodiscard]] const HistogramRow* find_histogram(std::string_view name) const;

  /// Stable, pretty-printed JSON object:
  /// {"counters": {...}, "gauges": {...}, "histograms": {name: {count,
  /// sum, min, max, buckets: [[idx, n], ...]}, ...}}.
  [[nodiscard]] std::string to_json(int indent = 0) const;
};

/// The registry. Thread-safe; normally used through global(), but tests
/// may construct private instances.
class MetricsRegistry {
 public:
  static constexpr std::size_t kMaxCounters = 192;
  static constexpr std::size_t kMaxGauges = 64;
  static constexpr std::size_t kMaxHistograms = 96;

  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every built-in instrumentation site records
  /// into. Intentionally leaked: pool worker threads may still be flushing
  /// counters during static destruction.
  [[nodiscard]] static MetricsRegistry& global();

  /// Intern a metric by name (idempotent: same name -> same handle).
  [[nodiscard]] Counter counter(std::string_view name);
  [[nodiscard]] Gauge gauge(std::string_view name);
  [[nodiscard]] Histogram histogram(std::string_view name);

  /// Merge every shard into one snapshot (see the determinism notes above).
  [[nodiscard]] MetricsSnapshot scrape() const;

  /// Zero every recorded value. Registered names (and handles) survive.
  void reset();

 private:
  friend class Counter;
  friend class Gauge;
  friend class Histogram;

  struct Shard;
  struct State;

  void counter_add(std::uint32_t id, std::uint64_t delta);
  void gauge_set(std::uint32_t id, double value, bool max_only);
  void histogram_record(std::uint32_t id, double value);
  [[nodiscard]] Shard& local_shard();

  State* state_ = nullptr;
  std::uint64_t generation_ = 0;  ///< process-unique registry identity
};

/// Convenience: intern on the global registry.
[[nodiscard]] inline Counter counter(std::string_view name) {
  return MetricsRegistry::global().counter(name);
}
[[nodiscard]] inline Gauge gauge(std::string_view name) {
  return MetricsRegistry::global().gauge(name);
}
[[nodiscard]] inline Histogram histogram(std::string_view name) {
  return MetricsRegistry::global().histogram(name);
}

}  // namespace aplace::obs
