#include "obs/metrics.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "base/check.hpp"
#include "base/json.hpp"

namespace aplace::obs {

namespace detail {

std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag = [] {
    const char* env = std::getenv("APLACE_OBS");
    return env == nullptr || std::string_view(env) != "0";
  }();
  return flag;
}

namespace {

void append_indent(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out.push_back('\n');
  out.append(static_cast<std::size_t>(indent) * static_cast<std::size_t>(depth),
             ' ');
}

/// Relaxed add on an atomic double (no fetch_add for FP pre-C++20 on all
/// our toolchains).
void atomic_add(std::atomic<double>& a, double delta) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + delta, std::memory_order_relaxed,
                                  std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v < cur && !a.compare_exchange_weak(cur, v, std::memory_order_relaxed,
                                             std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v > cur && !a.compare_exchange_weak(cur, v, std::memory_order_relaxed,
                                             std::memory_order_relaxed)) {
  }
}

constexpr double kHistBase = 1e-9;
constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace
}  // namespace detail

// ---------------------------------------------------------------------------
// Storage

struct HistogramCells {
  std::atomic<std::uint64_t> count{0};
  std::atomic<double> sum{0.0};
  std::atomic<double> min{detail::kInf};
  std::atomic<double> max{-detail::kInf};
  std::array<std::atomic<std::uint64_t>, Histogram::kBuckets> buckets{};
};

/// One thread's private slice of every metric. Fixed capacity: never
/// reallocated, so scrape() can read it without locking the writer.
struct MetricsRegistry::Shard {
  std::array<std::atomic<std::uint64_t>, kMaxCounters> counters{};
  std::array<HistogramCells, kMaxHistograms> histograms{};

  void zero() {
    for (auto& c : counters) c.store(0, std::memory_order_relaxed);
    for (auto& h : histograms) {
      h.count.store(0, std::memory_order_relaxed);
      h.sum.store(0.0, std::memory_order_relaxed);
      h.min.store(detail::kInf, std::memory_order_relaxed);
      h.max.store(-detail::kInf, std::memory_order_relaxed);
      for (auto& b : h.buckets) b.store(0, std::memory_order_relaxed);
    }
  }
};

struct MetricsRegistry::State {
  mutable std::mutex mu;  // guards names, maps, and the shard list
  std::vector<std::string> counter_names;
  std::vector<std::string> gauge_names;
  std::vector<std::string> histogram_names;
  std::unordered_map<std::string, std::uint32_t> counter_ids;
  std::unordered_map<std::string, std::uint32_t> gauge_ids;
  std::unordered_map<std::string, std::uint32_t> histogram_ids;
  std::vector<std::unique_ptr<Shard>> shards;  // in creation order
  std::array<std::atomic<double>, kMaxGauges> gauges{};
};

namespace {

/// Each registry instance gets a process-unique generation so the
/// thread-local shard cache below can never hand back a shard belonging
/// to a destroyed (or different) registry.
std::atomic<std::uint64_t> g_next_generation{1};

struct CachedShard {
  std::uint64_t generation = 0;
  void* shard = nullptr;  // MetricsRegistry::Shard (private nested type)
};

thread_local std::vector<CachedShard> t_shard_cache;

}  // namespace

MetricsRegistry::MetricsRegistry()
    : state_(new State),
      generation_(g_next_generation.fetch_add(1, std::memory_order_relaxed)) {}

MetricsRegistry::~MetricsRegistry() { delete state_; }

MetricsRegistry& MetricsRegistry::global() {
  // Leaked on purpose: worker threads may record during static destruction.
  static MetricsRegistry* reg = new MetricsRegistry();
  return *reg;
}

Counter MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(state_->mu);
  auto it = state_->counter_ids.find(std::string(name));
  if (it == state_->counter_ids.end()) {
    APLACE_CHECK_MSG(state_->counter_names.size() < kMaxCounters,
                     "counter cap exceeded registering " << name);
    const auto id = static_cast<std::uint32_t>(state_->counter_names.size());
    state_->counter_names.emplace_back(name);
    it = state_->counter_ids.emplace(std::string(name), id).first;
  }
  return Counter(this, it->second);
}

Gauge MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(state_->mu);
  auto it = state_->gauge_ids.find(std::string(name));
  if (it == state_->gauge_ids.end()) {
    APLACE_CHECK_MSG(state_->gauge_names.size() < kMaxGauges,
                     "gauge cap exceeded registering " << name);
    const auto id = static_cast<std::uint32_t>(state_->gauge_names.size());
    state_->gauge_names.emplace_back(name);
    state_->gauges[id].store(0.0, std::memory_order_relaxed);
    it = state_->gauge_ids.emplace(std::string(name), id).first;
  }
  return Gauge(this, it->second);
}

Histogram MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(state_->mu);
  auto it = state_->histogram_ids.find(std::string(name));
  if (it == state_->histogram_ids.end()) {
    APLACE_CHECK_MSG(state_->histogram_names.size() < kMaxHistograms,
                     "histogram cap exceeded registering " << name);
    const auto id = static_cast<std::uint32_t>(state_->histogram_names.size());
    state_->histogram_names.emplace_back(name);
    it = state_->histogram_ids.emplace(std::string(name), id).first;
  }
  return Histogram(this, it->second);
}

MetricsRegistry::Shard& MetricsRegistry::local_shard() {
  for (const auto& entry : t_shard_cache) {
    if (entry.generation == generation_) {
      return *static_cast<Shard*>(entry.shard);
    }
  }
  auto shard = std::make_unique<Shard>();
  Shard* raw = shard.get();
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->shards.push_back(std::move(shard));
  }
  t_shard_cache.push_back(CachedShard{generation_, raw});
  return *raw;
}

void MetricsRegistry::counter_add(std::uint32_t id, std::uint64_t delta) {
  local_shard().counters[id].fetch_add(delta, std::memory_order_relaxed);
}

void MetricsRegistry::gauge_set(std::uint32_t id, double value, bool max_only) {
  if (max_only) {
    detail::atomic_max(state_->gauges[id], value);
  } else {
    state_->gauges[id].store(value, std::memory_order_relaxed);
  }
}

void MetricsRegistry::histogram_record(std::uint32_t id, double value) {
  HistogramCells& h = local_shard().histograms[id];
  h.count.fetch_add(1, std::memory_order_relaxed);
  detail::atomic_add(h.sum, value);
  detail::atomic_min(h.min, value);
  detail::atomic_max(h.max, value);
  h.buckets[Histogram::bucket_of(value)].fetch_add(1,
                                                   std::memory_order_relaxed);
}

MetricsSnapshot MetricsRegistry::scrape() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(state_->mu);

  snap.counters.resize(state_->counter_names.size());
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    snap.counters[i].name = state_->counter_names[i];
  }
  snap.gauges.resize(state_->gauge_names.size());
  for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
    snap.gauges[i].name = state_->gauge_names[i];
    snap.gauges[i].value = state_->gauges[i].load(std::memory_order_relaxed);
  }

  struct HistAccum {
    std::uint64_t count = 0;
    double sum = 0;
    double min = detail::kInf;
    double max = -detail::kInf;
    std::array<std::uint64_t, Histogram::kBuckets> buckets{};
  };
  std::vector<HistAccum> hists(state_->histogram_names.size());

  // Merge shards in creation order. Counter values and bucket counts are
  // u64 (exact, order-independent); histogram sums are double and exact
  // for integer-valued samples — see the header contract.
  for (const auto& shard : state_->shards) {
    for (std::size_t i = 0; i < snap.counters.size(); ++i) {
      snap.counters[i].value +=
          shard->counters[i].load(std::memory_order_relaxed);
    }
    for (std::size_t i = 0; i < hists.size(); ++i) {
      const HistogramCells& cells = shard->histograms[i];
      HistAccum& acc = hists[i];
      acc.count += cells.count.load(std::memory_order_relaxed);
      acc.sum += cells.sum.load(std::memory_order_relaxed);
      acc.min = std::min(acc.min, cells.min.load(std::memory_order_relaxed));
      acc.max = std::max(acc.max, cells.max.load(std::memory_order_relaxed));
      for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
        acc.buckets[b] += cells.buckets[b].load(std::memory_order_relaxed);
      }
    }
  }

  snap.histograms.resize(hists.size());
  for (std::size_t i = 0; i < hists.size(); ++i) {
    auto& row = snap.histograms[i];
    row.name = state_->histogram_names[i];
    row.count = hists[i].count;
    row.sum = hists[i].sum;
    row.min = hists[i].count > 0 ? hists[i].min : 0.0;
    row.max = hists[i].count > 0 ? hists[i].max : 0.0;
    for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
      if (hists[i].buckets[b] != 0) {
        row.buckets.emplace_back(static_cast<std::uint32_t>(b),
                                 hists[i].buckets[b]);
      }
    }
  }

  auto by_name = [](const auto& a, const auto& b) { return a.name < b.name; };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
  return snap;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(state_->mu);
  for (auto& shard : state_->shards) shard->zero();
  for (auto& g : state_->gauges) g.store(0.0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Handles

void Counter::add(std::uint64_t delta) const {
  if (reg_ == nullptr || !enabled()) return;
  reg_->counter_add(id_, delta);
}

void Gauge::set(double value) const {
  if (reg_ == nullptr || !enabled()) return;
  reg_->gauge_set(id_, value, /*max_only=*/false);
}

void Gauge::set_max(double value) const {
  if (reg_ == nullptr || !enabled()) return;
  reg_->gauge_set(id_, value, /*max_only=*/true);
}

void Histogram::record(double value) const {
  if (reg_ == nullptr || !enabled()) return;
  reg_->histogram_record(id_, value);
}

std::size_t Histogram::bucket_of(double value) {
  if (!(value > detail::kHistBase)) return 0;
  const int e = static_cast<int>(std::floor(std::log2(value / detail::kHistBase)));
  if (e < 0) return 0;
  return std::min<std::size_t>(static_cast<std::size_t>(e), kBuckets - 1);
}

double Histogram::bucket_upper(std::size_t i) {
  if (i >= kBuckets - 1) return detail::kInf;
  return detail::kHistBase * std::ldexp(1.0, static_cast<int>(i) + 1);
}

// ---------------------------------------------------------------------------
// Snapshot

const MetricsSnapshot::CounterRow* MetricsSnapshot::find_counter(
    std::string_view name) const {
  for (const auto& row : counters) {
    if (row.name == name) return &row;
  }
  return nullptr;
}

const MetricsSnapshot::HistogramRow* MetricsSnapshot::find_histogram(
    std::string_view name) const {
  for (const auto& row : histograms) {
    if (row.name == name) return &row;
  }
  return nullptr;
}

std::string MetricsSnapshot::to_json(int indent) const {
  using base::append_double;
  using base::append_json_string;
  using base::append_u64;
  using detail::append_indent;

  std::string out;
  out.push_back('{');
  append_indent(out, indent, 1);
  out += "\"counters\": {";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    if (i != 0) out.push_back(',');
    append_indent(out, indent, 2);
    append_json_string(out, counters[i].name);
    out += ": ";
    append_u64(out, counters[i].value);
  }
  if (!counters.empty()) append_indent(out, indent, 1);
  out += "},";
  append_indent(out, indent, 1);
  out += "\"gauges\": {";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    if (i != 0) out.push_back(',');
    append_indent(out, indent, 2);
    append_json_string(out, gauges[i].name);
    out += ": ";
    append_double(out, gauges[i].value);
  }
  if (!gauges.empty()) append_indent(out, indent, 1);
  out += "},";
  append_indent(out, indent, 1);
  out += "\"histograms\": {";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const auto& h = histograms[i];
    if (i != 0) out.push_back(',');
    append_indent(out, indent, 2);
    append_json_string(out, h.name);
    out += ": {\"count\": ";
    append_u64(out, h.count);
    out += ", \"sum\": ";
    append_double(out, h.sum);
    out += ", \"min\": ";
    append_double(out, h.min);
    out += ", \"max\": ";
    append_double(out, h.max);
    out += ", \"buckets\": [";
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      if (b != 0) out.push_back(',');
      out += "[";
      append_u64(out, h.buckets[b].first);
      out.push_back(',');
      append_u64(out, h.buckets[b].second);
      out += "]";
    }
    out += "]}";
  }
  if (!histograms.empty()) append_indent(out, indent, 1);
  out += "}";
  append_indent(out, indent, 0);
  out.push_back('}');
  return out;
}

}  // namespace aplace::obs
