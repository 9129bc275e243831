#include "obs/span.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>

#include "base/json.hpp"

namespace aplace::obs {

namespace {

std::atomic<std::uint64_t> g_next_span_id{1};
std::atomic<std::uint32_t> g_next_tid{1};

thread_local SpanContext t_context;

std::uint32_t local_tid() {
  thread_local std::uint32_t tid =
      g_next_tid.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

using base::append_u64;

}  // namespace

double now_seconds() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return std::chrono::duration<double>(clock::now() - epoch).count();
}

SpanContext current_context() { return t_context; }

ContextGuard::ContextGuard(const SpanContext& ctx) : saved_(t_context) {
  t_context = ctx;
}

ContextGuard::~ContextGuard() { t_context = saved_; }

Span::Span(const char* name, Root root) {
  if (!enabled()) return;
  name_ = name;
  saved_ = t_context;
  id_ = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  if (root == Root::New || saved_.current == 0) {
    parent_ = (root == Root::New) ? 0 : saved_.current;
    root_ = id_;
    depth_ = 0;
  } else {
    parent_ = saved_.current;
    root_ = saved_.root;
    depth_ = saved_.depth + 1;
  }
  t_context = SpanContext{id_, root_, depth_};
  active_ = true;
  start_ = now_seconds();
}

Span::~Span() {
  if (!active_) return;
  const double end = now_seconds();
  t_context = saved_;
  SpanEvent ev;
  ev.name = name_;
  ev.id = id_;
  ev.parent = parent_;
  ev.root = root_;
  ev.depth = depth_;
  ev.tid = local_tid();
  ev.start_seconds = start_;
  ev.dur_seconds = end - start_;
  SpanCollector::global().record(std::move(ev));
}

struct SpanCollector::State {
  mutable std::mutex mu;
  std::vector<SpanEvent> events;
};

SpanCollector::State* SpanCollector::state() {
  // Leaked on purpose (see global()).
  static State* s = new State();
  return s;
}

SpanCollector& SpanCollector::global() {
  static SpanCollector* c = new SpanCollector();
  return *c;
}

void SpanCollector::record(SpanEvent ev) {
  State* s = state();
  std::lock_guard<std::mutex> lock(s->mu);
  s->events.push_back(std::move(ev));
}

std::vector<SpanEvent> SpanCollector::take_events_for_root(
    std::uint64_t root_id) {
  State* s = state();
  std::vector<SpanEvent> out;
  {
    std::lock_guard<std::mutex> lock(s->mu);
    auto keep = s->events.begin();
    for (auto it = s->events.begin(); it != s->events.end(); ++it) {
      if (it->root == root_id) {
        out.push_back(std::move(*it));
      } else {
        if (keep != it) *keep = std::move(*it);
        ++keep;
      }
    }
    s->events.erase(keep, s->events.end());
  }
  std::sort(out.begin(), out.end(), [](const SpanEvent& a, const SpanEvent& b) {
    return a.start_seconds < b.start_seconds;
  });
  return out;
}

std::vector<SpanEvent> SpanCollector::drain() {
  State* s = state();
  std::vector<SpanEvent> out;
  {
    std::lock_guard<std::mutex> lock(s->mu);
    out.swap(s->events);
  }
  std::sort(out.begin(), out.end(), [](const SpanEvent& a, const SpanEvent& b) {
    return a.start_seconds < b.start_seconds;
  });
  return out;
}

void SpanCollector::clear() {
  State* s = state();
  std::lock_guard<std::mutex> lock(s->mu);
  s->events.clear();
}

std::size_t SpanCollector::size() const {
  State* s = const_cast<SpanCollector*>(this)->state();
  std::lock_guard<std::mutex> lock(s->mu);
  return s->events.size();
}

std::string chrome_trace_json(const std::vector<SpanEvent>& events) {
  // Complete "X" (duration) events; timestamps/durations in microseconds,
  // the unit chrome://tracing expects.
  std::string out = "{\"traceEvents\": [";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const SpanEvent& ev = events[i];
    if (i != 0) out.push_back(',');
    out += "\n  {\"name\": ";
    base::append_json_string(out, ev.name);
    out += ", \"ph\": \"X\", \"ts\": ";
    append_u64(out, static_cast<std::uint64_t>(ev.start_seconds * 1e6));
    out += ", \"dur\": ";
    append_u64(out, static_cast<std::uint64_t>(ev.dur_seconds * 1e6));
    out += ", \"pid\": 1, \"tid\": ";
    append_u64(out, ev.tid);
    out += ", \"args\": {\"id\": ";
    append_u64(out, ev.id);
    out += ", \"parent\": ";
    append_u64(out, ev.parent);
    out += ", \"depth\": ";
    append_u64(out, ev.depth);
    out += "}}";
  }
  out += "\n]}\n";
  return out;
}

}  // namespace aplace::obs
