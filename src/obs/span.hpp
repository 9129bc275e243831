#pragma once
// RAII scoped timers that nest into per-flow trace trees.
//
// A Span measures one stage (GP phase, legalizer attempt, SA chain, batch
// job, ...) on the thread that runs it. Spans nest through a thread-local
// context: a Span opened while another is live on the same thread becomes
// its child; the ThreadPool propagates the submitting thread's context to
// workers (base/thread_pool.cpp installs a ContextGuard around each task),
// so fan-out work parents correctly across threads.
//
// Each span carries a root id identifying the tree it belongs to. A span
// opened with Span::Root::New starts a fresh tree rooted at itself — the
// per-flow entry points use this, so a flow's subtree can be extracted
// from the global collector with take_events_for_root() even when the flow
// runs nested inside a batch job span.
//
// Finished spans land in the process-wide SpanCollector as plain
// SpanEvent records; chrome_trace_json() renders any event list in Chrome
// trace_event format for chrome://tracing / Perfetto (see
// docs/OBSERVABILITY.md).
//
// Like metrics, spans are observation-only: with the layer disabled
// (obs::set_enabled(false) or APLACE_OBS=0) construction is a no-op and
// nothing is recorded.

#include <cstdint>
#include <string>
#include <vector>

#include "obs/obs.hpp"

namespace aplace::obs {

/// One finished span. Plain data so results structs (FlowResult) and the
/// bench JSON can carry span lists without touching the collector.
struct SpanEvent {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = no parent (tree root)
  std::uint64_t root = 0;    ///< id of the tree's root span
  std::uint32_t depth = 0;   ///< 0 at the root
  std::uint32_t tid = 0;     ///< small per-thread ordinal, 1-based
  double start_seconds = 0;  ///< relative to process start (steady clock)
  double dur_seconds = 0;
};

/// The ambient span position of the current thread. Captured by the
/// ThreadPool at submit and reinstalled on the worker via ContextGuard.
struct SpanContext {
  std::uint64_t current = 0;
  std::uint64_t root = 0;
  std::uint32_t depth = 0;
};

/// The current thread's span context (what a new Span would nest under).
[[nodiscard]] SpanContext current_context();

/// Installs a span context on this thread for its lifetime (RAII); used to
/// carry the submitter's context across a thread-pool hop.
class ContextGuard {
 public:
  explicit ContextGuard(const SpanContext& ctx);
  ~ContextGuard();
  ContextGuard(const ContextGuard&) = delete;
  ContextGuard& operator=(const ContextGuard&) = delete;

 private:
  SpanContext saved_;
};

/// Scoped timer. `name` must outlive the span (string literals only).
class Span {
 public:
  enum class Root {
    Inherit,  ///< join the enclosing tree (the default)
    New,      ///< start a fresh tree rooted at this span
  };

  explicit Span(const char* name, Root root = Root::Inherit);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// This span's tree root id (its own id under Root::New); 0 when the
  /// span is inactive (observability disabled).
  [[nodiscard]] std::uint64_t root_id() const { return root_; }

 private:
  const char* name_ = nullptr;
  bool active_ = false;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t root_ = 0;
  std::uint32_t depth_ = 0;
  double start_ = 0;
  SpanContext saved_{};
};

/// Process-wide sink for finished spans. Mutex-guarded — spans close at
/// stage boundaries, not in hot loops, so contention is negligible.
class SpanCollector {
 public:
  /// Intentionally leaked, same rationale as MetricsRegistry::global().
  [[nodiscard]] static SpanCollector& global();

  void record(SpanEvent ev);

  /// Remove and return every event whose tree root is `root_id`, ordered
  /// by start time. Used to attach a flow's subtree to its FlowResult.
  [[nodiscard]] std::vector<SpanEvent> take_events_for_root(
      std::uint64_t root_id);

  /// Remove and return everything (batch --trace-out, tests).
  [[nodiscard]] std::vector<SpanEvent> drain();

  void clear();
  [[nodiscard]] std::size_t size() const;

 private:
  SpanCollector() = default;
  struct State;
  State* state();
};

/// Seconds since process start on the steady clock (span timestamps).
[[nodiscard]] double now_seconds();

/// Render events as a Chrome trace_event JSON document:
/// {"traceEvents": [{"name":.., "ph":"X", "ts":<µs>, "dur":<µs>,
///  "pid":1, "tid":<tid>, "args":{...}}, ...]}
[[nodiscard]] std::string chrome_trace_json(
    const std::vector<SpanEvent>& events);

}  // namespace aplace::obs
