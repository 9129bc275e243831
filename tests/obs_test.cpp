// The observability layer's own contracts:
//
//   * merge determinism — a private MetricsRegistry scraped after the same
//     logical work, partitioned over 1, 2, or 8 threads, serializes to the
//     same bytes (u64 counter/bucket merges commute; histogram sums stay
//     exact for integer-valued samples);
//   * span trees — RAII nesting builds correct parent/root/depth links,
//     survives exceptions (the span closes during unwinding and still
//     records), and propagates across thread-pool hops;
//   * kill switch — with the layer disabled at runtime, neither metrics
//     nor spans record anything, and re-enabling resumes cleanly.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "base/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace {

using namespace aplace;

/// Restores the runtime kill switch on scope exit so a failing test can't
/// leave the rest of the suite with observability off.
struct EnabledGuard {
  bool saved = obs::enabled();
  ~EnabledGuard() { obs::set_enabled(saved); }
};

// ---- metrics ---------------------------------------------------------------

/// The same deterministic workload, partitioned over `threads` workers:
/// worker k handles every index with i % threads == k. Histogram samples
/// are integer-valued so the double sum is exact in any accumulation order.
obs::MetricsSnapshot run_partitioned(obs::MetricsRegistry& reg,
                                     unsigned threads, int total) {
  obs::Counter ticks = reg.counter("test/ticks");
  obs::Counter evens = reg.counter("test/evens");
  obs::Histogram hist = reg.histogram("test/values");
  auto worker = [&](unsigned k) {
    for (int i = static_cast<int>(k); i < total;
         i += static_cast<int>(threads)) {
      ticks.inc();
      if (i % 2 == 0) evens.add(2);
      hist.record(static_cast<double>(i % 7 + 1));
    }
  };
  std::vector<std::thread> pool;
  for (unsigned k = 1; k < threads; ++k) pool.emplace_back(worker, k);
  worker(0);
  for (std::thread& t : pool) t.join();
  return reg.scrape();
}

TEST(ObsMetricsTest, MergeDeterministicAcrossThreadCounts) {
  constexpr int kTotal = 4200;
  std::string reference;
  for (unsigned threads : {1U, 2U, 8U}) {
    obs::MetricsRegistry reg;
    const obs::MetricsSnapshot snap = run_partitioned(reg, threads, kTotal);
    const std::string json = snap.to_json(2);
    if (reference.empty()) {
      reference = json;
    } else {
      EXPECT_EQ(reference, json) << "at " << threads << " threads";
    }
    const obs::MetricsSnapshot::CounterRow* ticks =
        snap.find_counter("test/ticks");
    ASSERT_NE(ticks, nullptr);
    EXPECT_EQ(ticks->value, static_cast<std::uint64_t>(kTotal));
    const obs::MetricsSnapshot::HistogramRow* hist =
        snap.find_histogram("test/values");
    ASSERT_NE(hist, nullptr);
    EXPECT_EQ(hist->count, static_cast<std::uint64_t>(kTotal));
    EXPECT_EQ(hist->min, 1.0);
    EXPECT_EQ(hist->max, 7.0);
  }
}

TEST(ObsMetricsTest, HistogramStatsAndBuckets) {
  obs::MetricsRegistry reg;
  obs::Histogram h = reg.histogram("h");
  for (double v : {1.0, 2.0, 4.0, 4.0}) h.record(v);
  const obs::MetricsSnapshot snap = reg.scrape();
  const auto* row = snap.find_histogram("h");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->count, 4u);
  EXPECT_EQ(row->sum, 11.0);
  EXPECT_EQ(row->mean(), 11.0 / 4.0);
  // Exponential buckets: equal values land together, larger values land in
  // weakly larger buckets.
  EXPECT_EQ(obs::Histogram::bucket_of(4.0), obs::Histogram::bucket_of(4.0));
  EXPECT_LE(obs::Histogram::bucket_of(1.0), obs::Histogram::bucket_of(2.0));
  EXPECT_LE(obs::Histogram::bucket_of(2.0), obs::Histogram::bucket_of(4.0));
  std::uint64_t bucket_total = 0;
  for (const auto& [idx, n] : row->buckets) {
    EXPECT_LT(idx, obs::Histogram::kBuckets);
    bucket_total += n;
  }
  EXPECT_EQ(bucket_total, 4u);
}

TEST(ObsMetricsTest, ResetClearsAndRegistriesAreIndependent) {
  obs::MetricsRegistry a;
  obs::MetricsRegistry b;
  a.counter("n").add(3);
  b.counter("n").add(5);
  EXPECT_EQ(a.scrape().find_counter("n")->value, 3u);
  EXPECT_EQ(b.scrape().find_counter("n")->value, 5u);
  a.reset();
  EXPECT_EQ(a.scrape().find_counter("n")->value, 0u);
  EXPECT_EQ(b.scrape().find_counter("n")->value, 5u);
}

TEST(ObsMetricsTest, ControlCharactersInNamesAreEscaped) {
  // Metric names come from ObjectiveTerm::name(), which may hold any byte.
  // RunJournal embeds to_json() in a one-line record, so a raw newline
  // would split that record in two.
  obs::MetricsRegistry reg;
  reg.counter("a\nb\x01").inc();
  const std::string json = reg.scrape().to_json(0);
  EXPECT_NE(json.find("\"a\\nb\\u0001\""), std::string::npos) << json;
  EXPECT_EQ(json.find('\n'), std::string::npos) << json;
}

// ---- spans -----------------------------------------------------------------

TEST(ObsSpanTest, NestingBuildsParentAndDepthLinks) {
  EnabledGuard guard;
  obs::set_enabled(true);
  std::uint64_t root_id = 0;
  {
    obs::Span root("t/root", obs::Span::Root::New);
    root_id = root.root_id();
    ASSERT_NE(root_id, 0u);
    obs::Span child("t/child");
    { obs::Span grandchild("t/grandchild"); }
  }
  const std::vector<obs::SpanEvent> events =
      obs::SpanCollector::global().take_events_for_root(root_id);
  ASSERT_EQ(events.size(), 3u);
  // Sorted by start time: root opened first.
  EXPECT_EQ(events[0].name, "t/root");
  EXPECT_EQ(events[0].depth, 0u);
  EXPECT_EQ(events[0].parent, 0u);
  EXPECT_EQ(events[1].name, "t/child");
  EXPECT_EQ(events[1].parent, events[0].id);
  EXPECT_EQ(events[1].depth, 1u);
  EXPECT_EQ(events[2].name, "t/grandchild");
  EXPECT_EQ(events[2].parent, events[1].id);
  EXPECT_EQ(events[2].depth, 2u);
  for (const obs::SpanEvent& ev : events) {
    EXPECT_EQ(ev.root, root_id);
    EXPECT_GE(ev.dur_seconds, 0.0);
  }
}

TEST(ObsSpanTest, SpanRecordsWhenUnwoundByException) {
  EnabledGuard guard;
  obs::set_enabled(true);
  std::uint64_t root_id = 0;
  try {
    obs::Span root("t/throwing-root", obs::Span::Root::New);
    root_id = root.root_id();
    obs::Span inner("t/doomed");
    throw std::runtime_error("cancelled mid-stage");
  } catch (const std::runtime_error&) {
  }
  const std::vector<obs::SpanEvent> events =
      obs::SpanCollector::global().take_events_for_root(root_id);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "t/throwing-root");
  EXPECT_EQ(events[1].name, "t/doomed");
  EXPECT_EQ(events[1].parent, events[0].id);
  // The context fully unwound: a fresh span is a root again, not a child
  // of the dead tree.
  obs::Span after("t/after", obs::Span::Root::New);
  EXPECT_EQ(obs::current_context().depth, 0u);
}

TEST(ObsSpanTest, ContextPropagatesAcrossThreadPool) {
  EnabledGuard guard;
  obs::set_enabled(true);
  base::ThreadPool pool(2);
  std::uint64_t root_id = 0;
  {
    obs::Span root("t/submit", obs::Span::Root::New);
    root_id = root.root_id();
    base::ThreadPool::TaskGroup group(pool);
    for (int i = 0; i < 4; ++i) {
      group.run([] { obs::Span task("t/pool-task"); });
    }
    group.wait();
  }
  const std::vector<obs::SpanEvent> events =
      obs::SpanCollector::global().take_events_for_root(root_id);
  ASSERT_EQ(events.size(), 5u);
  std::uint64_t submit_id = 0;
  int tasks = 0;
  for (const obs::SpanEvent& ev : events) {
    if (ev.name == "t/submit") submit_id = ev.id;
  }
  ASSERT_NE(submit_id, 0u);
  for (const obs::SpanEvent& ev : events) {
    if (ev.name != "t/pool-task") continue;
    ++tasks;
    EXPECT_EQ(ev.parent, submit_id) << "pool task not parented to submitter";
    EXPECT_EQ(ev.depth, 1u);
  }
  EXPECT_EQ(tasks, 4);
}

TEST(ObsSpanTest, ChromeTraceJsonShape) {
  EnabledGuard guard;
  obs::set_enabled(true);
  std::uint64_t root_id = 0;
  {
    obs::Span root("t/\"quoted\"", obs::Span::Root::New);
    root_id = root.root_id();
  }
  const std::string json = obs::chrome_trace_json(
      obs::SpanCollector::global().take_events_for_root(root_id));
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("t/\\\"quoted\\\""), std::string::npos);
}

TEST(ObsSpanTest, ChromeTraceJsonEscapesControlCharacters) {
  EnabledGuard guard;
  obs::set_enabled(true);
  std::uint64_t root_id = 0;
  {
    obs::Span root("a\nb\x01", obs::Span::Root::New);
    root_id = root.root_id();
  }
  const std::string json = obs::chrome_trace_json(
      obs::SpanCollector::global().take_events_for_root(root_id));
  EXPECT_NE(json.find("\"a\\nb\\u0001\""), std::string::npos) << json;
}

// ---- kill switch -----------------------------------------------------------

TEST(ObsKillSwitchTest, DisabledRecordsNothingAndReenablingResumes) {
  EnabledGuard guard;
  obs::set_enabled(true);
  obs::MetricsRegistry reg;
  reg.counter("k").inc();

  obs::set_enabled(false);
  reg.counter("k").add(100);
  reg.histogram("kh").record(1.0);
  {
    obs::Span dead("t/disabled", obs::Span::Root::New);
    EXPECT_EQ(dead.root_id(), 0u);
    EXPECT_EQ(obs::current_context().current, 0u);
  }

  obs::set_enabled(true);
  reg.counter("k").inc();
  const obs::MetricsSnapshot snap = reg.scrape();
  EXPECT_EQ(snap.find_counter("k")->value, 2u);
  const auto* kh = snap.find_histogram("kh");
  EXPECT_EQ(kh->count, 0u);
}

}  // namespace
