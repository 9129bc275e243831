#pragma once
// Shared plumbing for the table/figure reproduction harnesses.
//
// Every bench binary regenerates one table or figure from the paper: it
// runs the relevant flows with the protocol options below, prints the
// measured rows next to the paper's reference values, and summarizes the
// geometric-mean ratios the paper reports.
//
// Environment:
//   APLACE_QUICK=1   shrink budgets (smoke-test mode; numbers not
//                    publication-grade but every code path still runs).

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cmath>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "base/json.hpp"
#include "base/thread_pool.hpp"
#include "circuits/testcases.hpp"
#include "core/flow.hpp"
#include "core/perf_flow.hpp"
#include "gp/objective.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace aplace::bench {

inline bool quick_mode() {
  const char* q = std::getenv("APLACE_QUICK");
  return q != nullptr && q[0] != '\0' && q[0] != '0';
}

/// SA options matching the paper's "practical runtime limit" protocol:
/// seconds-to-tens-of-seconds per circuit, well past its convergence knee.
inline sa::SaOptions paper_sa_options() {
  sa::SaOptions o;
  if (quick_mode()) {
    o.max_moves = 20000;
  } else {
    o.cooling = 0.9985;
    o.moves_per_temp_per_block = 150;
  }
  return o;
}

/// SA options for the performance-driven variant ([19]): every move
/// evaluates the GNN, so the schedule is shorter (as in the paper, where
/// perf-driven SA runs ~3x the analytical runtime, not ~50x).
inline sa::SaOptions paper_sa_perf_options() {
  sa::SaOptions o;
  if (quick_mode()) {
    o.max_moves = 6000;
  } else {
    o.cooling = 0.995;
    o.moves_per_temp_per_block = 60;
  }
  return o;
}

inline core::EPlaceAOptions paper_eplace_options() {
  core::EPlaceAOptions o;
  if (quick_mode()) {
    o.candidates = 1;
    o.gp.num_starts = 1;
  }
  return o;
}

inline core::PriorWorkOptions paper_prior_options() { return {}; }

inline core::DatasetOptions paper_dataset_options() {
  core::DatasetOptions d;
  if (quick_mode()) {
    d.random_samples = 120;
    d.optimized_samples = 4;
    d.analytic_samples = 16;
    d.sa_moves_per_sample = 500;
  } else {
    d.random_samples = 820;   // "over 1000 training samples" in total
    d.optimized_samples = 120;
    d.analytic_samples = 80;
    d.sa_moves_per_sample = 2500;
  }
  return d;
}

inline gnn::TrainOptions paper_train_options() {
  gnn::TrainOptions t;
  t.epochs = quick_mode() ? 120 : 400;
  t.lr = 1e-2;
  return t;
}

// ---- formatting -------------------------------------------------------------

inline void header(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

/// Human-readable per-term objective breakdown of one analytical GP run
/// (from the TermTrace the flows thread through FlowResult::gp_trace).
inline void print_term_trace(const std::string& label,
                             const gp::TermTrace& trace) {
  if (trace.empty()) {
    std::printf("%s: no per-term trace recorded\n", label.c_str());
    return;
  }
  std::printf("---- %s: per-term objective breakdown ----\n", label.c_str());
  std::printf("%-16s %-10s %8s %12s %8s %14s %12s\n", "term", "cost", "evals",
              "seconds", "time%", "last value", "last weight");
  const double total = trace.total_seconds();
  for (const auto& t : trace.terms) {
    std::printf("%-16s %-10s %8llu %12.6f %7.1f%% %14.5g %12.5g\n",
                t.name.c_str(), gp::to_string(t.cost),
                static_cast<unsigned long long>(t.evals), t.seconds,
                total > 0 ? 100.0 * t.seconds / total : 0.0, t.value,
                t.weight);
  }
  std::printf("%-16s %-10s %8s %12.6f %7.1f%%  (%zu samples, stride %d)\n",
              "total", "", "", total, 100.0, trace.samples.size(),
              trace.sample_stride);
}

/// Geometric mean of ratios a_i / b_i.
inline double geomean_ratio(const std::vector<double>& a,
                            const std::vector<double>& b) {
  double s = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    s += std::log(std::max(a[i], 1e-12) / std::max(b[i], 1e-12));
  }
  return std::exp(s / static_cast<double>(a.size()));
}

// ---- machine-readable output ------------------------------------------------
// Next to the human-readable tables, every bench binary records its runs in
// a JsonReport and writes BENCH_<name>.json ($APLACE_BENCH_JSON_DIR when
// set, else the working directory). The CI quick-bench job uploads these
// files and gates on them via scripts/check_bench_regression.py, so the
// schema below ("aplace-bench-v1") is a contract: one record per flow run
// with wall time, quality, legality, fallback level, plus the thread count
// and seed the run used.

class JsonReport {
 public:
  explicit JsonReport(std::string bench) : bench_(std::move(bench)) {}

  /// Record one placement-flow run. SA flows carry a nonzero moves/sec
  /// throughput, emitted as an extra "moves_per_sec" key (rate-gated by the
  /// regression checker; 0 = not an SA run, key omitted).
  void add_flow(const std::string& circuit, const std::string& flow,
                std::uint64_t seed, const core::FlowResult& r) {
    runs_.push_back(Run{circuit, flow, seed, r.total_seconds, r.hpwl(),
                        r.area(), r.legal(), core::to_string(r.fallback),
                        r.ok(), r.sa_moves_per_second});
    add_spans(circuit, flow, r.spans);
  }

  /// Record one flow's span tree; emitted as a per-stage rollup under the
  /// additive top-level "spans" key, and as a full Chrome trace file when
  /// APLACE_TRACE_DIR is set. add_flow calls this automatically.
  void add_spans(const std::string& circuit, const std::string& flow,
                 const std::vector<obs::SpanEvent>& spans) {
    if (spans.empty()) return;
    span_rows_.push_back(SpanRow{circuit, flow, spans});
  }

  /// Record a raw row (legalizer-only comparisons, perf-driven flows, ...).
  void add_run(const std::string& circuit, const std::string& flow,
               std::uint64_t seed, double wall_seconds, double hpwl,
               double area, bool legal) {
    runs_.push_back(
        Run{circuit, flow, seed, wall_seconds, hpwl, area, legal, "none",
            legal, 0.0});
  }

  /// Record an SA kernel row: quality plus a moves/sec throughput rate.
  void add_sa_run(const std::string& circuit, const std::string& flow,
                  std::uint64_t seed, double wall_seconds, double hpwl,
                  double area, bool legal, double moves_per_sec) {
    runs_.push_back(Run{circuit, flow, seed, wall_seconds, hpwl, area, legal,
                        "none", legal, moves_per_sec});
  }

  /// Record a raw timed row (micro-kernels, batch wall times, ...).
  void add_timing(const std::string& circuit, const std::string& what,
                  double wall_seconds) {
    runs_.push_back(Run{circuit, what, 0, wall_seconds, 0.0, 0.0, true,
                        "none", true, 0.0});
  }

  /// Scalar summary metric (speedups, geomean ratios, ...). Informational:
  /// the regression gate only checks per-run rows.
  void add_metric(const std::string& name, double value) {
    metrics_.emplace_back(name, value);
  }

  /// Record the per-term objective trace of one analytical GP run; emitted
  /// under the additive top-level "term_traces" key (the regression gate
  /// only reads "runs", so this is observability-only).
  void add_term_trace(const std::string& circuit, const std::string& flow,
                      const gp::TermTrace& trace) {
    if (trace.empty()) return;
    traces_.push_back(TraceRow{circuit, flow, trace});
  }

  /// Write BENCH_<bench>.json. Returns false (with a warning on stderr)
  /// when the file cannot be written; benches still exit 0 in that case.
  bool write() const {
    std::string dir;
    if (const char* d = std::getenv("APLACE_BENCH_JSON_DIR");
        d != nullptr && d[0] != '\0') {
      dir = std::string(d) + "/";
    }
    const std::string path = dir + "BENCH_" + bench_ + ".json";
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return false;
    }
    // `threads` is the pool's *resolved* size (what actually ran);
    // `threads_requested` is the pre-clamp constructor argument. They
    // differ when e.g. APLACE_THREADS=0 resolves to 1.
    out << "{\n"
        << "  \"schema\": \"aplace-bench-v1\",\n"
        << "  \"bench\": \"" << escaped(bench_) << "\",\n"
        << "  \"threads\": " << base::ThreadPool::global().num_threads()
        << ",\n"
        << "  \"threads_requested\": "
        << base::ThreadPool::global().requested_threads() << ",\n"
        << "  \"quick\": " << (quick_mode() ? "true" : "false") << ",\n"
        << "  \"runs\": [";
    for (std::size_t i = 0; i < runs_.size(); ++i) {
      const Run& r = runs_[i];
      out << (i ? ",\n    " : "\n    ") << "{\"circuit\": \""
          << escaped(r.circuit) << "\", \"flow\": \"" << escaped(r.flow)
          << "\", \"seed\": " << r.seed << ", \"wall_seconds\": "
          << fmt(r.wall_seconds) << ", \"hpwl\": " << fmt(r.hpwl)
          << ", \"area\": " << fmt(r.area) << ", \"legal\": "
          << (r.legal ? "true" : "false") << ", \"fallback\": \""
          << escaped(r.fallback) << "\", \"ok\": " << (r.ok ? "true" : "false");
      if (r.moves_per_sec > 0) {
        out << ", \"moves_per_sec\": " << fmt(r.moves_per_sec);
      }
      out << "}";
    }
    out << "\n  ],\n  \"term_traces\": [";
    for (std::size_t i = 0; i < traces_.size(); ++i) {
      const TraceRow& tr = traces_[i];
      out << (i ? ",\n    " : "\n    ") << "{\"circuit\": \""
          << escaped(tr.circuit) << "\", \"flow\": \"" << escaped(tr.flow)
          << "\", \"samples\": " << tr.trace.samples.size()
          << ", \"sample_stride\": " << tr.trace.sample_stride
          << ", \"terms\": [";
      for (std::size_t j = 0; j < tr.trace.terms.size(); ++j) {
        const gp::TermStats& t = tr.trace.terms[j];
        out << (j ? ", " : "") << "{\"name\": \"" << escaped(t.name)
            << "\", \"cost\": \"" << gp::to_string(t.cost)
            << "\", \"evals\": " << t.evals << ", \"seconds\": "
            << fmt(t.seconds) << ", \"value\": " << fmt(t.value)
            << ", \"grad_norm\": " << fmt(t.grad_norm) << ", \"weight\": "
            << fmt(t.weight) << "}";
      }
      out << "]}";
    }
    out << "\n  ],\n  \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      out << (i ? ",\n    " : "\n    ") << "\"" << escaped(metrics_[i].first)
          << "\": " << fmt(metrics_[i].second);
    }
    out << "\n  },";

    // Per-flow stage rollups (additive key; the regression gate only reads
    // "runs"). One entry per recorded flow: spans aggregated by name in
    // first-seen order, so readers get a compact stage-time breakdown.
    out << "\n  \"spans\": [";
    for (std::size_t i = 0; i < span_rows_.size(); ++i) {
      const SpanRow& sr = span_rows_[i];
      std::vector<std::pair<std::string, std::pair<std::uint64_t, double>>>
          rollup;
      for (const obs::SpanEvent& ev : sr.events) {
        auto it = rollup.begin();
        for (; it != rollup.end(); ++it) {
          if (it->first == ev.name) break;
        }
        if (it == rollup.end()) {
          rollup.emplace_back(ev.name, std::make_pair(std::uint64_t{0}, 0.0));
          it = rollup.end() - 1;
        }
        it->second.first += 1;
        it->second.second += ev.dur_seconds;
      }
      out << (i ? ",\n    " : "\n    ") << "{\"circuit\": \""
          << escaped(sr.circuit) << "\", \"flow\": \"" << escaped(sr.flow)
          << "\", \"stages\": [";
      for (std::size_t j = 0; j < rollup.size(); ++j) {
        out << (j ? ", " : "") << "{\"name\": \"" << escaped(rollup[j].first)
            << "\", \"count\": " << rollup[j].second.first
            << ", \"seconds\": " << fmt(rollup[j].second.second) << "}";
      }
      out << "]}";
    }
    out << "\n  ],";

    // Merged registry snapshot (additive key): empty object when
    // observability is disabled.
    out << "\n  \"observability\": ";
    if (obs::enabled()) {
      out << indented(obs::MetricsRegistry::global().scrape().to_json(2));
    } else {
      out << "{}";
    }
    out << "\n}\n";

    write_trace_files();
    return static_cast<bool>(out);
  }

 private:
  struct Run {
    std::string circuit;
    std::string flow;
    std::uint64_t seed;
    double wall_seconds;
    double hpwl;
    double area;
    bool legal;
    std::string fallback;
    bool ok;
    double moves_per_sec;  ///< SA throughput; 0 = not an SA row (omitted)
  };

  struct TraceRow {
    std::string circuit;
    std::string flow;
    gp::TermTrace trace;
  };

  struct SpanRow {
    std::string circuit;
    std::string flow;
    std::vector<obs::SpanEvent> events;
  };

  /// Re-indent an embedded pretty-printed JSON value by one report level
  /// (two spaces after every newline) so it nests cleanly in the output.
  static std::string indented(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      out.push_back(c);
      if (c == '\n') out += "  ";
    }
    return out;
  }

  /// When APLACE_TRACE_DIR is set, write one Chrome trace_event file per
  /// recorded flow (TRACE_<bench>_<circuit>_<flow>.json) for loading into
  /// chrome://tracing or Perfetto. Best effort: failures warn, never fail
  /// the bench.
  void write_trace_files() const {
    const char* d = std::getenv("APLACE_TRACE_DIR");
    if (d == nullptr || d[0] == '\0' || span_rows_.empty()) return;
    for (const SpanRow& sr : span_rows_) {
      std::string name = bench_ + "_" + sr.circuit + "_" + sr.flow;
      for (char& c : name) {
        if (!(std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '-' ||
              c == '_')) {
          c = '_';
        }
      }
      const std::string path = std::string(d) + "/TRACE_" + name + ".json";
      std::ofstream out(path);
      if (!out) {
        std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
        continue;
      }
      out << obs::chrome_trace_json(sr.events) << "\n";
    }
  }

  static std::string escaped(const std::string& s) {
    std::string out;
    base::append_json_escaped(out, s);
    return out;
  }

  static std::string fmt(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
  }

  std::string bench_;
  std::vector<Run> runs_;
  std::vector<TraceRow> traces_;
  std::vector<SpanRow> span_rows_;
  std::vector<std::pair<std::string, double>> metrics_;
};

}  // namespace aplace::bench
