// aplace_batch — place many circuits in one shot on the shared thread pool.
//
//   aplace_batch [--circuits A,B,C] [--flows eplace-a,prior,sa]
//                [--threads N] [--budget SECONDS] [--seed N]
//                [--sequential] [--fast]
//                [--journal FILE] [--resume] [--retries N] [--backoff S]
//                [--report-out FILE] [--metrics-out FILE] [--trace-out FILE]
//
// Every {circuit x flow} pair becomes one batch job; core::run_batch fans
// them out over the pool under a single shared Deadline and reports a
// FlowResult per job even when some jobs fail. Defaults: all built-in
// paper testcases, the eplace-a flow, hardware thread count, no budget.
//
// Crash-safe serving: --journal records every job (and its legalized
// placement) to an append-only JSONL journal; re-running with --resume
// restores completed jobs bit-identically instead of re-placing them, so a
// SIGKILLed batch finishes where it left off. SIGINT requests cooperative
// cancellation — in-flight jobs stop at their next watchdog poll and are
// re-run on resume. --retries N re-attempts Diverged/Internal jobs with
// deterministically split seeds and exponential backoff (--backoff seconds),
// then quarantines them. --report-out writes a timing-free result digest
// per job, byte-comparable across interrupted and uninterrupted runs.
//
// Observability: --metrics-out writes the merged process-wide metrics
// registry (counters/gauges/histograms) as JSON; --trace-out writes every
// span the batch produced (job lifecycles plus each flow's stage tree) as a
// Chrome trace_event file for chrome://tracing / Perfetto. Both are empty
// shells when the observability layer is disabled (APLACE_OBS=0).

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/fnv.hpp"
#include "base/thread_pool.hpp"
#include "circuits/testcases.hpp"
#include "core/batch.hpp"
#include "core/journal.hpp"
#include "io/netlist_io.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace {

using namespace aplace;

// SIGINT handler target, live for the whole process so a SIGINT during
// start-up is not lost either. CancelToken::request_cancel is a relaxed
// atomic store, safe from a signal handler.
const base::CancelToken g_cancel = base::CancelToken::make_cancellable();

extern "C" void handle_sigint(int) { g_cancel.request_cancel(); }

int usage() {
  std::fprintf(stderr,
               "usage: aplace_batch [--circuits A,B,...] "
               "[--flows eplace-a,prior,sa]\n"
               "                    [--threads N] [--budget SECONDS] "
               "[--seed N]\n"
               "                    [--sequential] [--fast]\n"
               "                    [--journal FILE] [--resume] [--retries N]\n"
               "                    [--backoff SECONDS] [--report-out FILE]\n"
               "                    [--metrics-out FILE] [--trace-out FILE]\n"
               "Circuits are built-in testcase names or .acirc files.\n");
  return 2;
}

std::vector<std::string> split_list(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    const std::size_t end = comma == std::string::npos ? s.size() : comma;
    if (end > start) out.push_back(s.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

bool is_builtin(const std::string& ref) {
  for (const std::string& n : circuits::testcase_names()) {
    if (n == ref) return true;
  }
  return false;
}

/// Timing-free per-job digest: everything that must be bit-identical
/// between an uninterrupted run and a killed-and-resumed one. The placement
/// is folded in through the exact-double serializer, so one changed bit in
/// any coordinate changes the digest.
int write_report(const std::string& path, const core::BatchReport& report) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write report to '%s'\n", path.c_str());
    return 1;
  }
  for (const core::BatchItem& item : report.items) {
    const core::FlowResult& r = item.result;
    const std::uint64_t digest =
        base::fnv1a64(io::placement_to_text(r.placement));
    std::fprintf(f, "%s status=%s quarantined=%d attempts=%d legal=%d "
                    "area=%.17g hpwl=%.17g placement=%016llx\n",
                 item.label.c_str(), to_string(r.status.code()),
                 item.quarantined ? 1 : 0, item.attempts, r.legal() ? 1 : 0,
                 r.area(), r.hpwl(),
                 static_cast<unsigned long long>(digest));
  }
  std::fclose(f);
  return 0;
}

/// Write a whole string to `path`; warns (and returns 1) on failure so the
/// batch result itself is never lost to an unwritable telemetry file.
int write_text(const std::string& path, const std::string& text,
               const char* what) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s to '%s'\n", what,
                 path.c_str());
    return 1;
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGINT, handle_sigint);
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return usage();
    key = key.substr(2);
    if (key == "sequential" || key == "fast" || key == "resume") {
      flags[key] = "1";
    } else if (i + 1 < argc) {
      flags[key] = argv[++i];
    } else {
      return usage();
    }
  }

  try {
    std::vector<std::string> names =
        flags.contains("circuits") ? split_list(flags.at("circuits"))
                                   : circuits::testcase_names();
    const std::vector<std::string> flow_names =
        flags.contains("flows") ? split_list(flags.at("flows"))
                                : std::vector<std::string>{"eplace-a"};
    const bool fast = flags.contains("fast");
    const std::uint64_t seed =
        flags.contains("seed") ? std::stoull(flags.at("seed")) : 3;

    if (flags.contains("threads")) {
      base::ThreadPool::set_global_threads(
          static_cast<unsigned>(std::stoul(flags.at("threads"))));
    }

    // Loaded circuits must outlive run_batch; BatchJob holds pointers.
    std::vector<std::unique_ptr<netlist::Circuit>> circuits;
    std::vector<core::BatchJob> jobs;
    for (const std::string& ref : names) {
      if (is_builtin(ref)) {
        circuits.push_back(std::make_unique<netlist::Circuit>(
            circuits::make_testcase(ref).circuit));
      } else {
        Result<netlist::Circuit> loaded = io::read_circuit(ref);
        if (!loaded.ok()) {
          std::fprintf(stderr, "error: %s\n",
                       loaded.status().to_string().c_str());
          return 1;
        }
        circuits.push_back(std::make_unique<netlist::Circuit>(
            std::move(loaded.value())));
      }
      for (const std::string& f : flow_names) {
        core::BatchJob j;
        j.circuit = circuits.back().get();
        j.label = circuits.back()->name() + "/" + f;
        if (f == "eplace-a") {
          j.flow = core::FlowKind::EPlaceA;
          j.eplace.gp.seed = seed;
          if (fast) {
            j.eplace.candidates = 1;
            j.eplace.gp.num_starts = 1;
          }
        } else if (f == "prior") {
          j.flow = core::FlowKind::PriorWork;
          j.prior.gp.seed = seed;
        } else if (f == "sa") {
          j.flow = core::FlowKind::Sa;
          j.sa.sa.seed = seed;
          if (fast) j.sa.sa.max_moves = 20000;
        } else {
          std::fprintf(stderr, "unknown flow '%s'\n", f.c_str());
          return usage();
        }
        jobs.push_back(std::move(j));
      }
    }
    if (jobs.empty()) return usage();

    core::BatchOptions opts;
    if (flags.contains("budget")) {
      opts.time_budget_seconds = std::stod(flags.at("budget"));
    }
    opts.parallel = !flags.contains("sequential");
    if (flags.contains("journal")) opts.journal_path = flags.at("journal");
    opts.resume_journal = flags.contains("resume");
    if (flags.contains("retries")) {
      opts.retry.max_attempts = static_cast<int>(std::stol(flags.at("retries")));
    }
    if (flags.contains("backoff")) {
      opts.retry.backoff_seconds = std::stod(flags.at("backoff"));
    }

    opts.cancel = g_cancel;
    const core::BatchReport report = core::run_batch(jobs, opts);
    std::signal(SIGINT, SIG_DFL);

    if (!report.journal_status.ok()) {
      std::fprintf(stderr, "warning: journaling disabled: %s\n",
                   report.journal_status.to_string().c_str());
    }

    std::printf("%-22s %10s %10s %7s %8s %4s %s\n", "job", "area", "hpwl",
                "legal", "time(s)", "try", "status");
    std::map<StatusCode, std::size_t> by_status;
    for (const core::BatchItem& item : report.items) {
      const core::FlowResult& r = item.result;
      ++by_status[r.status.code()];
      std::printf("%-22s %10.1f %10.1f %7s %8.2f %4d %s%s%s%s\n",
                  item.label.c_str(), r.area(), r.hpwl(),
                  r.legal() ? "yes" : "NO", item.wall_seconds, item.attempts,
                  r.ok() ? "ok" : to_string(r.status.code()),
                  item.resumed ? " (resumed)" : "",
                  item.quarantined ? " (quarantined)" : "",
                  r.deadline_hit ? " (deadline)" : "");
    }
    std::printf("\n%zu jobs, %zu ok, %zu failed", report.items.size(),
                report.num_ok, report.num_failed());
    if (report.num_resumed > 0) {
      std::printf(" (%zu resumed)", report.num_resumed);
    }
    if (report.num_quarantined > 0) {
      std::printf(" (%zu quarantined)", report.num_quarantined);
    }
    std::printf("; %u threads, %.2f s wall\n",
                base::ThreadPool::global().num_threads(), report.wall_seconds);
    for (const auto& [code, count] : by_status) {
      std::printf("  %-16s %zu\n", to_string(code), count);
    }

    if (flags.contains("report-out")) {
      if (int rc = write_report(flags.at("report-out"), report); rc != 0) {
        return rc;
      }
    }
    if (flags.contains("metrics-out")) {
      const std::string json = obs::MetricsRegistry::global().scrape().to_json(2);
      if (int rc = write_text(flags.at("metrics-out"), json, "metrics");
          rc != 0) {
        return rc;
      }
    }
    if (flags.contains("trace-out")) {
      // Everything the batch produced: job-lifecycle spans still in the
      // collector plus each flow's stage tree (extracted into its
      // FlowResult at the flow boundary).
      std::vector<obs::SpanEvent> events = obs::SpanCollector::global().drain();
      for (const core::BatchItem& item : report.items) {
        events.insert(events.end(), item.result.spans.begin(),
                      item.result.spans.end());
      }
      std::sort(events.begin(), events.end(),
                [](const obs::SpanEvent& a, const obs::SpanEvent& b) {
                  return a.start_seconds < b.start_seconds;
                });
      if (int rc = write_text(flags.at("trace-out"),
                              obs::chrome_trace_json(events), "trace");
          rc != 0) {
        return rc;
      }
    }
    return report.num_failed() == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
