#pragma once
// Batch placement driver: run many {circuit x flow} jobs concurrently on
// the shared thread pool under one wall-clock deadline.
//
// This is the serving-path entry point the ROADMAP asks for: a caller with
// a queue of placement requests (different circuits, different flows,
// different option sets) submits them all at once; the driver fans them out
// as pool tasks, every job honors the one shared Deadline, and a
// FlowResult is collected for every job even when individual jobs fail
// (the flows never crash — PR 2's contract — and any escaped exception is
// converted to an Internal status here as a second line of defense).
//
// Crash-safe serving additions:
//  * journal_path / resume_journal — every job's lifecycle and final result
//    (with its legalized placement snapshot) goes to a core::RunJournal; a
//    re-launched batch pointed at the same journal restores completed jobs
//    bit-identically instead of re-running them.
//  * retry — jobs that end Diverged/Internal are re-attempted with a
//    deterministically split seed and exponential backoff, then quarantined
//    (terminal attempts_exhausted record) once the attempts run out.
//  * cancel — a cooperative base::CancelToken threaded into every solver
//    watchdog site; in-flight jobs stop at their next poll, finished Ok
//    results are kept, and interrupted jobs re-run on resume.
//
// Jobs may freely nest onto the same pool: a job's candidate fan-out and
// hot-loop parallel_for calls help-run on the waiting threads, so a batch
// of few big jobs and a batch of many small jobs both saturate the pool.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "base/cancel.hpp"
#include "core/flow.hpp"

namespace aplace::core {

enum class FlowKind : std::uint8_t { EPlaceA, PriorWork, Sa };

inline const char* to_string(FlowKind f) {
  switch (f) {
    case FlowKind::EPlaceA: return "eplace-a";
    case FlowKind::PriorWork: return "prior-work";
    case FlowKind::Sa: return "sa";
  }
  return "?";
}

/// One unit of batch work. Only the options matching `flow` are used. The
/// circuit must stay alive until run_batch returns.
struct BatchJob {
  const netlist::Circuit* circuit = nullptr;
  FlowKind flow = FlowKind::EPlaceA;
  EPlaceAOptions eplace{};
  PriorWorkOptions prior{};
  SaFlowOptions sa{};
  std::string label;  ///< defaults to "<circuit>/<flow>" when empty
};

struct BatchItem {
  std::size_t index = 0;  ///< position in the submitted job list
  std::string label;
  FlowKind flow = FlowKind::EPlaceA;
  FlowResult result;
  double wall_seconds = 0;  ///< this job's own wall time
  int attempts = 1;         ///< flow executions this item consumed
  bool resumed = false;     ///< restored from the journal, not re-run
  bool quarantined = false; ///< every attempt failed retryably; terminal
};

/// Bounded retry for jobs whose failure is plausibly transient
/// (Diverged / Internal). Attempt 0 runs with the job's own seeds, so a
/// policy with max_attempts 1 is bit-identical to no policy; attempt k > 0
/// re-derives every seed via numeric::split_seed(seed, k), keeping retries
/// deterministic. After max_attempts failures the job is quarantined.
/// The wait doubles per further attempt, up to 30 s.
struct RetryPolicy {
  int max_attempts = 1;          ///< total attempts per job; min 1
  double backoff_seconds = 0.0;  ///< wait before the second attempt
};

struct BatchOptions {
  /// Shared wall-clock budget for the *whole batch*; 0 = unlimited. Every
  /// job sees the same Deadline, so a batch near its budget degrades jobs
  /// (cheaper fallbacks) instead of overrunning.
  double time_budget_seconds = 0;
  /// false: run the jobs one after another on the calling thread (useful
  /// as a speedup baseline and for debugging). Job *results* are identical
  /// either way when no deadline is set.
  bool parallel = true;
  /// Cooperative batch-wide cancellation (e.g. wired to SIGINT by the CLI).
  /// Jobs that already finished Ok keep their results; everything else
  /// comes back Cancelled and is re-run on a journal resume.
  base::CancelToken cancel;
  /// Retry-with-backoff for Diverged/Internal jobs; default = one attempt.
  RetryPolicy retry;
  /// Journal file to record this run into; empty = no journaling. Backoff
  /// sleeps, snapshots and fsyncs happen only when this is set.
  std::string journal_path;
  /// Restore jobs already completed in `journal_path` (matched by
  /// label|flow|circuit|device-count) instead of re-running them; restored
  /// FlowResults are bit-identical to the recorded ones.
  bool resume_journal = false;
};

struct BatchReport {
  std::vector<BatchItem> items;  ///< in job order, one per submitted job
  double wall_seconds = 0;       ///< whole-batch wall time
  std::size_t num_ok = 0;        ///< jobs whose FlowResult status is Ok
  std::size_t num_resumed = 0;      ///< restored from the journal
  std::size_t num_quarantined = 0;  ///< terminally retried-out
  /// Non-ok when journaling was requested but the journal could not be
  /// opened; the batch still ran (without journaling) so callers can decide
  /// whether that is fatal.
  Status journal_status{};

  [[nodiscard]] std::size_t num_failed() const {
    return items.size() - num_ok;
  }
};

/// Stable identity of a job across batch invocations — what the journal
/// matches resumed jobs by.
[[nodiscard]] std::string batch_job_key(const BatchJob& job);

/// Run every job and collect every result. Jobs with a null circuit are
/// rejected up front (CheckError) — everything else, including solver
/// failures, expired budgets and cancellation, comes back as a structured
/// FlowResult.
[[nodiscard]] BatchReport run_batch(std::span<const BatchJob> jobs,
                                    const BatchOptions& opts = {});

}  // namespace aplace::core
