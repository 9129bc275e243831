#include "core/batch.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <thread>
#include <utility>

#include "base/thread_pool.hpp"
#include "core/journal.hpp"
#include "numeric/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace aplace::core {
namespace {

/// Run the job's flow. Attempt 0 uses the job's own seeds (bit-compatible
/// with a retry-free configuration); attempt k > 0 splits every seed
/// deterministically so retries explore a different random stream without
/// introducing wall-clock or thread-count dependence.
FlowResult dispatch(const BatchJob& job, const Deadline& deadline, int attempt,
                    const std::shared_ptr<CompileCache>& compile_cache) {
  const auto reseed = [attempt](std::uint64_t seed) {
    return attempt == 0
               ? seed
               : numeric::split_seed(seed, static_cast<std::uint64_t>(attempt));
  };
  switch (job.flow) {
    case FlowKind::EPlaceA: {
      EPlaceAOptions o = job.eplace;
      o.deadline = deadline;
      o.compile_cache = compile_cache;
      o.gp.seed = reseed(o.gp.seed);
      return run_eplace_a(*job.circuit, std::move(o));
    }
    case FlowKind::PriorWork: {
      PriorWorkOptions o = job.prior;
      o.deadline = deadline;
      o.compile_cache = compile_cache;
      o.gp.seed = reseed(o.gp.seed);
      return run_prior_work(*job.circuit, std::move(o));
    }
    case FlowKind::Sa: {
      SaFlowOptions o = job.sa;
      o.deadline = deadline;
      o.compile_cache = compile_cache;
      o.sa.seed = reseed(o.sa.seed);
      return run_sa(*job.circuit, std::move(o));
    }
  }
  return run_eplace_a(*job.circuit, job.eplace);  // unreachable
}

bool retryable(StatusCode code) {
  return code == StatusCode::Diverged || code == StatusCode::Internal;
}

constexpr double kBackoffGrowth = 2.0;  ///< wait multiplier per further attempt
constexpr double kMaxBackoffSeconds = 30.0;

/// Exponential backoff before attempt `next_attempt` (1-based beyond the
/// first try), slept in small slices so the batch deadline (budget or
/// cancel) cuts the wait short.
void backoff_wait(const RetryPolicy& policy, int next_attempt,
                  const Deadline& deadline) {
  double wait = policy.backoff_seconds;
  for (int k = 1; k < next_attempt; ++k) wait *= kBackoffGrowth;
  wait = std::min(wait, kMaxBackoffSeconds);
  if (wait <= 0) return;
  const double t0 = obs::now_seconds();
  while (obs::now_seconds() - t0 < wait) {
    if (deadline.expired()) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

std::string job_label(const BatchJob& job) {
  return job.label.empty() ? job.circuit->name() + "/" + to_string(job.flow)
                           : job.label;
}

/// Rebuild a BatchItem from a terminal journal entry. Fails (nullopt) when
/// the recorded snapshot is missing or torn — the caller re-runs the job.
std::optional<BatchItem> restore_item(const JournalEntry& entry,
                                      const BatchJob& job, std::size_t index,
                                      const std::string& label,
                                      const std::string& journal_path) {
  FlowResult r{.placement = netlist::Placement(*job.circuit)};
  if (!entry.snapshot.empty()) {
    Result<netlist::Placement> snap =
        RunJournal::load_snapshot(journal_path, entry, *job.circuit);
    if (!snap.ok()) return std::nullopt;
    r.placement = std::move(snap.value());
  }
  Status st(entry.code, entry.message);
  for (const std::string& note : entry.trail) st.add_context(note);
  r.status = std::move(st);
  r.fallback = static_cast<FallbackLevel>(std::clamp(
      entry.fallback, 0, static_cast<int>(FallbackLevel::GreedyShift)));
  r.gp_diverged = entry.gp_diverged;
  r.deadline_hit = entry.deadline_hit;
  r.gp_seconds = entry.gp_seconds;
  r.dp_seconds = entry.dp_seconds;
  r.total_seconds = entry.total_seconds;
  r.sa_moves_per_second = entry.sa_moves_per_second;
  r.sa_net_eval_ratio = entry.sa_net_eval_ratio;
  r.quality = entry.quality;

  BatchItem item{index,
                 label,
                 job.flow,
                 std::move(r),
                 entry.wall_seconds,
                 entry.attempts,
                 /*resumed=*/true,
                 entry.quarantined};
  return item;
}

}  // namespace

std::string batch_job_key(const BatchJob& job) {
  return job_label(job) + "|" + to_string(job.flow) + "|" +
         job.circuit->name() + "|" + std::to_string(job.circuit->num_devices());
}

BatchReport run_batch(std::span<const BatchJob> jobs,
                      const BatchOptions& opts) {
  for (const BatchJob& job : jobs) {
    APLACE_CHECK_MSG(job.circuit != nullptr, "batch job without a circuit");
  }
  // The one stop handle every job polls: the batch budget plus the batch
  // cancel token.
  const Deadline deadline =
      (opts.time_budget_seconds > 0
           ? Deadline::after_seconds(opts.time_budget_seconds)
           : Deadline{})
          .with_cancel(opts.cancel);

  // Journal plumbing: an unopenable journal is reported, not fatal — the
  // batch still runs, just without crash safety.
  RunJournal journal;
  Status journal_status;
  std::map<std::string, JournalEntry> completed;
  if (!opts.journal_path.empty()) {
    if (opts.resume_journal) {
      completed = RunJournal::load_completed(opts.journal_path);
    }
    Result<RunJournal> opened = RunJournal::open(opts.journal_path);
    if (opened.ok()) {
      journal = std::move(opened.value());
    } else {
      journal_status = opened.status();
    }
  }

  std::vector<std::string> keys(jobs.size());
  std::size_t planned_resumes = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    keys[i] = batch_job_key(jobs[i]);
    planned_resumes += completed.contains(keys[i]) ? 1 : 0;
  }
  journal.record_batch_start(jobs.size(), planned_resumes);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    journal.record_submit(keys[i], i);
  }

  const double batch_t0 = obs::now_seconds();
  obs::counter("batch/jobs").add(jobs.size());
  // One compiled-snapshot cache for the whole batch: the circuit x flow
  // matrix compiles each circuit once, not once per job. Scoped here (not
  // globally) because snapshots borrow the caller's circuits — see
  // core/compile_cache.hpp.
  const auto compile_cache = std::make_shared<CompileCache>();
  std::vector<std::optional<BatchItem>> slots(jobs.size());
  auto run_job = [&](std::size_t i) {
    obs::Span job_span("batch/job");
    const BatchJob& job = jobs[i];
    const std::string& key = keys[i];
    std::string label = job_label(job);

    if (const auto done = completed.find(key); done != completed.end()) {
      // A terminal record only stands for *this* circuit revision: when the
      // recorded circuit digest disagrees with the submitted circuit (the
      // netlist changed between runs but kept its name and device count),
      // the record is stale and the job re-runs. Records from journals that
      // predate digest stamping (0 = unknown) restore as before.
      const bool drifted = done->second.circuit_digest != 0 &&
                           done->second.circuit_digest != job.circuit->digest();
      if (drifted) {
        obs::counter("batch/digest_mismatch").inc();
      } else if (std::optional<BatchItem> restored = restore_item(
                     done->second, job, i, label, opts.journal_path)) {
        obs::counter("batch/resumed").inc();
        slots[i] = std::move(*restored);
        return;
      }
      // Torn snapshot or drifted circuit: execute the job for real.
    }

    const double t0 = obs::now_seconds();
    const int max_attempts = std::max(1, opts.retry.max_attempts);
    FlowResult result{.placement = netlist::Placement(*job.circuit)};
    int attempt = 0;
    while (true) {
      journal.record_start(key, attempt);
      result = [&]() -> FlowResult {
        try {
          return dispatch(job, deadline, attempt, compile_cache);
        } catch (const std::exception& e) {
          // The flows convert their own failures to statuses; this catches
          // anything that still escapes (e.g. a CheckError on malformed
          // options) so one bad job cannot take the batch down.
          FlowResult r{.placement = netlist::Placement(*job.circuit)};
          r.status = aplace::Status::internal(
                         std::string("batch job threw: ") + e.what())
                         .add_context("batch job '" + label + "'");
          return r;
        }
      }();
      const StatusCode code = result.status.code();
      if (result.status.ok() || !retryable(code)) break;
      if (attempt + 1 >= max_attempts) break;
      if (deadline.expired()) break;
      journal.record_retry(key, attempt, result.status);
      obs::counter("batch/retries").inc();
      backoff_wait(opts.retry, attempt + 1, deadline);
      if (deadline.expired()) break;
      ++attempt;
    }
    const int attempts = attempt + 1;
    const double wall = obs::now_seconds() - t0;

    const StatusCode code = result.status.code();
    bool quarantined = false;
    // A legal answer that some stage reached only because a cancel cut it
    // short (a skipped candidate, a truncated anneal) stays Ok in the
    // report but is not the job's answer either.
    const bool cut_by_cancel = deadline.cancelled() && result.deadline_hit;
    if (code == StatusCode::Cancelled || code == StatusCode::BudgetExhausted ||
        cut_by_cancel) {
      // Not terminal: a resumed batch runs this job again with a fresh
      // budget instead of replaying the interruption.
      journal.record_interrupted(key, attempts, result.status);
      obs::counter("batch/interrupted").inc();
    } else {
      quarantined = !result.status.ok() && retryable(code) &&
                    max_attempts > 1 && attempts >= max_attempts;
      journal.record_terminal(key, result, attempts, wall, quarantined,
                              job.circuit->digest());
      obs::counter(result.status.ok() ? "batch/done_ok" : "batch/done_failed")
          .inc();
      if (quarantined) obs::counter("batch/quarantined").inc();
    }
    obs::histogram("batch/job_wall_seconds").record(wall);
    slots[i] = BatchItem{i,
                         std::move(label),
                         job.flow,
                         std::move(result),
                         wall,
                         attempts,
                         /*resumed=*/false,
                         quarantined};
  };

  if (opts.parallel && jobs.size() > 1) {
    base::ThreadPool& pool = base::ThreadPool::global();
    base::ThreadPool::TaskGroup group(pool);
    for (std::size_t i = 1; i < jobs.size(); ++i) {
      group.run([&run_job, i] { run_job(i); });
    }
    run_job(0);
    group.wait();
  } else {
    for (std::size_t i = 0; i < jobs.size(); ++i) run_job(i);
  }

  BatchReport report;
  report.journal_status = std::move(journal_status);
  report.items.reserve(jobs.size());
  for (std::optional<BatchItem>& slot : slots) {
    APLACE_CHECK(slot.has_value());
    report.num_ok += slot->result.ok() ? 1 : 0;
    report.num_resumed += slot->resumed ? 1 : 0;
    report.num_quarantined += slot->quarantined ? 1 : 0;
    report.items.push_back(std::move(*slot));
  }
  report.wall_seconds = obs::now_seconds() - batch_t0;
  if (obs::enabled()) {
    // One rollup line per batch so a journal file is self-describing about
    // where its wall-clock went.
    journal.record_metrics(obs::MetricsRegistry::global().scrape());
  }
  return report;
}

}  // namespace aplace::core
