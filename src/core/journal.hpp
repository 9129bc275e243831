#pragma once
// Crash-consistent run journal for the batch driver.
//
// The journal is an append-only JSONL file: one self-contained JSON object
// per line, flushed (and fsync'd where the platform allows) before the write
// is considered done. A run that is SIGKILLed mid-record leaves at most one
// truncated final line, which the loader ignores — every fully written
// record survives. Placement snapshots are .aplc sidecar files in
// `<journal>.snapshots/`, each written to a temp file and atomically
// renamed into place, with an FNV-1a64 digest of the exact bytes recorded
// in the journal so a torn snapshot is detected and the job re-run.
//
// Record types (field `type`):
//   batch_start        a run_batch invocation began (jobs, resumed counts)
//   submit             one job entered the batch, with its stable key
//   start              an attempt at a job began
//   retry              an attempt failed with a retryable status; another
//                      attempt follows after backoff
//   interrupted        the job ended Cancelled/BudgetExhausted — NOT
//                      terminal, a resumed run executes it again
//   done               terminal: the job finished (Ok or a deterministic
//                      failure); carries the full FlowResult payload
//   attempts_exhausted terminal: every attempt failed with a retryable
//                      status — the job is quarantined and a resumed run
//                      skips it instead of burning its budget again
//
// Jobs are matched across runs by a caller-chosen stable key (the batch
// driver uses "label|flow|circuit|ndev"). Doubles are serialized with
// std::to_chars and parsed with std::from_chars, so a restored FlowResult
// is bit-identical to the one recorded.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/status.hpp"
#include "core/flow.hpp"
#include "obs/metrics.hpp"

namespace aplace::core {

/// Everything a terminal record says about a finished job — enough to
/// rebuild its batch item without re-running the flow.
struct JournalEntry {
  std::string key;
  bool quarantined = false;  ///< record type was attempts_exhausted
  int attempts = 1;
  double wall_seconds = 0;

  // FlowResult payload.
  StatusCode code = StatusCode::Ok;
  std::string message;
  std::vector<std::string> trail;
  int fallback = 0;
  bool gp_diverged = false;
  bool deadline_hit = false;
  double gp_seconds = 0, dp_seconds = 0, total_seconds = 0;
  double sa_moves_per_second = 0, sa_net_eval_ratio = 0;
  netlist::QualityReport quality{};

  std::string snapshot;       ///< snapshot file name, empty = none recorded
  std::uint64_t digest = 0;   ///< FNV-1a64 of the snapshot bytes
  /// Circuit::digest() of the netlist the job ran on; 0 = unknown (record
  /// predates digest stamping). A resumed batch re-runs the job when this
  /// disagrees with the submitted circuit — the label|flow|circuit|ndev key
  /// alone cannot see a netlist edit that kept the name and device count.
  std::uint64_t circuit_digest = 0;
};

/// Append handle on a journal file. Thread-safe: concurrent pool jobs may
/// record through one instance. Default-constructed instances are inert
/// (every record_* call is a no-op), so callers can hold one unconditionally.
class RunJournal {
 public:
  RunJournal() = default;

  /// Open (create or append to) the journal at `path` and ensure its
  /// snapshot directory exists. Fails with InvalidInput when the file
  /// cannot be opened for appending.
  [[nodiscard]] static Result<RunJournal> open(const std::string& path);

  /// Terminal entries from an existing journal, keyed by job key; later
  /// records win. Tolerant by design: a missing file yields an empty map and
  /// malformed or truncated lines are skipped, never an error.
  [[nodiscard]] static std::map<std::string, JournalEntry> load_completed(
      const std::string& path);

  /// Re-read a recorded placement snapshot, verifying its digest. A missing
  /// or torn snapshot (or one that no longer matches the circuit) comes
  /// back non-ok; the caller should then re-run the job.
  [[nodiscard]] static Result<netlist::Placement> load_snapshot(
      const std::string& journal_path, const JournalEntry& entry,
      const netlist::Circuit& circuit);

  [[nodiscard]] bool active() const { return impl_ != nullptr; }
  [[nodiscard]] const std::string& path() const { return path_; }

  void record_batch_start(std::size_t num_jobs, std::size_t num_resumed);
  void record_submit(const std::string& key, std::size_t index);
  void record_start(const std::string& key, int attempt);
  void record_retry(const std::string& key, int attempt, const Status& st);
  void record_interrupted(const std::string& key, int attempts,
                          const Status& st);
  /// Terminal record. Writes the placement snapshot first (temp + rename)
  /// when every coordinate is finite, then appends the record referencing
  /// it. `quarantined` selects attempts_exhausted over done.
  /// `circuit_digest` is the Circuit::digest() of the netlist the job ran
  /// on (0 = unknown), used on resume to detect circuit drift.
  void record_terminal(const std::string& key, const FlowResult& result,
                       int attempts, double wall_seconds, bool quarantined,
                       std::uint64_t circuit_digest = 0);
  /// Observability rollup (type "metrics"): the merged registry snapshot as
  /// a nested JSON object. Informational — the resume loader ignores it.
  void record_metrics(const obs::MetricsSnapshot& snap);

 private:
  struct Impl;
  std::string path_;
  std::shared_ptr<Impl> impl_;  ///< shared so RunJournal stays copyable
};

}  // namespace aplace::core
