// Crash-safe batch serving: journal round-trip, truncation tolerance,
// resume bit-identity, retry/quarantine and cancellation semantics.
//
// The central contract these tests pin down: a journaled batch that is
// killed at ANY byte boundary and re-launched with --resume produces the
// same FlowResults as an uninterrupted run — completed jobs restore
// bit-identically from the journal, everything else re-runs under the same
// seeds. The truncation sweep emulates SIGKILL by replaying prefixes of a
// finished journal.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "circuits/testcases.hpp"
#include "core/batch.hpp"
#include "core/journal.hpp"
#include "io/netlist_io.hpp"

namespace {

using namespace aplace;
namespace fs = std::filesystem;

std::string slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while (f != nullptr && (n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    out.append(buf, n);
  }
  if (f != nullptr) std::fclose(f);
  return out;
}

void spit(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

/// Bit-identity of two batch items: status, flags, quality and the full
/// placement (compared through the exact-double serializer).
void expect_bit_identical(const core::BatchItem& ref,
                          const core::BatchItem& got, const std::string& ctx) {
  EXPECT_EQ(ref.label, got.label) << ctx;
  EXPECT_EQ(ref.result.status.code(), got.result.status.code()) << ctx;
  EXPECT_EQ(ref.result.status.to_string(), got.result.status.to_string())
      << ctx;
  EXPECT_EQ(ref.result.fallback, got.result.fallback) << ctx;
  EXPECT_EQ(ref.result.gp_diverged, got.result.gp_diverged) << ctx;
  EXPECT_EQ(ref.result.quality.hpwl, got.result.quality.hpwl) << ctx;
  EXPECT_EQ(ref.result.quality.area, got.result.quality.area) << ctx;
  EXPECT_EQ(ref.result.quality.overlap_area, got.result.quality.overlap_area)
      << ctx;
  EXPECT_EQ(ref.result.quality.symmetry_violation,
            got.result.quality.symmetry_violation)
      << ctx;
  EXPECT_EQ(io::placement_to_text(ref.result.placement),
            io::placement_to_text(got.result.placement))
      << ctx;
}

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per process and test, so concurrent runs on one
    // machine do not collide.
    dir_ = fs::path(::testing::TempDir()) /
           ("journal_test_" + std::to_string(::getpid()) + "_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    a_ = circuits::make_testcase("Adder");
    b_ = circuits::make_testcase("CC-OTA");
    for (const netlist::Circuit* c : {&a_.circuit, &b_.circuit}) {
      core::BatchJob ep;
      ep.circuit = c;
      ep.flow = core::FlowKind::EPlaceA;
      ep.eplace.candidates = 1;
      ep.eplace.gp.seed = 11;
      jobs_.push_back(ep);
      core::BatchJob sa_job;
      sa_job.circuit = c;
      sa_job.flow = core::FlowKind::Sa;
      sa_job.sa.sa.max_moves = 1500;
      sa_job.sa.sa.seed = 7;
      jobs_.push_back(sa_job);
    }
  }

  void TearDown() override { fs::remove_all(dir_); }

  std::string journal_path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
  circuits::TestCase a_, b_;
  std::vector<core::BatchJob> jobs_;
};

TEST_F(JournalTest, ResumeRestoresBitIdenticalResults) {
  const core::BatchReport ref = core::run_batch(jobs_, {});
  ASSERT_EQ(ref.num_ok, jobs_.size());

  core::BatchOptions journaled;
  journaled.journal_path = journal_path("run.jsonl");
  const core::BatchReport first = core::run_batch(jobs_, journaled);
  ASSERT_TRUE(first.journal_status.ok()) << first.journal_status.to_string();
  ASSERT_EQ(first.num_resumed, 0u);
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    expect_bit_identical(ref.items[i], first.items[i], "journaled run");
  }

  core::BatchOptions resume = journaled;
  resume.resume_journal = true;
  const core::BatchReport second = core::run_batch(jobs_, resume);
  EXPECT_EQ(second.num_resumed, jobs_.size());
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    EXPECT_TRUE(second.items[i].resumed) << i;
    expect_bit_identical(ref.items[i], second.items[i], "resumed run");
  }
}

TEST_F(JournalTest, TruncatedJournalResumesToIdenticalResults) {
  // A full journaled run produces the reference journal; replaying resumes
  // from every line-boundary prefix (plus mid-record tears) emulates a
  // SIGKILL at each record. Results must match the reference regardless of
  // where the kill landed.
  core::BatchOptions journaled;
  journaled.journal_path = journal_path("full.jsonl");
  const core::BatchReport ref = core::run_batch(jobs_, journaled);
  ASSERT_TRUE(ref.journal_status.ok());
  ASSERT_EQ(ref.num_ok, jobs_.size());

  const std::string full = slurp(journaled.journal_path);
  ASSERT_FALSE(full.empty());
  std::vector<std::size_t> cuts{0};
  for (std::size_t pos = 0; (pos = full.find('\n', pos)) != std::string::npos;
       ++pos) {
    cuts.push_back(pos + 1);          // clean cut after a full record
    if (pos + 8 < full.size()) {
      cuts.push_back(pos + 8);        // torn cut inside the next record
    }
  }

  for (std::size_t k = 0; k < cuts.size(); ++k) {
    const std::string trunc_path =
        journal_path("trunc_" + std::to_string(k) + ".jsonl");
    spit(trunc_path, full.substr(0, cuts[k]));
    // Snapshots survive a crash untouched; share them with the prefix.
    fs::copy(journaled.journal_path + ".snapshots", trunc_path + ".snapshots",
             fs::copy_options::recursive);

    core::BatchOptions resume;
    resume.journal_path = trunc_path;
    resume.resume_journal = true;
    const core::BatchReport rerun = core::run_batch(jobs_, resume);
    ASSERT_EQ(rerun.items.size(), jobs_.size());
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      expect_bit_identical(ref.items[i], rerun.items[i],
                           "cut " + std::to_string(cuts[k]) + " job " +
                               std::to_string(i));
    }
  }
}

TEST_F(JournalTest, MissingSnapshotFallsBackToRerun) {
  core::BatchOptions journaled;
  journaled.journal_path = journal_path("snap.jsonl");
  const core::BatchReport ref = core::run_batch(jobs_, journaled);
  ASSERT_EQ(ref.num_ok, jobs_.size());

  // Corrupt one snapshot and delete another: both jobs must silently re-run
  // (digest mismatch / missing file) and still land on identical results.
  const fs::path snaps = fs::path(journaled.journal_path + ".snapshots");
  std::vector<fs::path> files;
  for (const auto& e : fs::directory_iterator(snaps)) files.push_back(e.path());
  ASSERT_GE(files.size(), 2u);
  spit(files[0].string(), "# torn snapshot\n");
  fs::remove(files[1]);

  core::BatchOptions resume = journaled;
  resume.resume_journal = true;
  const core::BatchReport rerun = core::run_batch(jobs_, resume);
  EXPECT_EQ(rerun.num_resumed, jobs_.size() - 2);
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    expect_bit_identical(ref.items[i], rerun.items[i], "snapshot fallback");
  }
}

TEST_F(JournalTest, RetriesExhaustedQuarantinesDeterministically) {
  // candidates = 0 trips the flow's own option check, which the batch guard
  // converts to a retryable Internal status — so every attempt fails the
  // same way and the job must end quarantined with all attempts consumed.
  core::BatchJob bad;
  bad.circuit = &a_.circuit;
  bad.flow = core::FlowKind::EPlaceA;
  bad.eplace.candidates = 0;
  bad.label = "bad-job";
  std::vector<core::BatchJob> jobs{bad, jobs_[1]};

  core::BatchOptions opts;
  opts.journal_path = journal_path("retry.jsonl");
  opts.retry.max_attempts = 3;
  opts.retry.backoff_seconds = 0;  // keep the test fast
  const core::BatchReport report = core::run_batch(jobs, opts);
  EXPECT_EQ(report.num_quarantined, 1u);
  EXPECT_TRUE(report.items[0].quarantined);
  EXPECT_EQ(report.items[0].attempts, 3);
  EXPECT_EQ(report.items[0].result.status.code(), StatusCode::Internal);
  EXPECT_TRUE(report.items[1].result.ok());

  // Quarantine is terminal: a resume skips the poisoned job instead of
  // burning three more attempts on it.
  core::BatchOptions resume = opts;
  resume.resume_journal = true;
  const core::BatchReport again = core::run_batch(jobs, resume);
  EXPECT_EQ(again.num_resumed, 2u);
  EXPECT_TRUE(again.items[0].resumed);
  EXPECT_TRUE(again.items[0].quarantined);
  EXPECT_EQ(again.items[0].attempts, 3);
  EXPECT_EQ(again.items[0].result.status.code(), StatusCode::Internal);

  // The journal itself must carry the retry trail and the terminal record.
  const std::string text = slurp(opts.journal_path);
  EXPECT_NE(text.find("\"type\":\"retry\""), std::string::npos);
  EXPECT_NE(text.find("\"type\":\"attempts_exhausted\""), std::string::npos);
}

TEST_F(JournalTest, CancelledJobsAreNotTerminalAndRerunOnResume) {
  base::CancelToken cancel = base::CancelToken::make_cancellable();
  cancel.request_cancel();  // cancelled before any solver work starts

  core::BatchOptions opts;
  opts.journal_path = journal_path("cancel.jsonl");
  opts.cancel = cancel;
  const core::BatchReport cancelled = core::run_batch(jobs_, opts);
  for (const core::BatchItem& item : cancelled.items) {
    EXPECT_EQ(item.result.status.code(), StatusCode::Cancelled) << item.label;
  }

  // Interruption records are non-terminal, so the resumed batch runs every
  // job for real and matches an uninterrupted reference bit-for-bit.
  const core::BatchReport ref = core::run_batch(jobs_, {});
  core::BatchOptions resume;
  resume.journal_path = opts.journal_path;
  resume.resume_journal = true;
  const core::BatchReport rerun = core::run_batch(jobs_, resume);
  EXPECT_EQ(rerun.num_resumed, 0u);
  ASSERT_EQ(rerun.items.size(), ref.items.size());
  for (std::size_t i = 0; i < ref.items.size(); ++i) {
    expect_bit_identical(ref.items[i], rerun.items[i], "post-cancel rerun");
  }
}

TEST_F(JournalTest, UnopenableJournalIsReportedNotFatal) {
  // Point the journal *under an existing file* so the directory cannot be
  // created; the batch must still run and surface the failure as a status.
  const std::string blocker = journal_path("blocker");
  spit(blocker, "not a directory\n");
  core::BatchOptions opts;
  opts.journal_path = blocker + "/run.jsonl";
  const core::BatchReport report = core::run_batch(jobs_, opts);
  EXPECT_FALSE(report.journal_status.ok());
  EXPECT_EQ(report.items.size(), jobs_.size());
  EXPECT_EQ(report.num_ok, jobs_.size());
}

TEST_F(JournalTest, LoadCompletedToleratesGarbageLines) {
  core::BatchOptions opts;
  opts.journal_path = journal_path("garbage.jsonl");
  const core::BatchReport ref = core::run_batch(jobs_, opts);
  ASSERT_EQ(ref.num_ok, jobs_.size());

  // Splice junk between valid records; the loader must skip it and still
  // recover every terminal entry.
  std::string text = slurp(opts.journal_path);
  text.insert(text.find('\n') + 1, "THIS IS NOT JSON\n{\"type\":\n\x01\x02\n");
  text += "{\"type\":\"done\",\"key\":\"truncated";  // torn final record
  spit(opts.journal_path, text);

  const auto completed = core::RunJournal::load_completed(opts.journal_path);
  EXPECT_EQ(completed.size(), jobs_.size());
  for (const core::BatchJob& job : jobs_) {
    EXPECT_TRUE(completed.contains(core::batch_job_key(job)));
  }
}

TEST_F(JournalTest, CircuitDriftInvalidatesTerminalRecords) {
  // Terminal records carry Circuit::digest(). A resumed batch whose circuit
  // changed content — but kept its name and device count, so the
  // label|flow|circuit|ndev key still matches — must re-run the job instead
  // of restoring a stale result.
  const auto build = [](double w0) {
    netlist::Circuit c("drift");
    const DeviceId d0 = c.add_device("m0", netlist::DeviceType::Nmos, w0, 2.0);
    const DeviceId d1 = c.add_device("m1", netlist::DeviceType::Pmos, 3.0, 2.0);
    const PinId p0 = c.add_center_pin(d0, "a");
    const PinId p1 = c.add_center_pin(d1, "a");
    c.add_net("n", {p0, p1});
    c.finalize();
    return c;
  };
  const netlist::Circuit original = build(3.0);
  const netlist::Circuit drifted = build(4.0);
  ASSERT_NE(original.digest(), drifted.digest());

  core::BatchJob job;
  job.circuit = &original;
  job.flow = core::FlowKind::Sa;
  job.sa.sa.max_moves = 500;
  ASSERT_EQ(core::batch_job_key(job),
            core::batch_job_key([&] {
              core::BatchJob j = job;
              j.circuit = &drifted;
              return j;
            }()));

  core::BatchOptions opts;
  opts.journal_path = journal_path("drift.jsonl");
  const core::BatchReport first = core::run_batch({&job, 1}, opts);
  ASSERT_EQ(first.num_ok, 1u);

  // Unchanged circuit: the record is valid and restores.
  core::BatchOptions resume = opts;
  resume.resume_journal = true;
  const core::BatchReport same = core::run_batch({&job, 1}, resume);
  EXPECT_EQ(same.num_resumed, 1u);

  // Drifted circuit: same key, different digest — the job re-runs and the
  // result reflects the new netlist.
  core::BatchJob drifted_job = job;
  drifted_job.circuit = &drifted;
  const core::BatchReport rerun = core::run_batch({&drifted_job, 1}, resume);
  EXPECT_EQ(rerun.num_resumed, 0u);
  ASSERT_EQ(rerun.num_ok, 1u);
  EXPECT_FALSE(rerun.items[0].resumed);
}

TEST_F(JournalTest, JournalKeyDisambiguatesJobs) {
  // Same circuit, different flows and labels → distinct keys.
  EXPECT_NE(core::batch_job_key(jobs_[0]), core::batch_job_key(jobs_[1]));
  core::BatchJob relabeled = jobs_[0];
  relabeled.label = "other";
  EXPECT_NE(core::batch_job_key(jobs_[0]), core::batch_job_key(relabeled));
}

}  // namespace
