#pragma once
// Shared types of the placement benchmark (see README.md in this directory).
//
// A workload is a few distinct passes of flow calls over registry testcases.
// main.cpp runs passes of public flow calls in a closed loop and times each
// call from outside; traced.cpp re-composes the same calls from the public
// entry points of each layer and records one span per layer call.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "circuits/testcases.hpp"
#include "core/compile_cache.hpp"
#include "core/flow.hpp"
#include "core/perf_flow.hpp"
#include "netlist/evaluator.hpp"
#include "perf/model.hpp"
#include "route/router.hpp"

namespace perfbench {

using namespace aplace;

enum class Flow : std::uint8_t {
  EPlaceA,
  EPlaceAP,
  PriorWorkPerf,
  SaPerf,
};

[[nodiscard]] const char* flow_name(Flow f);

/// One flow call of a pass. `seed` is derived from the workload seed.
struct Call {
  Flow flow = Flow::EPlaceA;
  std::size_t case_index = 0;
  std::uint64_t seed = 0;
};

struct Workload {
  std::string name;
  std::vector<std::string> circuits;
  bool perf_context = false;  ///< setup also runs build_perf_context
  /// Distinct passes, each on its own flow seeds; a pass calls every flow
  /// of the workload once on every circuit, in execution order.
  std::vector<std::vector<Call>> passes;
};

/// The named workload with every flow seed derived from `seed`, or nothing
/// for an unknown name.
[[nodiscard]] std::optional<Workload> make_workload(std::string_view name,
                                                   std::uint64_t seed);

/// One testcase with its compiled snapshot (and, for the perf-driven
/// workload, its trained performance context). Held by unique_ptr in Setup:
/// snapshots and contexts borrow the circuit, so its address must not move.
struct Case {
  circuits::TestCase tc;
  std::shared_ptr<const netlist::CompiledCircuit> compiled;
  std::unique_ptr<core::PerfContext> perf;
};

struct Setup {
  std::shared_ptr<core::CompileCache> cache =
      std::make_shared<core::CompileCache>();
  std::vector<std::unique_ptr<Case>> cases;
};

/// Testcase generation, netlist compile and (perf-driven) build_perf_context
/// through the public APIs.
[[nodiscard]] Setup make_setup(const Workload& w);

/// What one flow call produced. `ok` is the flow's own status; `legal`,
/// `hpwl`, `area` and `fom` are filled in by check() from an independent
/// re-evaluation of the placement.
struct Outcome {
  bool ok = false;
  core::FallbackLevel fallback = core::FallbackLevel::None;
  std::optional<netlist::Placement> placement;
  netlist::QualityReport reported{};  ///< the flow's own quality report
  std::optional<double> reported_fom; ///< the perf flows' own routed FOM
  std::string error;                  ///< set when the flow aborted

  bool legal = false;
  double hpwl = 0, area = 0, fom = 0;
  bool consistent = true;  ///< re-evaluation matches what the flow reported

  [[nodiscard]] bool good() const { return ok && legal && consistent; }
  [[nodiscard]] bool same_result(const Outcome& o) const {
    return ok == o.ok && fallback == o.fallback && legal == o.legal &&
           hpwl == o.hpwl && area == o.area && fom == o.fom;
  }
};

/// Independent re-check of a placement: legality and quality through
/// netlist::Evaluator, FOM through the router and the surrogate model (the
/// same composition core::evaluate_routed uses).
class Checker {
 public:
  explicit Checker(const Case& c);
  void check(Outcome& o) const;

 private:
  netlist::Evaluator eval_;
  perf::PerformanceModel model_;
  route::GridRouter router_;
  std::shared_ptr<const netlist::CompiledCircuit> compiled_;
};

struct Timed {
  Outcome out;
  double wall_s = 0;
  double cpu_s = 0;
};

/// Run one call through the public flow API, timed from outside with the
/// steady clock and the process CPU clock.
[[nodiscard]] Timed run_public(const Setup& s, const Call& call);

[[nodiscard]] double wall_now();
[[nodiscard]] double cpu_now();

// ---- tracing (traced run only) ----------------------------------------------

/// In-memory span and counter sink of the traced run. Thread-safe: the
/// composed ePlace-A candidates run concurrently on the pool.
class Tracer {
 public:
  struct Event {
    std::string name;
    std::uint32_t tid = 0;
    double start = 0;
    double dur = 0;
  };

  /// Times one call into a layer; on close adds its duration to
  /// total(name + "_s") and records an event.
  class Span {
   public:
    Span(Tracer& t, const char* name) : t_(t), name_(name), t0_(wall_now()) {}
    ~Span() { t_.close(name_, t0_, wall_now() - t0_); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    [[nodiscard]] double seconds() const { return wall_now() - t0_; }

   private:
    Tracer& t_;
    const char* name_;
    double t0_;
  };

  void add(const std::string& key, double v);
  [[nodiscard]] double total(const std::string& key) const;
  [[nodiscard]] std::vector<Event> events() const;

 private:
  void close(const char* name, double start, double dur);

  mutable std::mutex mu_;
  std::map<std::string, double> totals_;  // guarded by mu_
  std::vector<Event> events_;             // guarded by mu_
  std::map<std::size_t, std::uint32_t> tids_;  // guarded by mu_
};

/// The same setup as make_setup, re-composed layer by layer with spans.
[[nodiscard]] Setup make_setup_traced(const Workload& w, Tracer& tr);

/// The same call as run_public, re-composed from the public entry points of
/// its layers (GP, legalizers, annealer, evaluator, GNN, router, model).
[[nodiscard]] Outcome run_composed(const Setup& s, const Call& call,
                                   Tracer& tr);

/// True when two setups trained bit-identical performance contexts.
[[nodiscard]] bool same_contexts(const Setup& a, const Setup& b);

/// Deltas of the program's own process-cumulative obs counters.
struct ObsCounters {
  double gp_iterations = 0;
  double density_evals = 0;
  double fft_transforms = 0;
  double sa_moves = 0;
  double sa_accepts = 0;
  double legal_attempts = 0;
  double pool_tasks = 0;
  double pool_wait_s = 0;

  [[nodiscard]] static ObsCounters read();
  [[nodiscard]] ObsCounters operator-(const ObsCounters& o) const;
};

}  // namespace perfbench
