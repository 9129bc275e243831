#include <chrono>
#include <ctime>

#include "bench.hpp"
#include "numeric/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace perfbench {
namespace {

// Distinct passes per workload, each on its own flow seeds. Per-call time
// varies by 15-20% between seeds (the ILP's branch-and-bound and refinement
// rounds depend on the GP hand-off), so timings are medians over passes and
// quality covers every distinct pass. One ePlace-A pass takes 14-20 s, one
// perf-driven pass 9-15 s after a 7-11 s set-up.
constexpr int kEPlacePasses = 2;
constexpr int kPerfPasses = 3;

// Small circuits, so that dataset generation, training, GNN inference and
// routing dominate the perf-driven workload rather than the ILP.
const std::vector<std::string> kPerfCircuits = {"CC-OTA", "CM-OTA1", "Comp1"};

}  // namespace

const char* flow_name(Flow f) {
  switch (f) {
    case Flow::EPlaceA: return "ePlace-A";
    case Flow::EPlaceAP: return "ePlace-AP";
    case Flow::PriorWorkPerf: return "prior-work-perf";
    case Flow::SaPerf: return "SA-perf";
  }
  return "?";
}

std::optional<Workload> make_workload(std::string_view name,
                                      std::uint64_t seed) {
  Workload w;
  w.name = std::string(name);
  const std::vector<std::string>& all = circuits::testcase_names();
  std::vector<Flow> flows;
  int passes = 0;
  if (name == "eplace-a") {
    w.circuits = all;
    flows = {Flow::EPlaceA};
    passes = kEPlacePasses;
  } else if (name == "perf-driven") {
    w.circuits = kPerfCircuits;
    w.perf_context = true;
    flows = {Flow::EPlaceAP, Flow::PriorWorkPerf, Flow::SaPerf};
    passes = kPerfPasses;
  } else {
    return std::nullopt;
  }
  std::uint64_t stream = 0;
  w.passes.resize(static_cast<std::size_t>(passes));
  for (std::vector<Call>& pass : w.passes) {
    for (std::size_t i = 0; i < w.circuits.size(); ++i) {
      for (Flow f : flows) {
        pass.push_back({f, i, numeric::split_seed(seed, stream++)});
      }
    }
  }
  return w;
}

Setup make_setup(const Workload& w) {
  Setup s;
  for (const std::string& name : w.circuits) {
    auto c = std::make_unique<Case>(Case{circuits::make_testcase(name), {}, {}});
    c->compiled = s.cache->get_or_compile(c->tc.circuit);
    if (w.perf_context) {
      c->perf = core::build_perf_context(c->tc.circuit, c->tc.spec);
    }
    s.cases.push_back(std::move(c));
  }
  return s;
}

Checker::Checker(const Case& c)
    : eval_(c.tc.circuit),
      model_(c.compiled, c.tc.spec),
      compiled_(c.compiled) {}

void Checker::check(Outcome& o) const {
  if (!o.placement.has_value()) return;
  const netlist::QualityReport q = eval_.evaluate(*o.placement);
  o.legal = q.legal(1e-6);
  o.hpwl = q.hpwl;
  o.area = q.area;
  const route::RoutingResult rr = router_.route(*compiled_, *o.placement);
  o.fom = model_.evaluate(*o.placement, &rr).fom;
  if (o.ok) {
    o.consistent = q.hpwl == o.reported.hpwl && q.area == o.reported.area &&
                   (!o.reported_fom.has_value() || *o.reported_fom == o.fom);
  }
}

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

namespace {

Outcome from_flow(core::FlowResult r) {
  Outcome o;
  o.ok = r.ok();
  o.fallback = r.fallback;
  o.reported = r.quality;
  if (!o.ok) o.error = r.status.to_string();
  o.placement = std::move(r.placement);
  return o;
}

Outcome from_perf_flow(core::PerfFlowResult r) {
  Outcome o = from_flow(std::move(r.flow));
  o.reported_fom = r.perf.fom;
  return o;
}

}  // namespace

Timed run_public(const Setup& s, const Call& call) {
  const Case& c = *s.cases.at(call.case_index);
  const netlist::Circuit& circuit = c.tc.circuit;
  std::optional<core::FlowResult> flow;
  std::optional<core::PerfFlowResult> perf_flow;
  auto body = [&] {
    switch (call.flow) {
      case Flow::EPlaceA: {
        core::EPlaceAOptions o;
        o.gp.seed = call.seed;
        o.compile_cache = s.cache;
        flow = core::run_eplace_a(circuit, o);
        return;
      }
      case Flow::EPlaceAP: {
        core::EPlaceAOptions o;
        o.gp.seed = call.seed;
        perf_flow = core::run_eplace_ap(circuit, *c.perf, o);
        return;
      }
      case Flow::PriorWorkPerf: {
        core::PriorWorkOptions o;
        o.gp.seed = call.seed;
        perf_flow = core::run_prior_work_perf(circuit, *c.perf, o);
        return;
      }
      case Flow::SaPerf: {
        core::SaFlowOptions o;
        o.sa.seed = call.seed;
        perf_flow = core::run_sa_perf(circuit, *c.perf, o, 1.0);
        return;
      }
    }
  };

  Timed t;
  const double w0 = wall_now();
  const double c0 = cpu_now();
  try {
    body();
  } catch (const std::exception& e) {
    // run_eplace_ap / run_prior_work_perf abort through APLACE_CHECK when
    // detailed placement fails; the pass goes on and counts a failure.
    t.out.error = e.what();
  }
  t.cpu_s = cpu_now() - c0;
  t.wall_s = wall_now() - w0;
  if (flow.has_value()) t.out = from_flow(std::move(*flow));
  if (perf_flow.has_value()) t.out = from_perf_flow(std::move(*perf_flow));
  // Flows that do not hand their spans back leave them in the collector.
  obs::SpanCollector::global().clear();
  return t;
}

ObsCounters ObsCounters::read() {
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().scrape();
  auto counter = [&](std::string_view name) {
    const auto* row = snap.find_counter(name);
    return row != nullptr ? static_cast<double>(row->value) : 0.0;
  };
  ObsCounters c;
  c.gp_iterations = counter("gp/iterations");
  c.density_evals = counter("density/evals");
  c.fft_transforms = counter("fft/transforms2d");
  c.sa_moves = counter("sa/moves");
  c.sa_accepts = counter("sa/accepts");
  c.legal_attempts = counter("legal/attempts");
  c.pool_tasks = counter("pool/tasks");
  if (const auto* h = snap.find_histogram("pool/task_wait_seconds")) {
    c.pool_wait_s = h->sum;
  }
  return c;
}

ObsCounters ObsCounters::operator-(const ObsCounters& o) const {
  return {gp_iterations - o.gp_iterations,   density_evals - o.density_evals,
          fft_transforms - o.fft_transforms, sa_moves - o.sa_moves,
          sa_accepts - o.sa_accepts,         legal_attempts - o.legal_attempts,
          pool_tasks - o.pool_tasks,         pool_wait_s - o.pool_wait_s};
}

}  // namespace perfbench
