// Placement benchmark program. See README.md in this directory.
//
//   perfbench --workload <eplace-a|perf-driven> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-file <path>]
//
// --trace 0 sets up the workload several times, then runs passes of public
// flow calls in a closed loop (one call at a time) for --seconds and prints
// the end-to-end metrics. --trace 1 alternates a pass of the public flows
// with a traced pass of the same flows re-composed layer by layer, checks
// that both produce identical placements, and prints the per-layer metrics.
// The last line of standard output is the JSON result.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "base/thread_pool.hpp"
#include "bench.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string trace_file;
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return false;
    const std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = end != val.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (end == val.c_str() || *end != '\0') return false;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return false;
      a.trace = val == "1" ? 1 : 0;
    } else if (key == "--trace-file") {
      a.trace_file = val;
    } else {
      return false;
    }
  }
  return !a.workload.empty() && have_seed && a.seconds > 0 && a.trace >= 0;
}

/// Cap the global pool at the CPUs this process may run on.
unsigned configure_pool() {
  cpu_set_t set;
  CPU_ZERO(&set);
  unsigned nproc = base::ThreadPool::default_threads();
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    nproc = static_cast<unsigned>(std::max(CPU_COUNT(&set), 1));
  }
  base::ThreadPool::set_global_threads(
      std::min(base::ThreadPool::default_threads(), nproc));
  return base::ThreadPool::global().num_threads();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

volatile double probe_sink = 0;

/// Host-speed probe: a fixed single-threaded kernel of dependent random reads
/// and floating-point updates over 2 MiB, about 20 ms. It lives in the
/// benchmark so that no change to the placer moves it. The shared host's
/// speed drifts by 20-30% over minutes, identical set-ups included, so pass
/// times are reported in units of the probe time measured alongside them.
double probe_s() {
  static std::vector<double> buf(std::size_t{1} << 18);
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  double acc = 0;
  const double t0 = wall_now();
  for (int i = 0; i < (1 << 22); ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    double& v = buf[(x >> 40) & (buf.size() - 1)];
    v = v * 0.999 + acc * 1e-9 + 1.0;
    acc += v;
  }
  const double dt = wall_now() - t0;
  probe_sink = probe_sink + acc;
  return dt;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, long attempted, long failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i > 0 ? ", " : "", metrics[i].name.c_str(), v,
                metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

std::vector<Checker> make_checkers(const Setup& s) {
  std::vector<Checker> out;
  out.reserve(s.cases.size());
  for (const auto& c : s.cases) out.emplace_back(*c);
  return out;
}

std::string describe(const Workload& w, const Call& call) {
  return std::string(flow_name(call.flow)) + " on " +
         w.circuits[call.case_index] + " (seed " + std::to_string(call.seed) +
         ")";
}

/// Tallies placements over every pass of a run.
struct Tally {
  long attempted = 0;
  long failed = 0;
  long primary = 0;  ///< good placements from the flow's first legalizer
  bool correct = true;

  void count(const Workload& w, const Call& call, const Outcome& o) {
    ++attempted;
    if (!o.good()) {
      ++failed;
      std::fprintf(stderr, "failed: %s: %s\n", describe(w, call).c_str(),
                   !o.error.empty() ? o.error.c_str()
                   : !o.legal       ? "placement is not legal"
                                    : "re-evaluation disagrees with the flow");
    } else if (o.fallback == core::FallbackLevel::None) {
      ++primary;
    }
    if (!o.consistent) correct = false;
  }
};

int timed_run(const Workload& w, const Args& a, unsigned threads) {
  // Set up several times and report the median; the workload then runs on
  // the last set-up. Perf-driven set-up trains three GNNs (seconds);
  // eplace-a only generates and compiles netlists (milliseconds).
  const int reps = w.perf_context ? 3 : 25;
  std::vector<double> setup_s;
  Setup setup;
  for (int r = 0; r < reps; ++r) {
    const double t0 = wall_now();
    Setup s = make_setup(w);
    setup_s.push_back(wall_now() - t0);
    setup = std::move(s);
  }
  const std::vector<Checker> checkers = make_checkers(setup);

  // Cycle through the distinct passes until every one ran and --seconds
  // are up. A repeated pass must reproduce its first results exactly. The
  // probe runs before every call; a pass's times are divided by the median
  // of its probe times.
  const std::size_t distinct = w.passes.size();
  std::vector<double> suite_probes, cpu_probes;
  std::vector<std::vector<Outcome>> first(distinct);
  Tally tally;
  const double start = wall_now();
  do {
    const std::size_t p = suite_probes.size() % distinct;
    const bool repeat = suite_probes.size() >= distinct;
    double suite = 0, slowest = 0, cpu = 0;
    std::vector<double> probes;
    for (std::size_t k = 0; k < w.passes[p].size(); ++k) {
      const Call& call = w.passes[p][k];
      probes.push_back(probe_s());
      Timed t = run_public(setup, call);
      suite += t.wall_s;
      slowest = std::max(slowest, t.wall_s);
      cpu += t.cpu_s;
      checkers[call.case_index].check(t.out);
      t.out.placement.reset();
      tally.count(w, call, t.out);
      if (!repeat) {
        std::printf("  %-48s %8.3f s\n", describe(w, call).c_str(), t.wall_s);
        first[p].push_back(std::move(t.out));
      } else if (!first[p][k].same_result(t.out)) {
        std::fprintf(stderr, "nondeterministic: %s\n",
                     describe(w, call).c_str());
        tally.correct = false;
      }
    }
    const double probe = median(probes);
    suite_probes.push_back(suite / probe);
    cpu_probes.push_back(cpu / probe);
    std::printf("pass %zu: suite %.3f s, slowest flow %.3f s, cpu %.3f s, "
                "probe %.4f s\n",
                suite_probes.size(), suite, slowest, cpu, probe);
  } while (suite_probes.size() < distinct || wall_now() - start < a.seconds);

  double log_hpwl = 0, log_area = 0, fom = 0;
  int good = 0;
  for (const std::vector<Outcome>& pass : first) {
    for (const Outcome& o : pass) {
      if (!o.good()) continue;
      log_hpwl += std::log(o.hpwl);
      log_area += std::log(o.area);
      fom += o.fom;
      ++good;
    }
  }
  const double n = std::max(good, 1);
  const double attempted = static_cast<double>(tally.attempted);
  std::printf("workload %s, seed %llu, %u threads, %zu passes, %d set-ups\n",
              w.name.c_str(), static_cast<unsigned long long>(a.seed),
              threads, suite_probes.size(), reps);
  print_result(
      tally.correct, tally.attempted, tally.failed,
      {{"suite_probes", median(suite_probes), "probe"},
       {"cpu_probes", median(cpu_probes), "probe"},
       {"setup_s", median(setup_s), "s"},
       {"peak_rss_mb", peak_rss_mb(), "MB"},
       {"hpwl_geomean", std::exp(log_hpwl / n), "um"},
       {"area_geomean", std::exp(log_area / n), "um2"},
       {"legal_frac", (attempted - tally.failed) / attempted, "frac"},
       {"primary_frac", tally.primary / attempted, "frac"},
       {"fom_mean", fom / n, "score"}});
  return 0;
}

/// Chrome trace_event JSON of the traced run (pid 1: set-up, pid 2: passes).
void write_trace_file(const std::string& path, const Tracer& setup,
                      const Tracer& passes) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  const std::vector<Tracer::Event> a = setup.events();
  const std::vector<Tracer::Event> b = passes.events();
  double t0 = std::numeric_limits<double>::infinity();
  for (const auto& e : a) t0 = std::min(t0, e.start);
  for (const auto& e : b) t0 = std::min(t0, e.start);
  out << "{\"traceEvents\": [";
  bool sep = false;
  auto emit = [&](const std::vector<Tracer::Event>& evs, int pid) {
    char buf[256];
    for (const auto& e : evs) {
      std::snprintf(buf, sizeof buf,
                    "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
                    "\"dur\": %.3f, \"pid\": %d, \"tid\": %u}",
                    sep ? "," : "", e.name.c_str(), 1e6 * (e.start - t0),
                    1e6 * e.dur, pid, e.tid);
      out << buf;
      sep = true;
    }
  };
  emit(a, 1);
  emit(b, 2);
  out << "\n]}\n";
}

// Leaf stages of the composed flows: spans that contain no other span, so
// their busy times add up without double counting. SA-perf's own time
// excludes the GNN inference it calls on every move.
const char* const kStages[] = {
    "circuits.make",    "netlist.compile",        "netlist.evaluate",
    "gp.eplace.run",    "gp.ntu.run",             "legal.ilp.place",
    "legal.rounded_lp.place", "legal.two_stage.place", "legal.greedy.place",
    "sa.perf.place",    "sa.sample",
    "gnn.train",        "gnn.phi",                "route.route",
    "perf.evaluate"};

void print_stage_table(const char* scope, const Tracer& tr, double divisor) {
  std::vector<std::pair<std::string, double>> rows;
  double total = 0;
  for (const char* stage : kStages) {
    double s = tr.total(std::string(stage) + "_s");
    if (std::string(stage) == "sa.perf.place") s -= tr.total("sa.perf.phi_s");
    s /= divisor;
    if (s <= 0) continue;
    rows.emplace_back(stage, s);
    total += s;
  }
  std::printf("%s stages (busy seconds; share of the scope's stage total):\n",
              scope);
  for (const auto& [name, s] : rows) {
    std::printf("  %-24s %10.4f s %6.1f%%\n", name.c_str(), s,
                100.0 * s / total);
  }
}

int traced_run(const Workload& w, const Args& a, unsigned threads) {
  Tracer setup_tr, pass_tr;
  Tally tally;

  double t0 = wall_now();
  const Setup ref = make_setup(w);
  const double ref_setup_s = wall_now() - t0;
  t0 = wall_now();
  const Setup comp = make_setup_traced(w, setup_tr);
  const double comp_setup_s = wall_now() - t0;
  if (!same_contexts(ref, comp)) {
    std::fprintf(stderr, "composed build_perf_context differs\n");
    tally.correct = false;
  }
  const std::vector<Checker> ref_checkers = make_checkers(ref);
  const std::vector<Checker> comp_checkers = make_checkers(comp);

  double untraced_s = 0, traced_s = 0;
  std::vector<double> max_flow_s;
  int passes = 0;
  const double start = wall_now();
  do {
    const std::vector<Call>& calls = w.passes[passes % w.passes.size()];
    std::vector<Outcome> expected;
    double slowest = 0;
    ObsCounters before = ObsCounters::read();
    for (const Call& call : calls) {
      Timed t = run_public(ref, call);
      untraced_s += t.wall_s;
      slowest = std::max(slowest, t.wall_s);
      ref_checkers[call.case_index].check(t.out);
      t.out.placement.reset();
      tally.count(w, call, t.out);
      expected.push_back(std::move(t.out));
    }
    const ObsCounters ref_d = ObsCounters::read() - before;
    max_flow_s.push_back(slowest);

    const double attempts0 = pass_tr.total("legal.chain_attempts");
    before = ObsCounters::read();
    for (std::size_t k = 0; k < calls.size(); ++k) {
      const Call& call = calls[k];
      const double c0 = wall_now();
      Outcome o = run_composed(comp, call, pass_tr);
      traced_s += wall_now() - c0;
      comp_checkers[call.case_index].check(o);
      o.placement.reset();
      tally.count(w, call, o);
      if (!o.same_result(expected[k])) {
        std::fprintf(stderr,
                     "composed flow differs: %s: hpwl %.17g vs %.17g, area "
                     "%.17g vs %.17g, legal %d vs %d, fallback %s vs %s\n",
                     describe(w, call).c_str(), o.hpwl, expected[k].hpwl,
                     o.area, expected[k].area, o.legal, expected[k].legal,
                     core::to_string(o.fallback),
                     core::to_string(expected[k].fallback));
        tally.correct = false;
      }
    }
    const ObsCounters comp_d = ObsCounters::read() - before;
    // The composition must also do the same work as the flows, as the
    // program's own counters see it.
    const double attempts = pass_tr.total("legal.chain_attempts") - attempts0;
    if (comp_d.gp_iterations != ref_d.gp_iterations ||
        comp_d.density_evals != ref_d.density_evals ||
        comp_d.fft_transforms != ref_d.fft_transforms ||
        comp_d.sa_moves != ref_d.sa_moves ||
        comp_d.sa_accepts != ref_d.sa_accepts ||
        attempts != ref_d.legal_attempts) {
      std::fprintf(stderr, "composed flows did different work than the "
                           "flows (obs counter deltas differ)\n");
      tally.correct = false;
    }
    ++passes;
  } while (wall_now() - start < a.seconds);

  // Per-layer values cover one traced set-up plus one traced pass.
  const double np = passes;
  auto T = [&](const std::string& key) {
    return setup_tr.total(key) + pass_tr.total(key) / np;
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };

  std::vector<Metric> m = {
      {"netlist.compile_s", T("netlist.compile_s"), "s"},
      {"netlist.evaluate_s", T("netlist.evaluate_s"), "s"},
      {"gp.eplace.run_s", T("gp.eplace.run_s"), "s"},
      {"gp.eplace.iterations", T("gp.eplace.iterations"), "count"},
      {"gp.eplace.s_per_iter",
       ratio(T("gp.eplace.run_s"), T("gp.eplace.iterations")), "s"},
      {"gp.ntu.run_s", T("gp.ntu.run_s"), "s"},
      {"gp.ntu.iterations", T("gp.ntu.iterations"), "count"}};
  for (const char* term :
       {"wirelength", "density", "area", "symmetry", "gnn-phi"}) {
    const std::string k = std::string("gp.term.") + term;
    m.push_back({k + ".s", T(k + ".s"), "s"});
    m.push_back({k + ".evals", T(k + ".evals"), "count"});
  }
  const std::vector<Metric> rest = {
      {"density.evals", T("density.evals"), "count"},
      {"fft.transforms2d", T("fft.transforms2d"), "count"},
      {"legal.ilp.place_s", T("legal.ilp.place_s"), "s"},
      {"legal.ilp.calls", T("legal.ilp.calls"), "count"},
      {"legal.ilp.bb_nodes", T("legal.ilp.bb_nodes"), "count"},
      {"legal.ilp.ok_frac", ratio(T("legal.ilp.ok"), T("legal.ilp.calls")),
       "frac"},
      {"legal.ilp.snapped_frac",
       ratio(T("legal.ilp.snapped"), T("legal.ilp.calls")), "frac"},
      {"legal.rounded_lp.calls", T("legal.rounded_lp.calls"), "count"},
      {"legal.two_stage.place_s", T("legal.two_stage.place_s"), "s"},
      {"legal.two_stage.ok_frac",
       ratio(T("legal.two_stage.ok"), T("legal.two_stage.calls")), "frac"},
      {"legal.greedy.calls", T("legal.greedy.calls"), "count"},
      {"legal.attempts", T("legal.chain_attempts"), "count"},
      {"sa.moves", T("sa.moves"), "count"},
      {"sa.accept_ratio", ratio(T("sa.accepts"), T("sa.moves")), "frac"},
      {"sa.net_eval_ratio",
       ratio(T("sa.nets_evaluated"), T("sa.nets_total")), "frac"},
      {"sa.perf.place_s", T("sa.perf.place_s"), "s"},
      {"sa.perf.moves_per_s", ratio(T("sa.moves"), T("sa.perf.place_s")),
       "1/s"},
      {"sa.sample_s", T("sa.sample_s"), "s"},
      {"gnn.train_s", T("gnn.train_s"), "s"},
      {"gnn.epochs", ratio(T("gnn.epochs"), T("gnn.contexts")), "count"},
      {"gnn.validation_accuracy",
       ratio(T("gnn.validation_accuracy"), T("gnn.contexts")), "frac"},
      {"gnn.phi_s", T("gnn.phi_s"), "s"},
      {"gnn.phi_calls", T("gnn.phi_calls"), "count"},
      {"route.route_s", T("route.route_s"), "s"},
      {"route.calls", T("route.calls"), "count"},
      {"perf.evaluate_s", T("perf.evaluate_s"), "s"},
      {"core.pass_s", untraced_s / np, "s"},
      {"core.max_flow_s", median(max_flow_s), "s"},
      {"core.candidate.max_over_mean",
       ratio(T("core.candidate.max_over_mean_sum"),
             T("core.candidate.flows")),
       "ratio"},
      {"pool.tasks", T("pool.tasks"), "count"},
      {"pool.task_wait_s", T("pool.task_wait_s"), "s"},
      {"pool.threads", static_cast<double>(threads), "count"},
      {"trace.overhead_frac", ratio(traced_s, untraced_s) - 1.0, "frac"}};
  m.insert(m.end(), rest.begin(), rest.end());

  std::printf("workload %s, seed %llu, %u threads, %d traced passes\n",
              w.name.c_str(), static_cast<unsigned long long>(a.seed),
              threads, passes);
  std::printf("set-up: %.3f s public, %.3f s composed; pass: %.3f s public, "
              "%.3f s composed\n",
              ref_setup_s, comp_setup_s, untraced_s / np, traced_s / np);
  print_stage_table("set-up", setup_tr, 1.0);
  print_stage_table("pass", pass_tr, np);
  if (!a.trace_file.empty()) write_trace_file(a.trace_file, setup_tr, pass_tr);
  print_result(tally.correct, tally.attempted, tally.failed, m);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <eplace-a|perf-driven>"
                 " --seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-file <path>]\n");
    return 2;
  }
  const std::optional<Workload> w = make_workload(a.workload, a.seed);
  if (!w.has_value()) {
    std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  const unsigned threads = configure_pool();
  return a.trace == 1 ? traced_run(*w, a, threads) : timed_run(*w, a, threads);
}
