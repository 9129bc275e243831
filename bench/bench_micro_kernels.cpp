// google-benchmark microbenchmarks of the computational kernels: spectral
// Poisson solve, WA wirelength gradient, LP solve, sequence-pair packing,
// GNN forward+backward (plus a quick-mode GNN table against the dense
// oracle and a quick-mode round-0 MILP row). Useful for tracking
// performance regressions of the inner loops that dominate the flows.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "base/simd.hpp"
#include "bench_common.hpp"
#include "circuits/testcases.hpp"
#include "density/electro.hpp"
#include "gnn/graph.hpp"
#include "gnn/model.hpp"
#include "gnn/workspace.hpp"
#include "gp/eplace_gp.hpp"
#include "kernel_oracle.hpp"
#include "legal/ilp_detailed.hpp"
#include "netlist/compiled.hpp"
#include "netlist/evaluator.hpp"
#include "numeric/fft.hpp"
#include "numeric/rng.hpp"
#include "obs/metrics.hpp"
#include "sa/annealer.hpp"
#include "sa/sequence_pair.hpp"
#include "solver/lp.hpp"
#include "solver/milp.hpp"
#include "wirelength/smooth_wl.hpp"

namespace {

using namespace aplace;

std::vector<double> spread(const netlist::Circuit& c) {
  const std::size_t n = c.num_devices();
  std::vector<double> v(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = 2.0 * static_cast<double>(i % 6) + 1;
    v[n + i] = 2.0 * static_cast<double>(i / 6) + 1;
  }
  return v;
}

// Microseconds per call of fn, best of three timed repetitions of `reps`
// calls: the run least disturbed by machine load, same policy as the SA
// table. Shared by the SIMD and GNN tables.
template <typename Fn>
double best_of3(int reps, const Fn& fn) {
  using clock = std::chrono::steady_clock;
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = clock::now();
    for (int i = 0; i < reps; ++i) fn();
    const double us =
        std::chrono::duration<double, std::micro>(clock::now() - t0).count() /
        reps;
    best = std::min(best, us);
  }
  return best;
}

void BM_ElectroSolve(benchmark::State& state) {
  circuits::TestCase tc = circuits::make_testcase("CC-OTA");
  const auto bins = static_cast<std::size_t>(state.range(0));
  density::ElectroDensity ed(tc.circuit, {0, 0, 16, 16}, bins, bins, 0.85);
  const std::vector<double> v = spread(tc.circuit);
  std::vector<double> g(v.size(), 0.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ed.value_and_grad(v, g, 1.0));
  }
}
BENCHMARK(BM_ElectroSolve)->Arg(16)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

// Full 2D spectral Poisson solve as ElectroDensity runs it (analysis plus
// both field syntheses; the energy comes from the coefficients by
// Parseval, so no potential is synthesized) on one random density matrix,
// FFT path vs. dense-basis oracle.
numeric::Matrix random_density(std::size_t bins) {
  numeric::Matrix m(bins, bins);
  numeric::Rng rng(7);
  for (double& x : m.data()) x = rng.uniform(0, 1);
  return m;
}

void spectral_solve_fft(const numeric::Matrix& m,
                        const numeric::fft::FftPlan& px,
                        const numeric::fft::FftPlan& py, numeric::Matrix& ex,
                        numeric::Matrix& ey) {
  using namespace numeric::fft;
  std::copy(m.data().begin(), m.data().end(), ex.data().begin());
  dct2d_inplace(ex, px, py);
  std::copy(ex.data().begin(), ex.data().end(), ey.data().begin());
  isxcy2d_inplace(ex, px, py);
  icxsy2d_inplace(ey, px, py);
}

void spectral_solve_naive(const numeric::Matrix& m,
                          const oracle::DenseBasis& bx,
                          const oracle::DenseBasis& by, numeric::Matrix& ex,
                          numeric::Matrix& ey) {
  const numeric::Matrix a = oracle::dct2d(m, bx, by);
  ex = oracle::isxcy2d(a, bx, by);
  ey = oracle::icxsy2d(a, bx, by);
}

void BM_SpectralSolveFft(benchmark::State& state) {
  const auto bins = static_cast<std::size_t>(state.range(0));
  const numeric::fft::FftPlan bx(bins), by(bins);
  numeric::Matrix m = random_density(bins);
  numeric::Matrix ex(bins, bins), ey(bins, bins);
  for (auto _ : state) {
    spectral_solve_fft(m, bx, by, ex, ey);
    benchmark::DoNotOptimize(ex.data().data());
  }
}
BENCHMARK(BM_SpectralSolveFft)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_SpectralSolveNaive(benchmark::State& state) {
  const auto bins = static_cast<std::size_t>(state.range(0));
  const oracle::DenseBasis bx(bins), by(bins);
  const numeric::Matrix m = random_density(bins);
  numeric::Matrix ex(bins, bins), ey(bins, bins);
  for (auto _ : state) {
    spectral_solve_naive(m, bx, by, ex, ey);
    benchmark::DoNotOptimize(ex.data().data());
  }
}
BENCHMARK(BM_SpectralSolveNaive)->Arg(64)->Arg(128)->Arg(256);

void BM_WaWirelengthGrad(benchmark::State& state) {
  circuits::TestCase tc = circuits::make_testcase("SCF");
  wirelength::WaWirelength wl(tc.circuit);
  wl.set_gamma(1.0);
  const std::vector<double> v = spread(tc.circuit);
  std::vector<double> g(v.size(), 0.0);
  for (auto _ : state) {
    std::fill(g.begin(), g.end(), 0.0);
    benchmark::DoNotOptimize(wl.value_and_grad(v, g));
  }
}
BENCHMARK(BM_WaWirelengthGrad);

void BM_LpSolveChain(benchmark::State& state) {
  // Placement-like separation-chain LP of the given size.
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    solver::LpProblem p;
    std::vector<int> xs;
    for (int i = 0; i < n; ++i) {
      xs.push_back(p.add_variable(1, solver::kInf, i == n - 1 ? 1.0 : 0.0));
    }
    for (int i = 0; i + 1 < n; ++i) {
      p.add_constraint({{xs[i], 1}, {xs[i + 1], -1}}, solver::Relation::LessEq,
                       -2.0);
    }
    benchmark::DoNotOptimize(solve_lp(p));
  }
}
BENCHMARK(BM_LpSolveChain)->Arg(20)->Arg(60)->Arg(120);

void BM_SequencePairPack(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  sa::SequencePair sp(n);
  numeric::Rng rng(1);
  sp.shuffle(rng);
  std::vector<double> w(n), h(n);
  for (std::size_t i = 0; i < n; ++i) {
    w[i] = rng.uniform(1, 4);
    h[i] = rng.uniform(1, 4);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(sp.pack(w, h));
  }
}
BENCHMARK(BM_SequencePairPack)->Arg(10)->Arg(30)->Arg(60);

void BM_SequencePairPackNaive(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  sa::SequencePair sp(n);
  numeric::Rng rng(1);
  sp.shuffle(rng);
  std::vector<double> w(n), h(n);
  for (std::size_t i = 0; i < n; ++i) {
    w[i] = rng.uniform(1, 4);
    h[i] = rng.uniform(1, 4);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle::pack_naive(sp, w, h));
  }
}
BENCHMARK(BM_SequencePairPackNaive)->Arg(10)->Arg(30)->Arg(60);

void BM_GnnForwardBackward(benchmark::State& state) {
  circuits::TestCase tc = circuits::make_testcase("CM-OTA2");
  gnn::CircuitGraph graph(tc.circuit, 15.0);
  gnn::GnnModel model;
  numeric::Rng rng(2);
  model.initialize(rng);
  const std::vector<double> v = spread(tc.circuit);
  gnn::Workspace ws;
  std::vector<double> grad(v.size());
  for (auto _ : state) {
    std::fill(grad.begin(), grad.end(), 0.0);
    benchmark::DoNotOptimize(model.phi_and_grad(graph, v, ws, grad));
  }
}
BENCHMARK(BM_GnnForwardBackward);

// Per-term objective breakdown of both analytical placers on one circuit:
// where the gradient time goes (spectral solve vs. wirelength vs. penalty
// terms) and what each term's weight/value ended at. The trace rows land in
// BENCH_micro_kernels.json under "term_traces".
void print_gp_term_breakdown(bench::JsonReport& json) {
  const std::string circuit = "CC-OTA";
  circuits::TestCase tc = circuits::make_testcase(circuit);
  std::printf("\n==== analytical placers: objective-term breakdown ====\n");

  const core::FlowResult ep =
      core::run_eplace_a(tc.circuit, bench::paper_eplace_options());
  bench::print_term_trace("ePlace-A (" + circuit + ")", ep.gp_trace);
  json.add_term_trace(circuit, "eplace-a", ep.gp_trace);

  const core::FlowResult pw =
      core::run_prior_work(tc.circuit, bench::paper_prior_options());
  bench::print_term_trace("prior-work (" + circuit + ")", pw.gp_trace);
  json.add_term_trace(circuit, "prior-work", pw.gp_trace);
}

// Quick-mode SA kernel table: the annealer (incremental cost engine) on
// the largest paper circuit at a fixed move budget, plus the naive-vs-LCS
// packing kernel on its own. The SA row carries moves_per_sec, which the
// regression gate rate-checks, so a change that silently destroys
// annealing throughput fails CI.
void print_sa_kernel_table(bench::JsonReport& json) {
  using clock = std::chrono::steady_clock;

  std::string largest;
  std::size_t most = 0;
  for (const std::string& name : circuits::testcase_names()) {
    const std::size_t n = circuits::make_testcase(name).circuit.num_devices();
    if (n > most) {
      most = n;
      largest = name;
    }
  }
  circuits::TestCase tc = circuits::make_testcase(largest);
  const netlist::Evaluator eval(tc.circuit);
  std::printf("\n==== SA cost engine (%s, %zu devices) ====\n",
              largest.c_str(), most);
  std::printf("%-22s %12s %12s %12s %10s %7s\n", "engine", "anneal (s)",
              "moves/sec", "hpwl", "area", "legal");

  sa::SaOptions o = bench::paper_sa_options();
  o.seed = 1;
  // Fixed move budget: the quick default (20k moves, tens of ms) is
  // timer-noise dominated.
  o.max_moves = bench::quick_mode() ? 150000 : 400000;
  // Best of three: the anneal is deterministic for a fixed seed, so reps
  // agree on every metric except wall time; max moves/sec is the run least
  // disturbed by machine load.
  sa::SaResult r = sa::SaPlacer(tc.circuit, o).place();
  for (int rep = 1; rep < 3; ++rep) {
    sa::SaResult again = sa::SaPlacer(tc.circuit, o).place();
    if (again.moves_per_second > r.moves_per_second) r = std::move(again);
  }
  const netlist::QualityReport q = eval.evaluate(r.placement);
  std::printf("%-22s %12.3f %12.0f %12.2f %10.2f %7s\n",
              "sa-anneal-incremental", r.anneal_seconds, r.moves_per_second,
              q.hpwl, q.area, q.legal(1e-6) ? "yes" : "NO");
  std::printf("net evals/move: %.0f%% of a full recompute\n",
              100.0 * r.eval_stats.net_eval_ratio());
  json.add_sa_run(largest, "sa-anneal-incremental", o.seed, r.anneal_seconds,
                  q.hpwl, q.area, q.legal(1e-6), r.moves_per_second);
  // Per-move evaluation latency as its own timed row.
  json.add_timing(largest, "sa-move-eval-incremental",
                  r.moves_evaluated > 0
                      ? r.anneal_seconds /
                            static_cast<double>(r.moves_evaluated)
                      : 0.0);
  json.add_metric("sa_net_eval_ratio", r.eval_stats.net_eval_ratio());

  // Packing kernel alone, naive longest-path vs. Tang-Wong LCS.
  std::printf("\n%-10s %14s %14s %10s\n", "blocks", "naive (us)", "lcs (us)",
              "speedup");
  for (const std::size_t n : {30u, 120u, 480u}) {
    sa::SequencePair sp(n);
    numeric::Rng rng(3);
    sp.shuffle(rng);
    std::vector<double> w(n), h(n);
    for (std::size_t i = 0; i < n; ++i) {
      w[i] = rng.uniform(1, 4);
      h[i] = rng.uniform(1, 4);
    }
    sa::SequencePair::Packing pk;
    const int reps = n >= 480 ? 200 : 2000;
    auto t0 = clock::now();
    for (int i = 0; i < reps; ++i) pk = oracle::pack_naive(sp, w, h);
    const double naive_us =
        std::chrono::duration<double, std::micro>(clock::now() - t0).count() /
        reps;
    t0 = clock::now();
    for (int i = 0; i < reps; ++i) sp.pack_into(w, h, pk);
    const double lcs_us =
        std::chrono::duration<double, std::micro>(clock::now() - t0).count() /
        reps;
    std::printf("%-10zu %14.2f %14.2f %9.1fx\n", n, naive_us, lcs_us,
                naive_us / lcs_us);
    char label[32];
    std::snprintf(label, sizeof label, "n=%zu", n);
    json.add_timing(label, "seqpair-pack-naive", naive_us / 1e6);
    json.add_timing(label, "seqpair-pack-lcs", lcs_us / 1e6);
  }
}

// Quick-mode GNN table on CC-OTA, the sparse allocation-free kernel against
// the dense oracle it replaced (bit-identical results, so only time
// differs):
//   gnn-phi          forward only: core::gnn_phi, once per perf-driven SA
//                    move and ePlace-AP candidate score
//   gnn-phi-grad     forward + input-gradient backward: gnn::PhiTerm, once
//                    per ePlace-AP / Perf* GP step
//   gnn-train-epoch  one training epoch, forward + weight-gradient
//                    backward over 618 samples (the training split of the
//                    default 772-sample dataset)
// Rows are timings only; no speedup metric is gated.
void print_gnn_table(bench::JsonReport& json) {
  const std::string circuit = "CC-OTA";
  circuits::TestCase tc = circuits::make_testcase(circuit);
  const netlist::CompiledCircuit cc(tc.circuit);
  const double scale = std::sqrt(tc.circuit.total_device_area() / 0.5);
  const gnn::CircuitGraph graph(tc.circuit, scale);
  gnn::GnnModel model;
  numeric::Rng rng(5);
  model.initialize(rng);
  const oracle::DenseGnn dense(cc, scale, model.parameters());
  const std::size_t n = graph.num_nodes();
  std::vector<std::vector<double>> samples(618, std::vector<double>(2 * n));
  for (std::vector<double>& v : samples) {
    for (double& x : v) x = rng.uniform(0.0, scale);
  }
  std::printf("\n==== GNN kernel (%s, %zu devices, %zu/%zu A~ nonzeros) ====\n",
              circuit.c_str(), n, graph.adjacency().nnz(), n * n);
  std::printf("%-16s %14s %14s %10s\n", "row", "oracle (us)", "kernel (us)",
              "speedup");

  const auto row = [&](const char* name, double oracle_us, double kernel_us) {
    std::printf("%-16s %14.2f %14.2f %9.2fx\n", name, oracle_us, kernel_us,
                oracle_us / kernel_us);
    json.add_timing(circuit, name, kernel_us / 1e6);
    json.add_timing(circuit, std::string(name) + "-oracle", oracle_us / 1e6);
  };

  double sink = 0;
  gnn::Workspace ws;
  std::vector<double> grad_v(2 * n), grad_w(gnn::GnnModel::kNumParameters);
  std::size_t next = 0;
  const auto sample = [&]() -> const std::vector<double>& {
    return samples[next++ % samples.size()];
  };
  const int reps = bench::quick_mode() ? 2000 : 20000;
  {
    const double oracle_us = best_of3(reps, [&] {
      oracle::DenseGnn::Activations act;
      sink += dense.forward(dense.features(sample()).x, act);
    });
    const double kernel_us =
        best_of3(reps, [&] { sink += model.forward(graph, sample(), ws); });
    row("gnn-phi", oracle_us, kernel_us);
  }
  {
    const double oracle_us = best_of3(reps, [&] {
      std::fill(grad_v.begin(), grad_v.end(), 0.0);
      sink += dense.phi_and_position_grad(sample(), grad_v);
    });
    const double kernel_us = best_of3(reps, [&] {
      std::fill(grad_v.begin(), grad_v.end(), 0.0);
      sink += model.phi_and_grad(graph, sample(), ws, grad_v);
    });
    row("gnn-phi-grad", oracle_us, kernel_us);
  }
  {
    const int epochs = bench::quick_mode() ? 2 : 10;
    const double oracle_us = best_of3(epochs, [&] {
      std::fill(grad_w.begin(), grad_w.end(), 0.0);
      for (const std::vector<double>& v : samples) {
        oracle::DenseGnn::Activations act;
        const double phi = dense.forward(dense.features(v).x, act);
        dense.backward(act, phi - 0.5, grad_w, nullptr);
      }
      sink += grad_w[0];
    });
    gnn::GnnModel::GradTerms terms;
    const double kernel_us = best_of3(epochs, [&] {
      std::fill(grad_w.begin(), grad_w.end(), 0.0);
      for (const std::vector<double>& v : samples) {
        const double phi = model.forward(graph, v, ws);
        model.weight_terms(graph, ws, phi - 0.5, terms);
        gnn::GnnModel::add_terms(terms, grad_w, 0,
                                 gnn::GnnModel::kNumParameters);
      }
      sink += grad_w[0];
    });
    row("gnn-train-epoch", oracle_us, kernel_us);
  }
  benchmark::DoNotOptimize(sink);
}

// ---- MILP round 0 -------------------------------------------------------
// The x-block of VCO2's round-0 ILP, built from an ePlace global placement
// (default options), solved by solve_milp() at the placer's round-0 node
// budget. Reports the time and, from the solver/ counters, the
// branch-and-bound nodes, LP solves and pivots of one call.
void print_milp_table(bench::JsonReport& json) {
  const std::string circuit = "VCO2";
  circuits::TestCase tc = circuits::make_testcase(circuit);
  const netlist::Circuit& c = tc.circuit;
  const std::vector<double> v =
      gp::EPlaceGlobalPlacer(c, gp::EPlaceGpOptions{}).run().positions;
  const legal::IlpOptions iopts;
  const solver::LpProblem round0 =
      legal::IlpDetailedPlacer(c, iopts).round0_problem(v);
  const solver::LpProblem block = solver::split_blocks(round0).at(0).problem;
  solver::MilpOptions mopts;
  mopts.max_nodes = legal::kRound0MaxNodes;

  const auto counter = [](const char* name) -> double {
    const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().scrape();
    const obs::MetricsSnapshot::CounterRow* row = snap.find_counter(name);
    return row != nullptr ? static_cast<double>(row->value) : 0.0;
  };
  const double solves0 = counter("solver/lp_solves");
  const double pivots0 = counter("solver/pivots");
  const solver::MilpSolution s = solver::solve_milp(block, mopts);
  const double solves = counter("solver/lp_solves") - solves0;
  const double pivots = counter("solver/pivots") - pivots0;

  double sink = 0;
  const double us = best_of3(bench::quick_mode() ? 1 : 5, [&] {
    sink += solver::solve_milp(block, mopts).objective;
  });
  benchmark::DoNotOptimize(sink);
  std::printf("\n==== MILP round 0 (%s x-block: %zu variables, %zu rows) ====\n",
              circuit.c_str(), block.num_variables(), block.num_constraints());
  std::printf("%-14s %12s %10s %10s %10s\n", "row", "time (ms)", "nodes",
              "lp_solves", "pivots");
  std::printf("%-14s %12.2f %10ld %10.0f %10.0f\n", "milp-round0", us / 1e3,
              s.nodes_explored, solves, pivots);
  json.add_timing(circuit, "milp-round0", us / 1e6);
  json.add_metric("milp-round0_lp_solves", solves);
  json.add_metric("milp-round0_pivots", pivots);
}

// Exact HPWL through the AoS path: walk Net/Pin objects and ask the
// Placement for each pin position. This is what every engine did before the
// compiled flat core existed — kept here as the "before" side of the
// hpwl-flat comparison.
double hpwl_via_placement(const netlist::Circuit& c,
                          const netlist::Placement& p) {
  double total = 0;
  for (std::size_t n = 0; n < c.num_nets(); ++n) {
    const netlist::Net& net = c.net(NetId{n});
    if (net.degree() < 2) continue;
    double xmin = 0, xmax = 0, ymin = 0, ymax = 0;
    bool first = true;
    for (const PinId pid : net.pins) {
      const geom::Point pt = p.pin_position(pid);
      if (first) {
        xmin = xmax = pt.x;
        ymin = ymax = pt.y;
        first = false;
      } else {
        xmin = std::min(xmin, pt.x);
        xmax = std::max(xmax, pt.x);
        ymin = std::min(ymin, pt.y);
        ymax = std::max(ymax, pt.y);
      }
    }
    total += net.weight * ((xmax - xmin) + (ymax - ymin));
  }
  return total;
}

// The same HPWL over the compiled wirelength table and flat SoA coordinates:
// pin position = device center + precomputed center-relative offset, no
// object indirection. Matches hpwl_via_placement exactly for unflipped
// devices (the wl table bakes in the unflipped offsets).
double hpwl_via_flat(const netlist::CompiledCircuit& cc,
                     const netlist::PlacementState& s) {
  const std::span<const double> weight = cc.wl_weight();
  double total = 0;
  for (std::size_t i = 0; i < cc.num_wl_nets(); ++i) {
    const std::span<const std::uint32_t> dev = cc.wl_pin_device(i);
    const std::span<const double> dx = cc.wl_pin_dx(i);
    const std::span<const double> dy = cc.wl_pin_dy(i);
    double xmin = s.x[dev[0]] + dx[0], xmax = xmin;
    double ymin = s.y[dev[0]] + dy[0], ymax = ymin;
    for (std::size_t k = 1; k < dev.size(); ++k) {
      const double x = s.x[dev[k]] + dx[k];
      const double y = s.y[dev[k]] + dy[k];
      xmin = std::min(xmin, x);
      xmax = std::max(xmax, x);
      ymin = std::min(ymin, y);
      ymax = std::max(ymax, y);
    }
    total += weight[i] * ((xmax - xmin) + (ymax - ymin));
  }
  return total;
}

// Quick-mode compiled-core table: CompiledCircuit construction cost per
// circuit (compile-topology) and exact HPWL over the flat wirelength table
// vs. the AoS Placement walk (hpwl-flat vs. hpwl-placement). The regression
// gate tracks all three rows, so the flat path silently regressing below
// the AoS path fails CI.
void print_compiled_core_table(bench::JsonReport& json) {
  using clock = std::chrono::steady_clock;
  std::printf("\n==== compiled flat-netlist core ====\n");
  std::printf("%-10s %14s %16s %14s %10s\n", "circuit", "compile (us)",
              "hpwl-plc (us)", "hpwl-flat (us)", "speedup");
  for (const char* name : {"CC-OTA", "SCF"}) {
    circuits::TestCase tc = circuits::make_testcase(name);
    const netlist::Circuit& c = tc.circuit;

    const int compile_reps = 2000;
    auto t0 = clock::now();
    for (int i = 0; i < compile_reps; ++i) {
      netlist::CompiledCircuit cc(c);
      benchmark::DoNotOptimize(&cc);
    }
    const double compile_us =
        std::chrono::duration<double, std::micro>(clock::now() - t0).count() /
        compile_reps;

    const netlist::CompiledCircuit cc(c);
    netlist::Placement p(c);
    const std::vector<double> v = spread(c);
    const std::size_t n = c.num_devices();
    for (std::size_t i = 0; i < n; ++i) {
      p.set_position(DeviceId{i}, {v[i], v[n + i]});
    }
    const netlist::PlacementState state =
        netlist::PlacementState::from_placement(p);

    // One untimed pair of calls checks that the two paths agree. The two
    // sum the same terms in different orders, so compare relatively.
    const double hpwl_plc = hpwl_via_placement(c, p);
    const double hpwl_flat = hpwl_via_flat(cc, state);
    if (std::abs(hpwl_plc - hpwl_flat) > 1e-9 * std::abs(hpwl_plc)) {
      std::printf("WARNING: flat and placement HPWL disagree on %s "
                  "(%.17g vs %.17g)\n",
                  name, hpwl_plc, hpwl_flat);
    }

    // Every timed result goes through DoNotOptimize, so the compiler can
    // neither hoist the loop-invariant call nor drop it.
    const int reps = 20000;
    t0 = clock::now();
    for (int i = 0; i < reps; ++i) {
      double hpwl = hpwl_via_placement(c, p);
      benchmark::DoNotOptimize(hpwl);
    }
    const double plc_us =
        std::chrono::duration<double, std::micro>(clock::now() - t0).count() /
        reps;
    t0 = clock::now();
    for (int i = 0; i < reps; ++i) {
      double hpwl = hpwl_via_flat(cc, state);
      benchmark::DoNotOptimize(hpwl);
    }
    const double flat_us =
        std::chrono::duration<double, std::micro>(clock::now() - t0).count() /
        reps;

    std::printf("%-10s %14.2f %16.3f %14.3f %9.1fx\n", name, compile_us,
                plc_us, flat_us, plc_us / flat_us);
    json.add_timing(name, "compile-topology", compile_us / 1e6);
    json.add_timing(name, "hpwl-placement", plc_us / 1e6);
    json.add_timing(name, "hpwl-flat", flat_us / 1e6);
  }
}

// Quick-mode SIMD kernel table: scalar reference (tests/kernel_oracle.hpp)
// vs. the production Vec4d kernel, each timed best-of-3 on the largest
// paper circuit (docs/PERFORMANCE.md explains how to read the rows):
//   wa-grad-*  WA wirelength value+gradient over the compiled pin CSR
//   splat-*    electrostatic charge build (bilinear splat + normalize) on
//              a 256x256 bin grid
//   fft-simd   n=256: dct2+dct3+dst3 trio on one lane-major batch of four
//              lines (the Poisson solve's inner 1D transforms), reported
//              per line; 32x32: the production 2D solve at the ePlace-A
//              grid (dct2d plus both field syntheses). The FFT's oracles
//              (the dense basis, the per-line FFT) are not the rows'
//              subject, so the rows have no scalar counterpart
// The rows land in BENCH_micro_kernels.json and the *_simd_speedup metrics
// are gated by scripts/check_bench_regression.py, so losing the vector
// path (or a build change silently disabling it) fails CI.
void print_simd_kernel_table(bench::JsonReport& json) {
  std::string largest;
  std::size_t most = 0;
  for (const std::string& name : circuits::testcase_names()) {
    const std::size_t n = circuits::make_testcase(name).circuit.num_devices();
    if (n > most) {
      most = n;
      largest = name;
    }
  }
  circuits::TestCase tc = circuits::make_testcase(largest);
  std::printf(
      "\n==== SIMD kernels: scalar oracle vs %s (%s, %zu devices) ====\n",
      simd::dispatch_name(), largest.c_str(), most);
  std::printf("%-12s %14s %14s %10s\n", "kernel", "oracle (us)", "simd (us)",
              "speedup");

  const auto row = [&](const char* kernel, const std::string& label,
                       double scalar_us, double simd_us) {
    std::printf("%-12s %14.2f %14.2f %9.2fx\n", kernel, scalar_us, simd_us,
                scalar_us / simd_us);
    json.add_timing(label, std::string(kernel) + "-scalar", scalar_us / 1e6);
    json.add_timing(label, std::string(kernel) + "-simd", simd_us / 1e6);
    json.add_metric(std::string(kernel) + "_simd_speedup",
                    scalar_us / simd_us);
  };

  const std::vector<double> v = spread(tc.circuit);
  double sink = 0;

  // WA wirelength value + gradient over the full circuit.
  {
    const netlist::CompiledCircuit cc(tc.circuit);
    wirelength::WaWirelength wl(tc.circuit);
    wl.set_gamma(1.0);
    std::vector<double> g(v.size(), 0.0);
    const int reps = bench::quick_mode() ? 300 : 1000;
    const double scalar_us = best_of3(reps, [&] {
      std::fill(g.begin(), g.end(), 0.0);
      sink += oracle::wirelength_value_and_grad(cc, oracle::Smoothing::kWa,
                                                1.0, v, g);
    });
    const double simd_us = best_of3(reps, [&] {
      std::fill(g.begin(), g.end(), 0.0);
      sink += wl.value_and_grad(v, g);
    });
    row("wa-grad", largest, scalar_us, simd_us);
  }

  // Charge-density build (bilinear splat + normalize + overflow) at the
  // paper's largest grid. The tight region makes every device span many
  // bin columns, which is exactly the regime the 256x256 grids of the
  // production flows put the splat in.
  {
    const netlist::CompiledCircuit cc(tc.circuit);
    density::ElectroDensity ed(tc.circuit, {0, 0, 16, 16}, 256, 256, 0.85);
    numeric::Matrix rho(256, 256), occupancy(256, 256);
    const int reps = bench::quick_mode() ? 30 : 100;
    const double scalar_us = best_of3(reps, [&] {
      sink += oracle::build_density(cc, ed.grid(), v, rho, occupancy);
    });
    const double simd_us = best_of3(reps, [&] { ed.build_density(v); });
    row("splat", largest, scalar_us, simd_us);
  }

  // The Poisson solve's inner 1D transforms: forward DCT + both syntheses,
  // four lines per call, reported per line.
  {
    using numeric::fft::Kind;
    const std::size_t n = 256;
    numeric::fft::FftPlan plan(n);
    std::vector<double> in(4 * n), spec(4 * n), out(4 * n);
    for (std::size_t i = 0; i < in.size(); ++i) {
      in[i] = std::sin(0.7 * static_cast<double>(i / 4) + 0.1 * (i % 4));
    }
    const int reps = bench::quick_mode() ? 500 : 2500;
    const double batch_us = best_of3(reps, [&] {
      spec = in;
      plan.run(Kind::kDct2, spec.data(), 4);
      out = spec;
      plan.run(Kind::kDct3, out.data(), 4);
      out = spec;
      plan.run(Kind::kDst3, out.data(), 4);
      sink += out[1];
    });
    const double simd_us = batch_us / 4;
    std::printf("%-12s %14s %14.2f %10s\n", "fft", "-", simd_us, "-");
    json.add_timing("n=256", "fft-simd", simd_us / 1e6);
  }

  // The production 2D solve at the ePlace-A operating point.
  {
    const std::size_t bins = 32;
    const numeric::fft::FftPlan px(bins), py(bins);
    const numeric::Matrix m = random_density(bins);
    numeric::Matrix ex(bins, bins), ey(bins, bins);
    const int reps = bench::quick_mode() ? 2000 : 10000;
    const double simd_us = best_of3(reps, [&] {
      spectral_solve_fft(m, px, py, ex, ey);
      sink += ex(1, 1);
    });
    std::printf("%-12s %14s %14.2f %10s\n", "fft-2d-32", "-", simd_us, "-");
    json.add_timing("32x32", "fft-simd", simd_us / 1e6);
  }
  benchmark::DoNotOptimize(sink);
}

// Quick-mode before/after table: times the full 2D spectral solve on the
// dense-basis (before) and FFT (after) paths without the google-benchmark
// harness, so `APLACE_QUICK=1 ./bench_micro_kernels` prints the comparison
// in a second or two.
void print_spectral_table() {
  using clock = std::chrono::steady_clock;
  bench::JsonReport json("micro_kernels");
  std::printf("==== spectral Poisson solve: dense basis vs. FFT ====\n");
  std::printf("%8s %14s %14s %10s\n", "bins", "naive (ms)", "fft (ms)",
              "speedup");
  for (const std::size_t bins : {32u, 64u, 128u, 256u}) {
    const oracle::DenseBasis dx(bins), dy(bins);
    const numeric::fft::FftPlan px(bins), py(bins);
    numeric::Matrix m = random_density(bins);
    numeric::Matrix ex(bins, bins), ey(bins, bins);

    // One warm-up each (touches caches).
    spectral_solve_naive(m, dx, dy, ex, ey);
    spectral_solve_fft(m, px, py, ex, ey);

    const int naive_reps = bins >= 256 ? 3 : 10;
    auto t0 = clock::now();
    for (int i = 0; i < naive_reps; ++i) {
      spectral_solve_naive(m, dx, dy, ex, ey);
    }
    const double naive_ms =
        std::chrono::duration<double, std::milli>(clock::now() - t0).count() /
        naive_reps;

    const int fft_reps = bins <= 32 ? 500 : 50;
    t0 = clock::now();
    for (int i = 0; i < fft_reps; ++i) {
      spectral_solve_fft(m, px, py, ex, ey);
    }
    const double fft_ms =
        std::chrono::duration<double, std::milli>(clock::now() - t0).count() /
        fft_reps;

    std::printf("%5zux%zu %14.3f %14.3f %9.1fx\n", bins, bins, naive_ms,
                fft_ms, naive_ms / fft_ms);
    char label[32];
    std::snprintf(label, sizeof label, "%zux%zu", bins, bins);
    json.add_timing(label, "spectral-naive", naive_ms / 1e3);
    json.add_timing(label, "spectral-fft", fft_ms / 1e3);
  }
  print_simd_kernel_table(json);
  print_compiled_core_table(json);
  print_sa_kernel_table(json);
  print_gnn_table(json);
  print_milp_table(json);
  print_gp_term_breakdown(json);
  json.write();
}

}  // namespace

int main(int argc, char** argv) {
  const char* quick = std::getenv("APLACE_QUICK");
  if (quick != nullptr && quick[0] != '\0' && quick[0] != '0') {
    print_spectral_table();
    return 0;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
