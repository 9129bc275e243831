// Paper Table VII: area / wirelength / runtime of the three
// performance-driven methods. Analytical methods should stay ahead on
// area+HPWL with a ~3x (not ~50x) runtime edge — GNN gradients are the
// expensive part of analytical perf-driven placement.

#include "bench_common.hpp"

int main() {
  using namespace aplace;
  bench::header("Table VII: performance-driven area/HPWL/runtime comparison");
  std::printf("%-8s | %22s | %22s | %22s\n", "", "perf-driven SA [19]",
              "Perf* of [11]", "ePlace-AP");
  std::printf("%-8s | %7s %7s %6s | %7s %7s %6s | %7s %7s %6s\n", "Design",
              "Area", "HPWL", "t(s)", "Area", "HPWL", "t(s)", "Area", "HPWL",
              "t(s)");

  bench::JsonReport json("table7_perf");
  std::vector<double> sa_a, sa_h, sa_t, pw_a, pw_h, pw_t, ep_a, ep_h, ep_t;
  for (const std::string& name : circuits::testcase_names()) {
    circuits::TestCase tc = circuits::make_testcase(name);
    const netlist::Circuit& c = tc.circuit;

    auto ctx = core::build_perf_context(c, tc.spec,
                                        bench::paper_dataset_options(),
                                        bench::paper_train_options());

    core::SaFlowOptions sp;
    sp.sa = bench::paper_sa_perf_options();
    const core::PerfFlowResult sa = core::run_sa_perf(c, *ctx, sp, 1.0);
    const core::PerfFlowResult pw =
        core::run_prior_work_perf(c, *ctx, bench::paper_prior_options());
    const core::PerfFlowResult ep =
        core::run_eplace_ap(c, *ctx, bench::paper_eplace_options());
    json.add_flow(name, "sa-perf", sp.sa.seed, sa.flow);
    json.add_flow(name, "prior-work-perf", 0, pw.flow);
    json.add_flow(name, "eplace-ap", 0, ep.flow);

    std::printf(
        "%-8s | %7.1f %7.1f %6.1f | %7.1f %7.1f %6.1f | %7.1f %7.1f %6.1f\n",
        name.c_str(), sa.flow.area(), sa.flow.hpwl(), sa.flow.total_seconds,
        pw.flow.area(), pw.flow.hpwl(), pw.flow.total_seconds, ep.flow.area(),
        ep.flow.hpwl(), ep.flow.total_seconds);
    std::fflush(stdout);
    sa_a.push_back(sa.flow.area());  sa_h.push_back(sa.flow.hpwl());
    sa_t.push_back(sa.flow.total_seconds);
    pw_a.push_back(pw.flow.area());  pw_h.push_back(pw.flow.hpwl());
    pw_t.push_back(pw.flow.total_seconds);
    ep_a.push_back(ep.flow.area());  ep_h.push_back(ep.flow.hpwl());
    ep_t.push_back(ep.flow.total_seconds);
  }

  std::printf("\nAvg ratios vs ePlace-AP (paper: SA 1.09/1.02/3.09x, "
              "Perf* 1.14/1.13/1.01x):\n");
  std::printf("  perf-SA : area %.2fx  hpwl %.2fx  runtime %.2fx\n",
              bench::geomean_ratio(sa_a, ep_a),
              bench::geomean_ratio(sa_h, ep_h),
              bench::geomean_ratio(sa_t, ep_t));
  std::printf("  Perf*   : area %.2fx  hpwl %.2fx  runtime %.2fx\n",
              bench::geomean_ratio(pw_a, ep_a),
              bench::geomean_ratio(pw_h, ep_h),
              bench::geomean_ratio(pw_t, ep_t));
  json.add_metric("sa_vs_eplace_ap_area", bench::geomean_ratio(sa_a, ep_a));
  json.add_metric("sa_vs_eplace_ap_hpwl", bench::geomean_ratio(sa_h, ep_h));
  json.add_metric("sa_vs_eplace_ap_runtime",
                  bench::geomean_ratio(sa_t, ep_t));
  json.add_metric("prior_vs_eplace_ap_area",
                  bench::geomean_ratio(pw_a, ep_a));
  json.add_metric("prior_vs_eplace_ap_hpwl",
                  bench::geomean_ratio(pw_h, ep_h));
  json.write();
  return 0;
}
