// Paper Table V: FOM comparison — conventional vs performance-driven
// variants of SA, prior work [11] (Perf* extension) and ePlace-A/ePlace-AP.
// FOM evaluated by the routed surrogate "SPICE" (perf::PerformanceModel).

#include "bench_common.hpp"

int main() {
  using namespace aplace;
  bench::header("Table V: FOM, conventional vs performance-driven variants");
  std::printf("%-8s | %11s | %13s | %13s\n", "", "SA", "prior [11]",
              "ePlace-A/AP");
  std::printf("%-8s | %5s %5s | %6s %6s | %6s %6s\n", "Design", "Conv",
              "Perf", "Conv", "Perf*", "Conv", "Perf");

  bench::JsonReport json("table5_fom");
  double sum[6] = {0, 0, 0, 0, 0, 0};
  std::size_t count = 0;
  for (const std::string& name : circuits::testcase_names()) {
    circuits::TestCase tc = circuits::make_testcase(name);
    const netlist::Circuit& c = tc.circuit;

    auto ctx = core::build_perf_context(c, tc.spec,
                                        bench::paper_dataset_options(),
                                        bench::paper_train_options());

    // Conventional flows, evaluated by the same routed surrogate.
    core::SaFlowOptions so;
    so.sa = bench::paper_sa_options();
    const core::FlowResult sa_flow = core::run_sa(c, so);
    const double sa_conv = evaluate_routed(*ctx, sa_flow.placement).fom;
    const core::FlowResult pw_flow =
        core::run_prior_work(c, bench::paper_prior_options());
    const double pw_conv = evaluate_routed(*ctx, pw_flow.placement).fom;
    const core::FlowResult ep_flow =
        core::run_eplace_a(c, bench::paper_eplace_options());
    const double ep_conv = evaluate_routed(*ctx, ep_flow.placement).fom;
    json.add_flow(name, "sa", so.sa.seed, sa_flow);
    json.add_flow(name, "prior-work", 0, pw_flow);
    json.add_flow(name, "eplace-a", 0, ep_flow);

    // Performance-driven variants.
    core::SaFlowOptions sp;
    sp.sa = bench::paper_sa_perf_options();
    const core::PerfFlowResult sa_pr = core::run_sa_perf(c, *ctx, sp, 1.0);
    const double sa_perf = sa_pr.perf.fom;
    const core::PerfFlowResult pw_pr =
        core::run_prior_work_perf(c, *ctx, bench::paper_prior_options());
    const double pw_perf = pw_pr.perf.fom;
    const core::PerfFlowResult ep_pr =
        core::run_eplace_ap(c, *ctx, bench::paper_eplace_options());
    const double ep_perf = ep_pr.perf.fom;
    json.add_flow(name, "sa-perf", sp.sa.seed, sa_pr.flow);
    json.add_flow(name, "prior-work-perf", 0, pw_pr.flow);
    json.add_flow(name, "eplace-ap", 0, ep_pr.flow);

    std::printf("%-8s | %5.2f %5.2f | %6.2f %6.2f | %6.2f %6.2f\n",
                name.c_str(), sa_conv, sa_perf, pw_conv, pw_perf, ep_conv,
                ep_perf);
    std::fflush(stdout);
    const double vals[6] = {sa_conv, sa_perf, pw_conv,
                            pw_perf, ep_conv, ep_perf};
    for (int k = 0; k < 6; ++k) sum[k] += vals[k];
    ++count;
  }
  std::printf("%-8s | %5.2f %5.2f | %6.2f %6.2f | %6.2f %6.2f\n", "Avg.",
              sum[0] / count, sum[1] / count, sum[2] / count, sum[3] / count,
              sum[4] / count, sum[5] / count);
  const double n = static_cast<double>(count);
  json.add_metric("avg_fom_sa_conv", sum[0] / n);
  json.add_metric("avg_fom_sa_perf", sum[1] / n);
  json.add_metric("avg_fom_prior_conv", sum[2] / n);
  json.add_metric("avg_fom_prior_perf", sum[3] / n);
  json.add_metric("avg_fom_eplace_conv", sum[4] / n);
  json.add_metric("avg_fom_eplace_perf", sum[5] / n);
  json.write();
  std::printf(
      "\nPaper reference averages: SA 0.81/0.87, prior 0.81/0.88, "
      "ePlace 0.81/0.90.\nExpected shape: performance-driven > conventional "
      "for every method; ePlace-AP best overall.\n");
  return 0;
}
