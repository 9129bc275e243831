// LP/MILP solver: simplex on canonical cases (bounded, equality, free
// variables, infeasible, unbounded, degenerate), branch-and-bound on small
// integer programs, the split into independent blocks, the primal-residual
// certificate and the solver/ counters.

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "obs/metrics.hpp"
#include "solver/lp.hpp"
#include "solver/milp.hpp"

namespace aplace::solver {
namespace {

// Every optimal answer satisfies its own problem to well inside the
// certificate's tolerance.
void expect_certified(const LpProblem& p, const LpSolution& s) {
  EXPECT_LE(max_primal_residual(p, s.x), 1e-7);
}
void expect_certified(const LpProblem& p, const MilpSolution& s) {
  EXPECT_LE(s.max_residual, 1e-7);
  EXPECT_EQ(s.max_residual, max_primal_residual(p, s.x));
}

TEST(LpTest, SimpleBounded) {
  // max x + y s.t. x + 2y <= 4, 3x + y <= 6, x,y >= 0
  // => min -(x+y); optimum at intersection (1.6, 1.2), value 2.8.
  LpProblem p;
  const int x = p.add_variable(0, kInf, -1.0);
  const int y = p.add_variable(0, kInf, -1.0);
  p.add_constraint({{x, 1}, {y, 2}}, Relation::LessEq, 4);
  p.add_constraint({{x, 3}, {y, 1}}, Relation::LessEq, 6);
  const LpSolution s = solve_lp(p);
  ASSERT_TRUE(s.ok());
  expect_certified(p, s);
  EXPECT_NEAR(s.x[x], 1.6, 1e-7);
  EXPECT_NEAR(s.x[y], 1.2, 1e-7);
  EXPECT_NEAR(s.objective, -2.8, 1e-7);
}

TEST(LpTest, EqualityConstraint) {
  // min x + y s.t. x + y = 3, x - y = 1 -> x=2, y=1.
  LpProblem p;
  const int x = p.add_variable(0, kInf, 1.0);
  const int y = p.add_variable(0, kInf, 1.0);
  p.add_constraint({{x, 1}, {y, 1}}, Relation::Equal, 3);
  p.add_constraint({{x, 1}, {y, -1}}, Relation::Equal, 1);
  const LpSolution s = solve_lp(p);
  ASSERT_TRUE(s.ok());
  expect_certified(p, s);
  EXPECT_NEAR(s.x[x], 2, 1e-8);
  EXPECT_NEAR(s.x[y], 1, 1e-8);
}

TEST(LpTest, FreeVariable) {
  // min |style| distance: min t s.t. t >= x - 5, t >= 5 - x, x free.
  // x can sit at 5 making t = 0.
  LpProblem p;
  const int x = p.add_variable(-kInf, kInf, 0.0);
  const int t = p.add_variable(0, kInf, 1.0);
  p.add_constraint({{x, 1}, {t, -1}}, Relation::LessEq, 5);
  p.add_constraint({{x, -1}, {t, -1}}, Relation::LessEq, -5);
  const LpSolution s = solve_lp(p);
  ASSERT_TRUE(s.ok());
  expect_certified(p, s);
  EXPECT_NEAR(s.x[x], 5, 1e-7);
  EXPECT_NEAR(s.objective, 0, 1e-8);
}

TEST(LpTest, NegativeLowerBounds) {
  // min x s.t. x >= -3 -> x = -3.
  LpProblem p;
  const int x = p.add_variable(-3, kInf, 1.0);
  p.add_constraint({{x, 1}}, Relation::LessEq, 10);
  const LpSolution s = solve_lp(p);
  ASSERT_TRUE(s.ok());
  expect_certified(p, s);
  EXPECT_NEAR(s.x[x], -3, 1e-8);
}

TEST(LpTest, UpperBoundedVariable) {
  // min -x with x in [0, 7] -> x = 7.
  LpProblem p;
  const int x = p.add_variable(0, 7, -1.0);
  p.add_constraint({{x, 1}}, Relation::GreaterEq, 0);
  const LpSolution s = solve_lp(p);
  ASSERT_TRUE(s.ok());
  expect_certified(p, s);
  EXPECT_NEAR(s.x[x], 7, 1e-8);
}

TEST(LpTest, Infeasible) {
  LpProblem p;
  const int x = p.add_variable(0, kInf, 1.0);
  p.add_constraint({{x, 1}}, Relation::LessEq, 1);
  p.add_constraint({{x, 1}}, Relation::GreaterEq, 2);
  const LpSolution s = solve_lp(p);
  EXPECT_EQ(s.status, LpStatus::Infeasible);
}

TEST(LpTest, Unbounded) {
  LpProblem p;
  const int x = p.add_variable(0, kInf, -1.0);
  p.add_constraint({{x, 1}}, Relation::GreaterEq, 1);
  const LpSolution s = solve_lp(p);
  EXPECT_EQ(s.status, LpStatus::Unbounded);
}

TEST(LpTest, UnconstrainedProblem) {
  LpProblem p;
  const int x = p.add_variable(2, 9, 1.0);
  const int y = p.add_variable(-4, 3, -1.0);
  const LpSolution s = solve_lp(p);
  ASSERT_TRUE(s.ok());
  expect_certified(p, s);
  EXPECT_NEAR(s.x[x], 2, 1e-12);
  EXPECT_NEAR(s.x[y], 3, 1e-12);
}

TEST(LpTest, DegenerateVertex) {
  // Multiple constraints through one vertex; must not cycle.
  LpProblem p;
  const int x = p.add_variable(0, kInf, -1.0);
  const int y = p.add_variable(0, kInf, -1.0);
  p.add_constraint({{x, 1}}, Relation::LessEq, 1);
  p.add_constraint({{y, 1}}, Relation::LessEq, 1);
  p.add_constraint({{x, 1}, {y, 1}}, Relation::LessEq, 2);
  p.add_constraint({{x, 2}, {y, 1}}, Relation::LessEq, 3);
  p.add_constraint({{x, 1}, {y, 2}}, Relation::LessEq, 3);
  const LpSolution s = solve_lp(p);
  ASSERT_TRUE(s.ok());
  expect_certified(p, s);
  EXPECT_NEAR(s.objective, -2.0, 1e-7);
}

TEST(LpTest, SeparationChain) {
  // Placement-like: x1 + 2 <= x2, x2 + 2 <= x3, minimize x3 with x1 >= 1.
  LpProblem p;
  const int x1 = p.add_variable(1, kInf, 0.0);
  const int x2 = p.add_variable(0, kInf, 0.0);
  const int x3 = p.add_variable(0, kInf, 1.0);
  p.add_constraint({{x1, 1}, {x2, -1}}, Relation::LessEq, -2);
  p.add_constraint({{x2, 1}, {x3, -1}}, Relation::LessEq, -2);
  const LpSolution s = solve_lp(p);
  ASSERT_TRUE(s.ok());
  expect_certified(p, s);
  EXPECT_NEAR(s.x[x3], 5, 1e-7);
}

TEST(MilpTest, SimpleBinaryChoice) {
  // min -(3a + 2b) s.t. a + b <= 1, a,b binary -> a=1, b=0.
  LpProblem p;
  const int a = p.add_variable(0, 1, -3.0);
  const int b = p.add_variable(0, 1, -2.0);
  p.set_integer(a);
  p.set_integer(b);
  p.add_constraint({{a, 1}, {b, 1}}, Relation::LessEq, 1);
  const MilpSolution s = solve_milp(p);
  ASSERT_TRUE(s.ok());
  expect_certified(p, s);
  EXPECT_NEAR(s.x[a], 1, 1e-9);
  EXPECT_NEAR(s.x[b], 0, 1e-9);
  EXPECT_TRUE(s.proven_optimal);
}

TEST(MilpTest, KnapsackRequiresBranching) {
  // Fractional relaxation would take half of item 1.
  // max 10a + 6b + 4c s.t. 5a + 4b + 3c <= 7 (binaries).
  // Optimal integer: b + c = 10, or a + ... check: a alone=10 (w5), b+c=10
  // (w7); tie at 10.
  LpProblem p;
  const int a = p.add_variable(0, 1, -10.0);
  const int b = p.add_variable(0, 1, -6.0);
  const int c = p.add_variable(0, 1, -4.0);
  for (int v : {a, b, c}) p.set_integer(v);
  p.add_constraint({{a, 5}, {b, 4}, {c, 3}}, Relation::LessEq, 7);
  const MilpSolution s = solve_milp(p);
  ASSERT_TRUE(s.ok());
  expect_certified(p, s);
  EXPECT_NEAR(s.objective, -10.0, 1e-7);
  // Solution must be integral.
  for (int v : {a, b, c}) {
    EXPECT_NEAR(s.x[v], std::round(s.x[v]), 1e-7);
  }
}

TEST(MilpTest, IntegerGeneral) {
  // min x s.t. 2x >= 7, x integer -> x = 4.
  LpProblem p;
  const int x = p.add_variable(0, kInf, 1.0);
  p.set_integer(x);
  p.add_constraint({{x, 2}}, Relation::GreaterEq, 7);
  const MilpSolution s = solve_milp(p);
  ASSERT_TRUE(s.ok());
  expect_certified(p, s);
  EXPECT_NEAR(s.x[x], 4, 1e-9);
}

TEST(MilpTest, InfeasibleInteger) {
  // 0.4 <= x <= 0.6, integer: infeasible.
  LpProblem p;
  const int x = p.add_variable(0.4, 0.6, 1.0);
  p.set_integer(x);
  p.add_constraint({{x, 1}}, Relation::GreaterEq, 0.0);
  const MilpSolution s = solve_milp(p);
  EXPECT_FALSE(s.ok());
}

TEST(MilpTest, RelaxationAlreadyIntegral) {
  LpProblem p;
  const int x = p.add_variable(0, 5, -1.0);
  p.set_integer(x);
  p.add_constraint({{x, 1}}, Relation::LessEq, 3);
  const MilpSolution s = solve_milp(p);
  ASSERT_TRUE(s.ok());
  expect_certified(p, s);
  EXPECT_NEAR(s.x[x], 3, 1e-9);
  EXPECT_EQ(s.nodes_explored, 1);
}

TEST(MilpTest, MixedIntegerContinuous) {
  // min -(x + y), x integer in [0,10], y continuous in [0, 2.5],
  // x + y <= 5.7 -> best integral x maximizes x + y at x=5, y=0.7.
  LpProblem p;
  const int x = p.add_variable(0, 10, -1.0);
  const int y = p.add_variable(0, 2.5, -1.0);
  p.set_integer(x);
  p.add_constraint({{x, 1}, {y, 1}}, Relation::LessEq, 5.7);
  const MilpSolution s = solve_milp(p);
  ASSERT_TRUE(s.ok());
  expect_certified(p, s);
  EXPECT_NEAR(s.x[x], 5, 1e-7);
  EXPECT_NEAR(s.x[y], 0.7, 1e-7);
  EXPECT_NEAR(s.objective, -5.7, 1e-7);
}

}  // namespace
}  // namespace aplace::solver

namespace aplace::solver {
namespace {

// Property: on random small integer programs with bounded variables, B&B
// must match exhaustive enumeration of the integer lattice.
TEST(MilpPropertyTest, MatchesBruteForceOnRandomPrograms) {
  std::mt19937 rng(2024);
  std::uniform_int_distribution<int> coef(-4, 4);
  std::uniform_int_distribution<int> rhs_d(2, 14);
  std::uniform_real_distribution<double> cost_d(-3.0, 3.0);

  for (int trial = 0; trial < 40; ++trial) {
    const int n = 3;
    const int lo = 0, hi = 3;
    LpProblem p;
    std::vector<int> vars;
    std::vector<double> costs;
    for (int j = 0; j < n; ++j) {
      const double cost = cost_d(rng);
      vars.push_back(p.add_variable(lo, hi, cost));
      p.set_integer(vars.back());
      costs.push_back(cost);
    }
    // Two random <= constraints with nonnegative coefficients on at least
    // one side so the box keeps everything bounded.
    std::vector<std::vector<int>> rows;
    std::vector<int> rhs;
    for (int r = 0; r < 2; ++r) {
      std::vector<LpTerm> terms;
      std::vector<int> row;
      for (int j = 0; j < n; ++j) {
        const int a = coef(rng);
        row.push_back(a);
        if (a != 0) terms.push_back({vars[j], static_cast<double>(a)});
      }
      const int b = rhs_d(rng);
      rows.push_back(row);
      rhs.push_back(b);
      if (!terms.empty()) {
        p.add_constraint(std::move(terms), Relation::LessEq,
                         static_cast<double>(b));
      }
    }

    // Brute force over the 4^3 lattice.
    double best = 1e300;
    for (int a = lo; a <= hi; ++a) {
      for (int b = lo; b <= hi; ++b) {
        for (int c = lo; c <= hi; ++c) {
          const int x[3] = {a, b, c};
          bool ok = true;
          for (std::size_t r = 0; r < rows.size(); ++r) {
            int lhs = 0;
            for (int j = 0; j < n; ++j) lhs += rows[r][j] * x[j];
            if (lhs > rhs[r]) ok = false;
          }
          if (!ok) continue;
          double val = 0;
          for (int j = 0; j < n; ++j) val += costs[j] * x[j];
          best = std::min(best, val);
        }
      }
    }

    const MilpSolution s = solve_milp(p);
    ASSERT_TRUE(s.ok()) << "trial " << trial;
    EXPECT_NEAR(s.objective, best, 1e-6) << "trial " << trial;
    for (int j = 0; j < n; ++j) {
      EXPECT_NEAR(s.x[vars[j]], std::round(s.x[vars[j]]), 1e-6);
    }
  }
}

// Property: LP optimum is always <= MILP optimum (relaxation bound).
TEST(MilpPropertyTest, RelaxationBoundsInteger) {
  std::mt19937 rng(77);
  std::uniform_real_distribution<double> cost_d(-2.0, 2.0);
  for (int trial = 0; trial < 20; ++trial) {
    LpProblem p;
    std::vector<int> vars;
    for (int j = 0; j < 4; ++j) {
      vars.push_back(p.add_variable(0, 5, cost_d(rng)));
    }
    p.add_constraint({{vars[0], 2}, {vars[1], 3}, {vars[2], 1}},
                     Relation::LessEq, 11);
    p.add_constraint({{vars[1], 1}, {vars[3], 4}}, Relation::LessEq, 9);
    const LpSolution rel = solve_lp(p);
    ASSERT_TRUE(rel.ok());
    expect_certified(p, rel);
    for (int v : vars) p.set_integer(v);
    const MilpSolution s = solve_milp(p);
    ASSERT_TRUE(s.ok());
    expect_certified(p, s);
    EXPECT_LE(rel.objective, s.objective + 1e-9);
  }
}

}  // namespace
}  // namespace aplace::solver

namespace aplace::solver {
namespace {

// ---- independent blocks ----------------------------------------------------

// Block X: min -(3a + 2b), 3a + b <= 2.2, a binary, b in [0, 1]. The
// relaxation has a = 0.4, so branch-and-bound branches (3 nodes).
// Block Y: min -(4c + 1.5d), 5c + 2d <= 6.1, c binary, d in [0, 2]. The
// relaxation is integral (1 node).
// `both` interleaves their variables (a, c, b, d) and lists Y's row first.
struct TwoBlocks {
  LpProblem x_alone, y_alone, both;
};

TwoBlocks two_blocks() {
  TwoBlocks t;
  {
    LpProblem& p = t.x_alone;
    const int a = p.add_variable(0, 1, -3.0);
    const int b = p.add_variable(0, 1, -2.0);
    p.set_integer(a);
    p.add_constraint({{a, 3}, {b, 1}}, Relation::LessEq, 2.2);
  }
  {
    LpProblem& p = t.y_alone;
    const int c = p.add_variable(0, 1, -4.0);
    const int d = p.add_variable(0, 2, -1.5);
    p.set_integer(c);
    p.add_constraint({{c, 5}, {d, 2}}, Relation::LessEq, 6.1);
  }
  LpProblem& p = t.both;
  const int a = p.add_variable(0, 1, -3.0);
  const int c = p.add_variable(0, 1, -4.0);
  const int b = p.add_variable(0, 1, -2.0);
  const int d = p.add_variable(0, 2, -1.5);
  p.set_integer(a);
  p.set_integer(c);
  p.add_constraint({{c, 5}, {d, 2}}, Relation::LessEq, 6.1);
  p.add_constraint({{a, 3}, {b, 1}}, Relation::LessEq, 2.2);
  return t;
}

TEST(MilpBlocksTest, TwoBlocksEqualEachBlockAlone) {
  const TwoBlocks t = two_blocks();
  // The default budget proves both blocks optimal; a one-node budget
  // truncates block X only.
  for (long max_nodes : {4000L, 1L}) {
    MilpOptions o;
    o.max_nodes = max_nodes;
    const MilpSolution x = solve_milp(t.x_alone, o);
    const MilpSolution y = solve_milp(t.y_alone, o);
    const MilpSolution both = solve_milp(t.both, o);
    ASSERT_TRUE(x.ok() && y.ok() && both.ok()) << max_nodes;
    expect_certified(t.both, both);
    EXPECT_EQ(both.x, (std::vector<double>{x.x[0], y.x[0], x.x[1], y.x[1]}));
    EXPECT_EQ(both.objective, x.objective + y.objective);
    EXPECT_EQ(both.nodes_explored, x.nodes_explored + y.nodes_explored);
    EXPECT_EQ(both.proven_optimal, x.proven_optimal && y.proven_optimal);
    EXPECT_TRUE(y.proven_optimal);
    EXPECT_EQ(x.proven_optimal, max_nodes > 1);
    EXPECT_NEAR(both.x[0], 0, 1e-9);
    EXPECT_NEAR(both.x[1], 1, 1e-9);
    EXPECT_NEAR(both.x[2], 1, 1e-9);
    EXPECT_NEAR(both.x[3], 0.55, 1e-9);
  }
}

// One block of each kind, each over two fresh variables.
void add_feasible_block(LpProblem& p) {  // min -(a + b), a + b <= 1.5
  const int a = p.add_variable(0, 1, -1.0);
  const int b = p.add_variable(0, 1, -1.0);
  p.set_integer(a);
  p.add_constraint({{a, 1}, {b, 1}}, Relation::LessEq, 1.5);
}
void add_infeasible_block(LpProblem& p) {  // a + b >= 3 over [0, 1]^2
  const int a = p.add_variable(0, 1, 0.0);
  const int b = p.add_variable(0, 1, 0.0);
  p.set_integer(a);
  p.add_constraint({{a, 1}, {b, 1}}, Relation::GreaterEq, 3);
}
void add_unbounded_block(LpProblem& p) {  // min -a, a >= b >= 0
  const int a = p.add_variable(0, kInf, -1.0);
  const int b = p.add_variable(0, kInf, 0.0);
  p.set_integer(b);
  p.add_constraint({{a, 1}, {b, -1}}, Relation::GreaterEq, 0);
}

TEST(MilpBlocksTest, FirstFailingBlockDecidesTheStatus) {
  using Add = void (*)(LpProblem&);
  struct Case {
    Add first, second;
    LpStatus status;
  };
  const Case cases[] = {
      {add_feasible_block, add_infeasible_block, LpStatus::Infeasible},
      {add_unbounded_block, add_feasible_block, LpStatus::Unbounded},
      {add_infeasible_block, add_unbounded_block, LpStatus::Infeasible},
      {add_unbounded_block, add_infeasible_block, LpStatus::Unbounded},
  };
  for (const Case& c : cases) {
    LpProblem p;
    c.first(p);
    c.second(p);
    const MilpSolution s = solve_milp(p);
    EXPECT_EQ(s.status, c.status) << to_string(s.status);
    EXPECT_TRUE(s.x.empty());
    EXPECT_FALSE(s.proven_optimal);
  }
}

TEST(MilpBlocksTest, OneBlockProblemKeepsItsAnswer) {
  // min -(3a + 2b + 0.7c), 0.3a + 0.6b + 0.45c <= 1.1, a + c <= 2.3,
  // a, b integer in [0, 3], c in [0, 2]: one block, solved as it stands.
  // The expected bits are what the solver returned before problems were
  // split into blocks.
  LpProblem p;
  const int a = p.add_variable(0, 3, -3.0);
  const int b = p.add_variable(0, 3, -2.0);
  const int c = p.add_variable(0, 2, -0.7);
  p.set_integer(a);
  p.set_integer(b);
  p.add_constraint({{a, 0.3}, {b, 0.6}, {c, 0.45}}, Relation::LessEq, 1.1);
  p.add_constraint({{a, 1}, {c, 1}}, Relation::LessEq, 2.3);
  const MilpSolution s = solve_milp(p);
  ASSERT_TRUE(s.ok());
  expect_certified(p, s);
  EXPECT_EQ(s.x, (std::vector<double>{2, 0, 0.29999999999999982}));
  EXPECT_EQ(s.objective, -6.21);
  EXPECT_EQ(s.nodes_explored, 7);
  EXPECT_TRUE(s.proven_optimal);
}

// ---- certificate -----------------------------------------------------------

TEST(LpCertificateTest, MaxPrimalResidualIsTheWorstViolation) {
  // x + y <= 3, x - y >= 1, y == 1, x in [0, 4], y free.
  LpProblem p;
  const int x = p.add_variable(0, 4, 1.0);
  const int y = p.add_variable(-kInf, kInf, 0.0);
  p.add_constraint({{x, 1}, {y, 1}}, Relation::LessEq, 3);
  p.add_constraint({{x, 1}, {y, -1}}, Relation::GreaterEq, 1);
  p.add_constraint({{y, 1}}, Relation::Equal, 1);
  const auto residual = [&p](double vx, double vy) {
    const double v[] = {vx, vy};
    return max_primal_residual(p, v);
  };
  EXPECT_EQ(residual(2, 1), 0.0);        // feasible, two rows tight
  EXPECT_EQ(residual(2.5, 1), 0.5);      // <= row
  EXPECT_EQ(residual(1.75, 1), 0.25);    // >= row
  EXPECT_EQ(residual(1.5, 0.5), 0.5);    // == row (and >= row by 0)
  EXPECT_EQ(residual(2, 1.25), 0.25);    // all three rows by 0.25
  EXPECT_EQ(residual(-0.125, -1.25), 2.25);  // == row beats the lower bound
  EXPECT_EQ(residual(4.5, 1), 2.5);      // <= row beats the upper bound
  EXPECT_EQ(residual(std::nan(""), 1), kInf);  // nothing to certify

  const LpSolution s = solve_lp(p);
  ASSERT_TRUE(s.ok());
  expect_certified(p, s);
}

// ---- counters --------------------------------------------------------------

TEST(SolverCountersTest, FlushedOncePerCall) {
  if constexpr (!obs::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  const bool saved = obs::enabled();
  obs::set_enabled(true);
  const auto value = [](const char* name) -> std::uint64_t {
    const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().scrape();
    const obs::MetricsSnapshot::CounterRow* row = snap.find_counter(name);
    return row != nullptr ? row->value : 0;
  };
  const char* const names[] = {"solver/lp_solves", "solver/pivots",
                               "solver/bb_nodes", "solver/truncated"};
  std::uint64_t before[4];
  for (int k = 0; k < 4; ++k) before[k] = value(names[k]);

  // A one-node budget truncates block X: its root LP, then the rounding
  // fallback's relaxation and fixed re-solve. Block Y takes one LP.
  const TwoBlocks t = two_blocks();
  MilpOptions o;
  o.max_nodes = 1;
  const MilpSolution s = solve_milp(t.both, o);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(value(names[0]) - before[0], 4u);
  EXPECT_GT(value(names[1]) - before[1], 0u);
  EXPECT_EQ(value(names[2]) - before[2],
            static_cast<std::uint64_t>(s.nodes_explored));
  EXPECT_EQ(value(names[3]) - before[3], 1u);

  const std::uint64_t solves = value(names[0]);
  ASSERT_TRUE(solve_lp(t.x_alone).ok());
  EXPECT_EQ(value(names[0]) - solves, 1u);
  obs::set_enabled(saved);
}

}  // namespace
}  // namespace aplace::solver
