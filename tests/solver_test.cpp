// LP/MILP solver: simplex on canonical cases (bounded, equality, negative
// lower bounds, no rows, infeasible, unbounded, degenerate), the finite
// lower bound every variable needs, branch-and-bound on small
// integer programs, the split into independent blocks, warm re-solves
// against cold solves (oracle::ColdBranchAndBound), the primal-residual
// certificate and the solver/ counters.

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <string>

#include "circuits/testcases.hpp"
#include "kernel_oracle.hpp"
#include "legal/ilp_detailed.hpp"
#include "numeric/rng.hpp"
#include "obs/metrics.hpp"
#include "sa/annealer.hpp"
#include "solver/lp.hpp"
#include "solver/milp.hpp"
#include "solver/simplex.hpp"

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

TEST(LpTest, InfiniteLowerBoundIsRejected) {
  // Every variable is x = lo + x' with a finite lo: free variables and
  // variables bounded only from above are refused.
  LpProblem p;
  EXPECT_THROW((void)p.add_variable(-kInf, kInf, 0.0), CheckError);
  EXPECT_THROW((void)p.add_variable(-kInf, 5, 0.0), CheckError);
  EXPECT_EQ(p.num_variables(), 0u);
  const int x = p.add_variable(0, kInf, 1.0);
  EXPECT_THROW(p.set_bounds(x, -kInf, 3), CheckError);
  EXPECT_EQ(p.lower_bound(x), 0.0);
  EXPECT_EQ(p.upper_bound(x), kInf);
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

TEST(LpTest, NoRowsIsOptimalAtTheLowerBoundsOrUnbounded) {
  // No constraint and no finite upper bound leave the tableau without rows.
  LpProblem p;
  const int x = p.add_variable(2, kInf, 1.0);
  const int y = p.add_variable(-4, kInf, 0.0);
  const LpSolution s = solve_lp(p);
  ASSERT_TRUE(s.ok());
  expect_certified(p, s);
  EXPECT_EQ(s.x[x], 2.0);
  EXPECT_EQ(s.x[y], -4.0);
  EXPECT_EQ(s.objective, 2.0);

  // Such a tableau is kept like any other: a new lower bound is a warm
  // re-solve.
  detail::Work work;
  detail::WarmLp lp;
  ASSERT_TRUE(lp.solve(p, work).ok());
  p.set_bounds(x, 5, kInf);
  const LpSolution warm = lp.solve(p, work);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(work.warm_solves, 1u);
  EXPECT_EQ(warm.x[x], 5.0);
  EXPECT_EQ(warm.objective, 5.0);

  p.add_variable(0, kInf, -1.0);
  EXPECT_EQ(solve_lp(p).status, LpStatus::Unbounded);
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

// A random small integer program: three integer variables in [0, 3] and two
// <= rows with coefficients in [-4, 4], kept for brute-force enumeration.
struct RandomProgram {
  LpProblem p;
  std::vector<int> vars;
  std::vector<double> costs;
  std::vector<std::vector<int>> rows;
  std::vector<int> rhs;
};

RandomProgram random_program(std::mt19937& rng) {
  std::uniform_int_distribution<int> coef(-4, 4);
  std::uniform_int_distribution<int> rhs_d(2, 14);
  std::uniform_real_distribution<double> cost_d(-3.0, 3.0);
  RandomProgram r;
  for (int j = 0; j < 3; ++j) {
    const double cost = cost_d(rng);
    r.vars.push_back(r.p.add_variable(0, 3, cost));
    r.p.set_integer(r.vars.back());
    r.costs.push_back(cost);
  }
  // Two random <= constraints; the box keeps everything bounded.
  for (int k = 0; k < 2; ++k) {
    std::vector<LpTerm> terms;
    std::vector<int> row;
    for (int j = 0; j < 3; ++j) {
      const int a = coef(rng);
      row.push_back(a);
      if (a != 0) terms.push_back({r.vars[j], static_cast<double>(a)});
    }
    const int b = rhs_d(rng);
    r.rows.push_back(row);
    r.rhs.push_back(b);
    if (!terms.empty()) {
      r.p.add_constraint(std::move(terms), Relation::LessEq,
                         static_cast<double>(b));
    }
  }
  return r;
}

// Four integer variables in [0, 5], random costs, two fixed rows.
LpProblem knapsack_program(std::mt19937& rng) {
  std::uniform_real_distribution<double> cost_d(-2.0, 2.0);
  LpProblem p;
  std::vector<int> vars;
  for (int j = 0; j < 4; ++j) {
    vars.push_back(p.add_variable(0, 5, cost_d(rng)));
    p.set_integer(vars.back());
  }
  p.add_constraint({{vars[0], 2}, {vars[1], 3}, {vars[2], 1}},
                   Relation::LessEq, 11);
  p.add_constraint({{vars[1], 1}, {vars[3], 4}}, Relation::LessEq, 9);
  return p;
}

// Property: on random small integer programs with bounded variables, B&B
// must match exhaustive enumeration of the integer lattice.
TEST(MilpPropertyTest, MatchesBruteForceOnRandomPrograms) {
  std::mt19937 rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    const RandomProgram r = random_program(rng);

    // Brute force over the 4^3 lattice.
    double best = 1e300;
    for (int a = 0; a <= 3; ++a) {
      for (int b = 0; b <= 3; ++b) {
        for (int c = 0; c <= 3; ++c) {
          const int x[3] = {a, b, c};
          bool ok = true;
          for (std::size_t k = 0; k < r.rows.size(); ++k) {
            int lhs = 0;
            for (int j = 0; j < 3; ++j) lhs += r.rows[k][j] * x[j];
            if (lhs > r.rhs[k]) ok = false;
          }
          if (!ok) continue;
          double val = 0;
          for (int j = 0; j < 3; ++j) val += r.costs[j] * x[j];
          best = std::min(best, val);
        }
      }
    }

    const MilpSolution s = solve_milp(r.p);
    ASSERT_TRUE(s.ok()) << "trial " << trial;
    EXPECT_NEAR(s.objective, best, 1e-6) << "trial " << trial;
    for (int v : r.vars) {
      EXPECT_NEAR(s.x[v], std::round(s.x[v]), 1e-6);
    }
  }
}

// Property: LP optimum is always <= MILP optimum (relaxation bound).
TEST(MilpPropertyTest, RelaxationBoundsInteger) {
  std::mt19937 rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    LpProblem p = knapsack_program(rng);
    for (std::size_t j = 0; j < p.num_variables(); ++j) {
      p.set_integer(static_cast<int>(j), false);
    }
    const LpSolution rel = solve_lp(p);
    ASSERT_TRUE(rel.ok());
    expect_certified(p, rel);
    for (std::size_t j = 0; j < p.num_variables(); ++j) {
      p.set_integer(static_cast<int>(j));
    }
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

// ---- warm re-solves ----------------------------------------------------------

// Budget large enough for both searches to exhaust their trees.
constexpr long kFullSearch = 5000;

// Warm branch-and-bound and the cold-per-node oracle prove one optimum.
void expect_same_optimum(const LpProblem& p, const std::string& what) {
  MilpOptions o;
  o.max_nodes = kFullSearch;
  const MilpSolution warm = solve_milp(p, o);
  oracle::ColdBranchAndBound cold(kFullSearch);
  const MilpSolution ref = cold.solve(p);
  ASSERT_EQ(warm.status, ref.status) << what;
  if (!ref.ok()) return;
  EXPECT_TRUE(warm.proven_optimal) << what;
  EXPECT_TRUE(ref.proven_optimal) << what;
  EXPECT_NEAR(warm.objective, ref.objective, 1e-9) << what;
  expect_certified(p, warm);
}

TEST(MilpOracleParityTest, RandomProgramsProveTheColdOptimum) {
  std::mt19937 rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    expect_same_optimum(random_program(rng).p, "brute-force trial " +
                                                   std::to_string(trial));
  }
  std::mt19937 rng2(77);
  for (int trial = 0; trial < 20; ++trial) {
    expect_same_optimum(knapsack_program(rng2),
                        "relaxation trial " + std::to_string(trial));
  }
}

// The round-0 MILP of the ILP detailed placer, built from the legalizer
// tests' input: a short SA placement perturbed into overlap.
LpProblem ilp_round0_problem(const std::string& name) {
  const circuits::TestCase tc = circuits::make_testcase(name);
  const netlist::Circuit& c = tc.circuit;
  sa::SaOptions sopts;
  sopts.max_moves = 3000;
  const netlist::Placement seed = sa::SaPlacer(c, sopts).place().placement;
  const std::size_t n = c.num_devices();
  std::vector<double> v(2 * n);
  numeric::Rng rng(7);
  for (std::size_t i = 0; i < n; ++i) {
    const geom::Point pt = seed.position(DeviceId{i});
    v[i] = pt.x + rng.normal(0, 1.0);
    v[n + i] = pt.y + rng.normal(0, 1.0);
  }
  return legal::IlpDetailedPlacer(c).round0_problem(v);
}

TEST(MilpOracleParityTest, IlpRoundZeroBlocksProveTheColdOptimum) {
  for (const std::string name : {"Adder", "CC-OTA", "CM-OTA1"}) {
    const LpProblem p = ilp_round0_problem(name);
    const std::vector<MilpBlock> blocks = split_blocks(p);
    ASSERT_EQ(blocks.size(), 2u) << name;  // the x-block and the y-block
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      expect_same_optimum(blocks[b].problem,
                          name + " block " + std::to_string(b));
    }
  }
}

// A chain of random bound changes on one LP: each step re-solved warm
// agrees with a cold solve_lp() in status and objective. Bounds jump
// between finite values (warm), and now and then an upper bound turns
// infinite or finite again (a new layout: cold).
TEST(WarmLpTest, BoundChainMatchesColdSolves) {
  std::mt19937 rng(11);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_real_distribution<double> coef(-2.0, 3.0);
  int optimal = 0, infeasible = 0, unbounded = 0, warm_into = 0, warm_out = 0;
  detail::Work work;
  for (int program = 0; program < 16; ++program) {
    // Five variables in <=, >= and == rows through a random point of the
    // starting box, so the chain starts feasible; `up`, whose cost pulls it
    // up and whose only row never binds it (unbounded once its upper bound
    // turns infinite); and a variable pinned by an equality, whose lower
    // bound of -10 is its only bound.
    LpProblem p;
    std::vector<double> x0;
    for (int j = 0; j < 5; ++j) {
      p.add_variable(0, 4, coef(rng));
      x0.push_back(4.0 * unit(rng));
    }
    const Relation rels[] = {Relation::LessEq, Relation::GreaterEq,
                             Relation::LessEq, Relation::Equal,
                             Relation::GreaterEq};
    for (Relation rel : rels) {
      std::vector<LpTerm> terms;
      double lhs = 0.0;
      for (int j = 0; j < 5; ++j) {
        if (unit(rng) < 0.5) {
          terms.push_back({j, coef(rng)});
          lhs += terms.back().coef * x0[j];
        }
      }
      const double slack = rel == Relation::Equal ? 0.0 : 2.0 * unit(rng);
      p.add_constraint(std::move(terms), rel,
                       rel == Relation::GreaterEq ? lhs - slack : lhs + slack);
    }
    const int up = p.add_variable(0, 2, -1.0);
    p.add_constraint({{up, 1}, {0, -1}}, Relation::GreaterEq, -10);
    const int pinned = p.add_variable(-10, kInf, 0.0);
    p.add_constraint({{pinned, 1}, {0, -1}, {1, 1}}, Relation::Equal, 0.5);

    detail::WarmLp lp;
    LpStatus last = LpStatus::Optimal;
    for (int step = 0; step < 60; ++step) {
      const int v = static_cast<int>(rng() % 6);
      // Half the steps restore the starting box [0, 4] (or [0, 2]).
      double lo = 0.0;
      double hi = v == up ? 2.0 : 4.0;
      if (unit(rng) < 0.5) {
        lo = std::floor(5.0 * unit(rng)) - 1.0;  // -1 .. 3
        hi = lo + 1.0 + std::floor(4.0 * unit(rng));
      }
      if (unit(rng) < 0.1) hi = kInf;
      p.set_bounds(v, lo, hi);
      const std::uint64_t warm_before = work.warm_solves;
      const LpSolution warm = lp.solve(p, work);
      const LpSolution cold = solve_lp(p);
      ASSERT_EQ(warm.status, cold.status)
          << "program " << program << " step " << step;
      if (work.warm_solves > warm_before) {
        warm_into += last == LpStatus::Optimal &&
                     cold.status == LpStatus::Infeasible;
        warm_out += last == LpStatus::Infeasible && cold.ok();
      }
      last = cold.status;
      if (!cold.ok()) {
        (cold.status == LpStatus::Infeasible ? infeasible : unbounded)++;
        continue;
      }
      ++optimal;
      EXPECT_NEAR(warm.objective, cold.objective, 1e-9)
          << "program " << program << " step " << step;
      expect_certified(p, warm);
    }
  }
  // The chain visits every outcome, steps into and out of infeasibility
  // warm, and answers most steps warm.
  EXPECT_GT(optimal, 500);
  EXPECT_GT(infeasible, 150);
  EXPECT_GT(unbounded, 30);
  EXPECT_GT(warm_into, 25);
  EXPECT_GT(warm_out, 12);
  EXPECT_GT(work.warm_solves * 2, work.lp_solves);
}

TEST(LpCertificateTest, MaxPrimalResidualIsTheWorstViolation) {
  // x + y <= 3, x - y >= 1, y == 1, x in [0, 4], y >= -10.
  LpProblem p;
  const int x = p.add_variable(0, 4, 1.0);
  const int y = p.add_variable(-10, kInf, 0.0);
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
  const auto scrape = [] { return obs::MetricsRegistry::global().scrape(); };
  const auto value = [&scrape](const char* name) -> std::uint64_t {
    const obs::MetricsSnapshot snap = scrape();
    const obs::MetricsSnapshot::CounterRow* row = snap.find_counter(name);
    return row != nullptr ? row->value : 0;
  };
  const auto residuals = [&scrape] {
    const obs::MetricsSnapshot snap = scrape();
    const obs::MetricsSnapshot::HistogramRow* row =
        snap.find_histogram("solver/max_residual");
    return row != nullptr ? *row : obs::MetricsSnapshot::HistogramRow{};
  };
  const char* const names[] = {"solver/lp_solves", "solver/warm_solves",
                               "solver/pivots", "solver/bb_nodes",
                               "solver/truncated"};
  std::uint64_t before[5];
  for (int k = 0; k < 5; ++k) before[k] = value(names[k]);
  const std::uint64_t residuals_before = residuals().count;

  // A one-node budget truncates block X: its root LP (cold), then the
  // rounding fallback re-solves the root relaxation's rounding warm. Block
  // Y takes one cold LP.
  const TwoBlocks t = two_blocks();
  MilpOptions o;
  o.max_nodes = 1;
  const MilpSolution s = solve_milp(t.both, o);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(value(names[0]) - before[0], 3u);
  EXPECT_EQ(value(names[1]) - before[1], 1u);
  EXPECT_GT(value(names[2]) - before[2], 0u);
  EXPECT_EQ(value(names[3]) - before[3],
            static_cast<std::uint64_t>(s.nodes_explored));
  EXPECT_EQ(value(names[4]) - before[4], 1u);
  const obs::MetricsSnapshot::HistogramRow after_milp = residuals();
  EXPECT_EQ(after_milp.count - residuals_before, 1u);
  EXPECT_GE(after_milp.max, s.max_residual);

  // solve_lp: one cold LP, one certified answer.
  const std::uint64_t solves = value(names[0]);
  const std::uint64_t warm = value(names[1]);
  ASSERT_TRUE(solve_lp(t.x_alone).ok());
  EXPECT_EQ(value(names[0]) - solves, 1u);
  EXPECT_EQ(value(names[1]), warm);
  EXPECT_EQ(residuals().count - after_milp.count, 1u);

  // An infeasible problem has no answer to certify.
  LpProblem infeasible;
  add_infeasible_block(infeasible);
  EXPECT_EQ(solve_milp(infeasible).status, LpStatus::Infeasible);
  EXPECT_EQ(residuals().count - after_milp.count, 1u);
  obs::set_enabled(saved);
}

}  // namespace
}  // namespace aplace::solver
