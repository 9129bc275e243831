#pragma once
// Linear programming front-end used by both detailed placers.
//
// The problem is stated in natural form: variables with a finite lower
// bound, a possibly infinite upper bound and a linear cost, constraints as
// sparse rows with <=, >= or == relations. Both legalizers only build such
// variables (centres above half extents, extents above the widest device,
// net-box bounds above 0, [0, 1] flip binaries), so the solver shifts each
// one to x = lo + x' with x' >= 0 and needs no free or negated columns.
// solve_lp() runs a dense two-phase primal simplex from scratch (a cold
// solve); analog placement problems have at most a few hundred variables
// and rows, so a dense tableau is both simple and fast enough.
// Every answer is certified: max_primal_residual() re-checks it against
// the problem as stated, and an answer off by more than kResidualTol is
// reported Uncertified, never Optimal.
//
// solve_milp() (see milp.hpp) adds branch-and-bound over variables marked
// integer — in this project the device-flipping binaries of the ILP detailed
// placer (paper Eq. 4d/4j) — and solves each independent block of a problem
// on its own. Only a block's root LP is solved cold; each later node is a
// warm dual simplex re-solve of the previous node's tableau under the new
// bounds, unless an upper bound turned finite or infinite (see milp.hpp).
//
// Counters (docs/OBSERVABILITY.md): solver/lp_solves, solver/warm_solves
// and solver/pivots, flushed once per solve_lp() / solve_milp() call, and
// the solver/max_residual histogram of certified answers.

#include <limits>
#include <span>
#include <vector>

#include "base/check.hpp"

namespace aplace::solver {

inline constexpr double kInf = std::numeric_limits<double>::infinity();
/// Largest primal residual an Optimal answer may carry.
inline constexpr double kResidualTol = 1e-6;

enum class Relation : std::uint8_t { LessEq, GreaterEq, Equal };

struct LpTerm {
  int var = -1;
  double coef = 0.0;
};

struct LpConstraint {
  std::vector<LpTerm> terms;
  Relation relation = Relation::LessEq;
  double rhs = 0.0;
};

enum class LpStatus : std::uint8_t {
  Optimal,
  Infeasible,
  Unbounded,
  IterLimit,
  /// The simplex finished, but its answer violates a row or bound of the
  /// problem by more than kResidualTol.
  Uncertified,
};

[[nodiscard]] const char* to_string(LpStatus s);

struct LpSolution {
  LpStatus status = LpStatus::IterLimit;
  std::vector<double> x;  ///< values of the natural variables
  double objective = 0.0;

  [[nodiscard]] bool ok() const { return status == LpStatus::Optimal; }
};

class LpProblem {
 public:
  /// Add a variable with bounds [lo, hi] and objective coefficient `cost`
  /// (minimization). `lo` must be finite; `hi` may be kInf. Returns its
  /// index.
  int add_variable(double lo, double hi, double cost);

  void add_constraint(std::vector<LpTerm> terms, Relation rel, double rhs);

  /// New bounds [lo, hi] of `var`; `lo` must be finite.
  void set_bounds(int var, double lo, double hi) {
    APLACE_CHECK(var >= 0 && static_cast<std::size_t>(var) < lo_.size());
    APLACE_CHECK_MSG(lo > -kInf, "variable needs a finite lower bound");
    APLACE_CHECK_MSG(lo <= hi, "variable bounds crossed");
    lo_[var] = lo;
    hi_[var] = hi;
  }
  void set_integer(int var, bool is_int = true) {
    APLACE_CHECK(var >= 0 && static_cast<std::size_t>(var) < lo_.size());
    integer_[var] = is_int;
  }

  [[nodiscard]] std::size_t num_variables() const { return lo_.size(); }
  [[nodiscard]] std::size_t num_constraints() const {
    return constraints_.size();
  }
  [[nodiscard]] double lower_bound(int v) const { return lo_[v]; }
  [[nodiscard]] double upper_bound(int v) const { return hi_[v]; }
  [[nodiscard]] double cost(int v) const { return cost_[v]; }
  [[nodiscard]] bool is_integer(int v) const { return integer_[v]; }
  [[nodiscard]] const std::vector<LpConstraint>& constraints() const {
    return constraints_;
  }

 private:
  std::vector<double> lo_, hi_, cost_;
  std::vector<char> integer_;
  std::vector<LpConstraint> constraints_;
};

/// Solve the LP relaxation (integrality marks ignored). Pivots use a 1e-9
/// tolerance and stop at 60 * (rows + columns) + 2000 iterations.
[[nodiscard]] LpSolution solve_lp(const LpProblem& p);

/// Worst violation of `x` over every row and every variable bound of `p`
/// (absolute, 0 when `x` satisfies all of them). `x` holds one value per
/// variable.
[[nodiscard]] double max_primal_residual(const LpProblem& p,
                                         std::span<const double> x);

}  // namespace aplace::solver
