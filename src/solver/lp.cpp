#include "solver/lp.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "obs/metrics.hpp"
#include "solver/simplex.hpp"

namespace aplace::solver {

const char* to_string(LpStatus s) {
  switch (s) {
    case LpStatus::Optimal: return "optimal";
    case LpStatus::Infeasible: return "infeasible";
    case LpStatus::Unbounded: return "unbounded";
    case LpStatus::IterLimit: return "iteration-limit";
    case LpStatus::Uncertified: return "uncertified";
  }
  return "?";
}

int LpProblem::add_variable(double lo, double hi, double cost) {
  APLACE_CHECK_MSG(lo > -kInf, "variable needs a finite lower bound");
  APLACE_CHECK_MSG(lo <= hi, "variable bounds crossed");
  lo_.push_back(lo);
  hi_.push_back(hi);
  cost_.push_back(cost);
  integer_.push_back(0);
  return static_cast<int>(lo_.size()) - 1;
}

void LpProblem::add_constraint(std::vector<LpTerm> terms, Relation rel,
                               double rhs) {
  for (const LpTerm& t : terms) {
    APLACE_CHECK_MSG(
        t.var >= 0 && static_cast<std::size_t>(t.var) < lo_.size(),
        "constraint references unknown variable");
  }
  constraints_.push_back(LpConstraint{std::move(terms), rel, rhs});
}

namespace {

// Dense simplex tableau of an LpProblem in standard form: a two-phase
// primal for the cold solve, a dual simplex for warm re-solves after rhs
// changes. Every variable has a finite lower bound, so column j is
// x'_j = x_j - lo_j >= 0. The rows are the problem's constraints, then one
// row x'_j <= hi_j - lo_j per finite upper bound. Flat row-major storage:
// a_[r * stride + c], last column = rhs.
class Tableau {
 public:
  /// Writes `p`'s sparse rows straight into the tableau. `upper_row[j]`
  /// receives the row of x_j's upper bound, or -1 when it is infinite.
  Tableau(const LpProblem& p, std::vector<int>& upper_row)
      : n_struct_(p.num_variables()) {
    const std::vector<LpConstraint>& constraints = p.constraints();
    std::vector<Relation> rels;
    std::vector<double> rhs;
    for (const LpConstraint& c : constraints) {
      double b = c.rhs;
      for (const LpTerm& t : c.terms) b -= t.coef * p.lower_bound(t.var);
      rels.push_back(c.relation);
      rhs.push_back(b);
    }
    upper_row.assign(n_struct_, -1);
    for (std::size_t j = 0; j < n_struct_; ++j) {
      const int v = static_cast<int>(j);
      if (p.upper_bound(v) == kInf) continue;
      upper_row[j] = static_cast<int>(rels.size());
      rels.push_back(Relation::LessEq);
      rhs.push_back(p.upper_bound(v) - p.lower_bound(v));
    }
    m_ = rels.size();
    // Rows with a negative rhs are negated whole, so that rhs >= 0.
    std::vector<char> negated(m_, 0);
    for (std::size_t i = 0; i < m_; ++i) {
      if (rhs[i] < 0) {
        negated[i] = 1;
        rhs[i] = -rhs[i];
        if (rels[i] == Relation::LessEq) rels[i] = Relation::GreaterEq;
        else if (rels[i] == Relation::GreaterEq) rels[i] = Relation::LessEq;
      }
    }
    std::size_t n_slack = 0, n_art = 0;
    for (Relation r : rels) {
      if (r == Relation::LessEq) ++n_slack;
      else if (r == Relation::GreaterEq) { ++n_slack; ++n_art; }
      else ++n_art;
    }
    n_total_ = n_struct_ + n_slack + n_art;
    art_begin_ = n_struct_ + n_slack;
    stride_ = n_total_ + 1;
    a_.assign(m_ * stride_, 0.0);
    basis_.assign(m_, -1);
    slack_.assign(m_, -1);
    for (std::size_t i = 0; i < constraints.size(); ++i) {
      for (const LpTerm& t : constraints[i].terms) {
        a_[i * stride_ + static_cast<std::size_t>(t.var)] += t.coef;
      }
    }
    for (std::size_t j = 0; j < n_struct_; ++j) {
      if (upper_row[j] < 0) continue;
      a_[static_cast<std::size_t>(upper_row[j]) * stride_ + j] = 1.0;
    }

    std::size_t slack_col = n_struct_;
    std::size_t art_col = art_begin_;
    for (std::size_t i = 0; i < m_; ++i) {
      double* row = &a_[i * stride_];
      if (negated[i]) {
        for (std::size_t j = 0; j < n_struct_; ++j) row[j] = -row[j];
      }
      row[n_total_] = rhs[i];
      switch (rels[i]) {
        case Relation::LessEq:
          row[slack_col] = 1.0;
          slack_[i] = static_cast<int>(slack_col);
          basis_[i] = static_cast<int>(slack_col++);
          break;
        case Relation::GreaterEq:
          row[slack_col++] = -1.0;
          row[art_col] = 1.0;
          basis_[i] = static_cast<int>(art_col++);
          break;
        case Relation::Equal:
          row[art_col] = 1.0;
          basis_[i] = static_cast<int>(art_col++);
          break;
      }
    }
    cost_.assign(n_total_, 0.0);
    for (std::size_t j = 0; j < n_struct_; ++j) {
      cost_[j] = p.cost(static_cast<int>(j));
    }
    max_iters_ = static_cast<long>(60 * (m_ + n_total_) + 2000);
  }

  LpStatus solve() {
    // ---- Phase 1: minimize sum of artificials ----
    if (art_begin_ < n_total_) {
      std::vector<double> phase1(n_total_, 0.0);
      for (std::size_t j = art_begin_; j < n_total_; ++j) phase1[j] = 1.0;
      build_reduced_costs(phase1);
      const LpStatus st = iterate(/*phase1=*/true);
      if (st != LpStatus::Optimal) return st;
      if (objective_value(phase1) > 1e-6) return LpStatus::Infeasible;
      // Drive remaining artificial basics out where possible.
      for (std::size_t i = 0; i < m_; ++i) {
        if (static_cast<std::size_t>(basis_[i]) >= art_begin_) {
          const double* row = &a_[i * stride_];
          std::size_t piv = n_total_;
          for (std::size_t j = 0; j < art_begin_; ++j) {
            if (std::abs(row[j]) > kTol) {
              piv = j;
              break;
            }
          }
          if (piv < n_total_) pivot(i, piv);
          // else: redundant row; artificial stays basic at value 0.
        }
      }
      drop_artificial_columns();
    }
    // ---- Phase 2 ----
    build_reduced_costs(cost_);
    return iterate(/*phase1=*/false);
  }

  /// Add `scale` times tableau column `col` to the rhs column: the rhs
  /// after the standard-form rhs moved by `scale` times that column's
  /// original entries.
  void shift_rhs(std::size_t col, double scale) {
    for (std::size_t i = 0; i < m_; ++i) {
      double* row = &a_[i * stride_];
      row[n_total_] += scale * row[col];
    }
  }

  /// Slack column of standard-form row `row` (a <= row), whose tableau
  /// column is B^-1 e_row.
  [[nodiscard]] std::size_t slack_column(std::size_t row) const {
    APLACE_CHECK(slack_[row] >= 0);
    return static_cast<std::size_t>(slack_[row]);
  }

  /// Re-optimize an optimal tableau after rhs changes: dual simplex, then
  /// a primal pass that catches reduced costs roundoff left slightly
  /// negative. IterLimit means this tableau cannot answer (cap hit, or an
  /// artificial left basic in a redundant row now sits off zero).
  LpStatus reoptimize() {
    for (std::size_t i = 0; i < m_; ++i) {
      if (static_cast<std::size_t>(basis_[i]) >= art_begin_ &&
          std::abs(a_[i * stride_ + n_total_]) > 1e-6) {
        return LpStatus::IterLimit;
      }
    }
    const LpStatus st = dual_iterate();
    if (st != LpStatus::Optimal) return st;
    return iterate(/*phase1=*/false) == LpStatus::Optimal
               ? LpStatus::Optimal
               : LpStatus::IterLimit;
  }

  [[nodiscard]] std::uint64_t pivots() const { return pivots_; }

  [[nodiscard]] std::vector<double> structural_values() const {
    std::vector<double> x(n_struct_, 0.0);
    for (std::size_t i = 0; i < m_; ++i) {
      if (basis_[i] >= 0 && static_cast<std::size_t>(basis_[i]) < n_struct_) {
        x[basis_[i]] = a_[i * stride_ + n_total_];
      }
    }
    return x;
  }

 private:
  void build_reduced_costs(const std::vector<double>& c) {
    red_.assign(stride_, 0.0);
    for (std::size_t j = 0; j < n_total_; ++j) red_[j] = c[j];
    for (std::size_t i = 0; i < m_; ++i) {
      const double cb = c[basis_[i]];
      if (cb == 0.0) continue;
      const double* row = &a_[i * stride_];
      for (std::size_t j = 0; j < stride_; ++j) red_[j] -= cb * row[j];
    }
  }

  // After phase 1 no artificial column may enter again, and nothing reads
  // them, so stop paying for them in every pivot: compact each row to its
  // structural and slack columns plus the rhs, in place. The kept entries
  // and every later pivot on them are unchanged. An artificial still basic
  // in a redundant row keeps its index (>= art_begin_) in basis_.
  void drop_artificial_columns() {
    const std::size_t stride = art_begin_ + 1;
    for (std::size_t i = 0; i < m_; ++i) {
      const double* from = &a_[i * stride_];
      double* to = &a_[i * stride];
      for (std::size_t j = 0; j < art_begin_; ++j) to[j] = from[j];
      to[art_begin_] = from[n_total_];
    }
    a_.resize(m_ * stride);
    n_total_ = art_begin_;
    stride_ = stride;
  }

  [[nodiscard]] double objective_value(const std::vector<double>& c) const {
    double v = 0;
    for (std::size_t i = 0; i < m_; ++i) {
      v += c[basis_[i]] * a_[i * stride_ + n_total_];
    }
    return v;
  }

  // Row elimination touches only the pivot row's nonzeros: the tableau
  // stays sparse, and subtracting f * 0 changes no value.
  void pivot(std::size_t r, std::size_t c) {
    double* prow = &a_[r * stride_];
    const double piv = prow[c];
    const double inv = 1.0 / piv;
    nz_.clear();
    for (std::size_t j = 0; j < stride_; ++j) {
      if (prow[j] == 0.0) continue;
      prow[j] *= inv;
      nz_.push_back(j);
    }
    prow[c] = 1.0;  // kill roundoff on the pivot column
    const auto eliminate = [&](double* row) {
      const double f = row[c];
      if (f == 0.0) return;
      for (const std::size_t j : nz_) row[j] -= f * prow[j];
      row[c] = 0.0;
    };
    for (std::size_t i = 0; i < m_; ++i) {
      if (i != r) eliminate(&a_[i * stride_]);
    }
    eliminate(red_.data());
    basis_[r] = static_cast<int>(c);
    ++pivots_;
  }

  LpStatus iterate(bool phase1) {
    long degenerate_streak = 0;
    for (long it = 0; it < max_iters_; ++it) {
      // Entering column: Dantzig rule, Bland after a degeneracy streak.
      const bool bland = degenerate_streak > static_cast<long>(m_) + 50;
      std::size_t enter = n_total_;
      double best = -kTol;
      const std::size_t limit = phase1 ? n_total_ : art_begin_;
      for (std::size_t j = 0; j < limit; ++j) {
        if (red_[j] < best) {
          best = red_[j];
          enter = j;
          if (bland) break;
        }
      }
      if (enter == n_total_) return LpStatus::Optimal;

      // Ratio test.
      std::size_t leave = m_;
      double best_ratio = kInf;
      for (std::size_t i = 0; i < m_; ++i) {
        const double aij = a_[i * stride_ + enter];
        if (aij > kTol) {
          const double ratio = a_[i * stride_ + n_total_] / aij;
          if (ratio < best_ratio - 1e-12 ||
              (ratio < best_ratio + 1e-12 && leave < m_ &&
               basis_[i] < basis_[leave])) {
            best_ratio = ratio;
            leave = i;
          }
        }
      }
      if (leave == m_) return LpStatus::Unbounded;
      degenerate_streak = best_ratio <= 1e-12 ? degenerate_streak + 1 : 0;
      pivot(leave, enter);
    }
    return LpStatus::IterLimit;
  }

  // Dual simplex over a dual feasible tableau (reduced costs >= 0 on every
  // column that may enter). Leaving row: the most negative rhs, or after a
  // streak of dual degenerate pivots the one with the smallest basic column
  // (Bland). Entering column: the smallest ratio red_j / -a_rj over a_rj < 0;
  // ties go to the larger |a_rj|, or under Bland to the smallest column.
  // Artificial columns never enter, as in phase 2.
  LpStatus dual_iterate() {
    long degenerate_streak = 0;
    for (long it = 0; it < max_iters_; ++it) {
      const bool bland = degenerate_streak > static_cast<long>(m_) + 50;
      std::size_t leave = m_;
      double worst = -kTol;
      for (std::size_t i = 0; i < m_; ++i) {
        if (static_cast<std::size_t>(basis_[i]) >= art_begin_) continue;
        const double b = a_[i * stride_ + n_total_];
        if (b >= -kTol) continue;
        if (bland ? leave == m_ || basis_[i] < basis_[leave] : b < worst) {
          worst = b;
          leave = i;
        }
      }
      if (leave == m_) return LpStatus::Optimal;

      const double* row = &a_[leave * stride_];
      std::size_t enter = n_total_;
      double best_ratio = kInf;
      for (std::size_t j = 0; j < art_begin_; ++j) {
        if (row[j] >= -kTol) continue;
        const double ratio = std::max(red_[j], 0.0) / -row[j];
        if (ratio < best_ratio - 1e-12 ||
            (!bland && ratio < best_ratio + 1e-12 && row[j] < row[enter])) {
          best_ratio = ratio;
          enter = j;
        }
      }
      if (enter == n_total_) return LpStatus::Infeasible;
      degenerate_streak = best_ratio <= 1e-12 ? degenerate_streak + 1 : 0;
      pivot(leave, enter);
    }
    return LpStatus::IterLimit;
  }

  static constexpr double kTol = 1e-9;  ///< pivot / feasibility tolerance
  std::size_t m_ = 0;
  std::size_t n_struct_;
  std::size_t n_total_ = 0;  ///< columns; the rhs is column n_total_
  std::size_t art_begin_ = 0;  ///< first artificial column
  std::size_t stride_ = 0;
  long max_iters_ = 0;
  std::uint64_t pivots_ = 0;
  std::vector<double> a_;  // flat row-major tableau, last column = rhs
  std::vector<double> cost_;
  std::vector<double> red_;  // reduced cost row
  std::vector<int> basis_;
  std::vector<int> slack_;  // slack column of each <= row (normalized), or -1
  std::vector<std::size_t> nz_;  // pivot-row nonzero columns (pivot scratch)
};

// The natural-variable answer of an optimal tableau.
LpSolution extract(const LpProblem& p, const Tableau& t) {
  LpSolution sol;
  sol.status = LpStatus::Optimal;
  const std::vector<double> xs = t.structural_values();
  const std::size_t n = p.num_variables();
  sol.x.assign(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    const int v = static_cast<int>(j);
    sol.objective += p.cost(v) * p.lower_bound(v);
  }
  for (std::size_t j = 0; j < n; ++j) {
    const int v = static_cast<int>(j);
    sol.x[j] = p.lower_bound(v) + xs[j];
    sol.objective += p.cost(v) * (sol.x[j] - p.lower_bound(v));
  }
  return sol;
}

}  // namespace

LpSolution solve_lp(const LpProblem& p) {
  detail::Work work;
  work.lp_solves = 1;
  LpSolution sol = detail::simplex(p, work.pivots);
  double residual = -1.0;
  if (sol.ok()) {
    residual = max_primal_residual(p, sol.x);
    if (residual > kResidualTol) sol.status = LpStatus::Uncertified;
  }
  detail::flush_counters(work, 0, residual);
  return sol;
}

double max_primal_residual(const LpProblem& p, std::span<const double> x) {
  APLACE_CHECK(x.size() == p.num_variables());
  double worst = 0.0;
  const auto note = [&worst](double violation) {
    // A NaN anywhere leaves nothing to certify.
    worst = std::isnan(violation) ? kInf : std::max(worst, violation);
  };
  for (std::size_t j = 0; j < x.size(); ++j) {
    const int v = static_cast<int>(j);
    note(p.lower_bound(v) - x[j]);
    note(x[j] - p.upper_bound(v));
  }
  for (const LpConstraint& c : p.constraints()) {
    double lhs = 0.0;
    for (const LpTerm& t : c.terms) lhs += t.coef * x[t.var];
    const double over = lhs - c.rhs;
    switch (c.relation) {
      case Relation::LessEq: note(over); break;
      case Relation::GreaterEq: note(-over); break;
      case Relation::Equal: note(std::abs(over)); break;
    }
  }
  return worst;
}

namespace detail {

void flush_counters(const Work& work, std::uint64_t bb_nodes,
                    double residual) {
  static const obs::Counter solves = obs::counter("solver/lp_solves");
  static const obs::Counter warm = obs::counter("solver/warm_solves");
  static const obs::Counter pivot_count = obs::counter("solver/pivots");
  static const obs::Counter nodes = obs::counter("solver/bb_nodes");
  static const obs::Counter cut = obs::counter("solver/truncated");
  static const obs::Histogram residuals =
      obs::histogram("solver/max_residual");
  solves.add(work.lp_solves);
  warm.add(work.warm_solves);
  pivot_count.add(work.pivots);
  nodes.add(bb_nodes);
  cut.add(work.truncated);
  if (residual >= 0.0) residuals.record(residual);
}

// The tableau of the last Optimal cold or warm solve, the row of each
// variable's upper bound (-1 when infinite) and the bounds it was solved for.
struct WarmLp::Kept {
  Tableau t;
  std::vector<int> upper_row;
  std::vector<double> lo, hi;

  Kept(const LpProblem& p, Tableau&& tableau, std::vector<int>&& rows)
      : t(std::move(tableau)), upper_row(std::move(rows)) {
    for (std::size_t j = 0; j < p.num_variables(); ++j) {
      lo.push_back(p.lower_bound(static_cast<int>(j)));
      hi.push_back(p.upper_bound(static_cast<int>(j)));
    }
  }

  /// Whether `p`'s bounds keep the tableau's rows: each upper bound finite
  /// exactly where the kept one is.
  [[nodiscard]] bool same_layout(const LpProblem& p) const {
    APLACE_CHECK(p.num_variables() == hi.size());
    for (std::size_t j = 0; j < hi.size(); ++j) {
      if ((p.upper_bound(static_cast<int>(j)) < kInf) != (hi[j] < kInf)) {
        return false;
      }
    }
    return true;
  }

  /// Move the rhs to `p`'s bounds and re-optimize.
  LpStatus resolve(const LpProblem& p) {
    for (std::size_t j = 0; j < lo.size(); ++j) {
      const int v = static_cast<int>(j);
      const double new_lo = p.lower_bound(v);
      const double new_hi = p.upper_bound(v);
      // Rows hold b - coef * lo, so a new lower bound moves every row's rhs
      // by -coef * delta: -delta times x''s original column.
      if (new_lo != lo[j]) t.shift_rhs(j, -(new_lo - lo[j]));
      // Its own row x' <= hi - lo got -delta_lo above; add delta_hi.
      if (upper_row[j] >= 0 && new_hi != hi[j]) {
        t.shift_rhs(t.slack_column(static_cast<std::size_t>(upper_row[j])),
                    new_hi - hi[j]);
      }
      lo[j] = new_lo;
      hi[j] = new_hi;
    }
    return t.reoptimize();
  }
};

WarmLp::WarmLp() = default;
WarmLp::~WarmLp() = default;

LpSolution WarmLp::solve(const LpProblem& p, Work& work) {
  ++work.lp_solves;
  if (kept_ != nullptr && kept_->same_layout(p)) {
    const std::uint64_t before = kept_->t.pivots();
    const LpStatus st = kept_->resolve(p);
    work.pivots += kept_->t.pivots() - before;
    if (st == LpStatus::Optimal || st == LpStatus::Infeasible) {
      ++work.warm_solves;
      // An infeasible node leaves the tableau dual feasible, so it stays.
      if (st == LpStatus::Infeasible) return LpSolution{st, {}, 0.0};
      return extract(p, kept_->t);
    }
  }
  return simplex(p, work.pivots, this);
}

LpSolution simplex(const LpProblem& p, std::uint64_t& pivots, WarmLp* keep) {
  if (keep != nullptr) keep->kept_.reset();
  std::vector<int> upper_row;
  Tableau t(p, upper_row);
  const LpStatus st = t.solve();
  pivots += t.pivots();
  if (st != LpStatus::Optimal) return LpSolution{st, {}, 0.0};
  LpSolution sol = extract(p, t);
  if (keep != nullptr) {
    keep->kept_ =
        std::make_unique<WarmLp::Kept>(p, std::move(t), std::move(upper_row));
  }
  return sol;
}

}  // namespace detail
}  // namespace aplace::solver
