#pragma once
// Solver-internal entry points shared by lp.cpp and milp.cpp.

#include <cstdint>

#include "solver/lp.hpp"

namespace aplace::solver::detail {

/// solve_lp() without the certificate and the counter flush, for
/// branch-and-bound, which certifies and counts once per solve_milp() call.
/// Adds the pivots it took to `pivots`.
[[nodiscard]] LpSolution simplex(const LpProblem& p, std::uint64_t& pivots);

/// Add one call's work to the solver/ counters.
void flush_counters(std::uint64_t lp_solves, std::uint64_t pivots,
                    std::uint64_t bb_nodes, std::uint64_t truncated);

}  // namespace aplace::solver::detail
