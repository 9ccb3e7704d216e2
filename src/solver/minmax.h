// Exact specialized solvers for the paper's two ILP sub-problem families:
//
//   Eq. (2)  layer assignment:  min max_j { y_j * l_j }
//            s.t. sum_j l_j = L,  0 <= l_j <= cap_j,  l_j integer
//
//   Eq. (3)  data assignment:   min max_i { o_i * m_i }
//            s.t. sum_i m_i = M,  m_i >= 0 integer
//
// Both are bottleneck allocation problems solved exactly by a parametric
// feasibility search: for a threshold t, the assignment l_j = min(cap_j,
// floor(t / y_j)) maximizes the total at bottleneck <= t, so t is feasible
// iff that total reaches the demand. The optimum lies in the finite set
// { y_j * k } and is found by binary search over it. These run orders of
// magnitude faster than generic branch-and-bound; tests cross-check them
// against SolveIlp on random instances.

#ifndef MALLEUS_SOLVER_MINMAX_H_
#define MALLEUS_SOLVER_MINMAX_H_

#include <cstdint>
#include <vector>

#include "common/result.h"

namespace malleus {
namespace solver {

/// Result of a bottleneck allocation.
struct BottleneckSolution {
  std::vector<int64_t> amounts;  ///< l_j (or m_i) per entity.
  double bottleneck = 0.0;       ///< max_j rate_j * amounts_j.
};

/// \brief Solves min max_j rate_j * n_j s.t. sum n_j = total,
/// 0 <= n_j <= cap_j (cap_j < 0 means unbounded), n_j integer.
///
/// Entities with rate == +inf can only receive 0. After reaching the optimal
/// bottleneck, the secondary objective pushes work onto low-rate entities
/// (trimming excess from the highest-rate ones first), which minimizes the
/// warm-up/cool-down term sum_j rate_j * n_j among bottleneck-optimal
/// assignments.
///
/// Returns Status::Infeasible when sum cap_j < total.
Result<BottleneckSolution> SolveBottleneckAllocation(
    const std::vector<double>& rates, const std::vector<int64_t>& caps,
    int64_t total);

/// Convenience overload with no capacity limits (Eq. (3)).
Result<BottleneckSolution> SolveBottleneckAllocation(
    const std::vector<double>& rates, int64_t total);

/// The uncapped overload for hot loops: writes the same solution into
/// `*sol`, reusing the storage of `sol->amounts` and of `*order` (sort
/// scratch), so repeated calls of one size allocate nothing.
Status SolveBottleneckAllocationInto(const std::vector<double>& rates,
                                     int64_t total, BottleneckSolution* sol,
                                     std::vector<size_t>* order);

}  // namespace solver
}  // namespace malleus

#endif  // MALLEUS_SOLVER_MINMAX_H_
