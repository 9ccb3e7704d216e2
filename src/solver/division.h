// Solver for the pipeline-division MINLP (paper Eq. (4), Appendix B.6):
//
//   min max_i  m_i / S_i     with  S_i = h_i / y_hat + sum_k q_{i,k} / y_k
//   s.t. sum_i m_i = M, sum_i h_i = F, each slow group in exactly one
//        pipeline, m_i/h_i nonnegative integers, q binary.
//
// The (relaxed) capacity S_i is the reciprocal-rate mass of the groups in
// pipeline i; the objective is the bottleneck pipeline's micro-batch load
// per unit capacity (tau(b) and L factor out). Instances are small (DP and
// the number of slow groups are both modest), so we solve exactly by
// depth-first enumeration of slow-group placements with two symmetry
// reductions (interchangeable pipelines; interchangeable equal-rate
// groups), falling back to greedy + local search beyond a node budget.
// Within each placement, fast groups are distributed by water-filling (the
// winning placement additionally gets single-move exchange improvement)
// and the integer m_i allocation is solved exactly (solver/minmax.h).
// The placement dimension is therefore exact while the fast-distribution
// dimension is near-optimal: property tests bound the gap against brute
// force at a few percent, comparable to a time-bounded MINLP solve.
//
// Memory feasibility of a pipeline is a function of its fast-group count
// and of how many slow groups of each feasibility class it holds (the
// caller's `slow_classes`, e.g. the TP size). The search keeps a flat int8
// table indexed by (num_fast, mixed-radix class counts), local to one
// SolveDivision call, and fills an entry on its first probe: the
// `pipeline_feasible` callback is consulted only on a table miss, so it runs
// at most once per distinct key, and every other probe is an array lookup
// that allocates nothing. Leaf evaluation likewise reuses flat per-pipeline
// buffers, updated in place as the search places and moves slow groups.

#ifndef MALLEUS_SOLVER_DIVISION_H_
#define MALLEUS_SOLVER_DIVISION_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/result.h"

namespace malleus {
namespace solver {

/// Decides whether a pipeline made of `num_fast` fast groups plus the slow
/// groups at `slow_indices` can host the model (memory feasibility). The
/// answer must depend only on `num_fast` and on how many of the slow groups
/// fall in each class of DivisionProblem::slow_classes.
using PipelineFeasibleFn =
    std::function<bool(int num_fast, const std::vector<int>& slow_indices)>;

/// Upper bound on the feasibility table of one SolveDivision call (bytes).
inline constexpr int64_t kMaxFeasibilityTableEntries = int64_t{1} << 24;

struct DivisionProblem {
  int num_pipelines = 1;   ///< DP-bar: the (fixed) number of pipelines.
  int num_fast_groups = 0; ///< Count of majority groups sharing fast_rate.
  double fast_rate = 1.0;  ///< y-hat of the fast groups.
  /// Group straggling rates of the minority (slow) groups.
  std::vector<double> slow_rates;
  /// Feasibility class of each slow group, parallel to slow_rates (any
  /// labels; groups with equal labels are interchangeable for
  /// pipeline_feasible). Empty: every slow group is its own class.
  std::vector<int> slow_classes;
  int64_t total_microbatches = 1;  ///< M = B / b.
  /// Optional memory-feasibility check; all pipelines pass if unset.
  /// Consulted once per distinct (num_fast, class counts) key, with the
  /// slow groups of the first pipeline probed with that key. The key table
  /// holds (num_fast_groups + 1) * prod_c (n_c + 1) entries for n_c slow
  /// groups in class c; SolveDivision rejects problems whose table would
  /// exceed kMaxFeasibilityTableEntries.
  PipelineFeasibleFn pipeline_feasible;
  /// Node budget before falling back to local search.
  int64_t max_nodes = 2'000'000;
};

struct DivisionResult {
  struct Pipeline {
    int num_fast = 0;
    std::vector<int> slow_indices;  ///< Indices into slow_rates.
    int64_t microbatches = 0;       ///< m_i.
    double capacity = 0.0;          ///< S_i.
  };
  std::vector<Pipeline> pipelines;
  /// max_i m_i / S_i — multiply by L * tau(b) for an absolute time estimate.
  double objective = 0.0;
  /// True when the exact enumeration completed within the node budget.
  bool exact = false;
  int64_t nodes_explored = 0;
};

/// Solves the division problem. Returns Status::Infeasible if no placement
/// passes the feasibility callback.
Result<DivisionResult> SolveDivision(const DivisionProblem& problem);

}  // namespace solver
}  // namespace malleus

#endif  // MALLEUS_SOLVER_DIVISION_H_
