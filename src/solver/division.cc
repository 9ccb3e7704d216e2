#include "solver/division.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/logging.h"
#include "common/string_util.h"
#include "solver/minmax.h"

namespace malleus {
namespace solver {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Internal working state: slow groups sorted by descending rate with a map
// back to the caller's indices, the current placement with its
// per-pipeline aggregates, the feasibility table and the leaf scratch
// buffers. Every buffer is sized once per SolveDivision call.
struct Workspace {
  explicit Workspace(const DivisionProblem& p) : problem(p) {}

  const DivisionProblem& problem;
  std::vector<int> sorted_to_orig;   // sorted slow position -> original index
  std::vector<double> sorted_rates;  // descending
  // Current placement: slow (sorted pos) -> pipeline, -1 while unplaced,
  // with per-pipeline slow-group counts and mixed-radix class-count keys.
  std::vector<int> assign;
  std::vector<int> slow_count;
  std::vector<int64_t> class_key;
  std::vector<int64_t> class_stride;  // slow (sorted pos) -> key increment
  // Feasibility table, index num_fast * num_keys + class key: -1 unknown,
  // else 0/1. Empty when the problem has no feasibility callback.
  int64_t num_keys = 1;
  std::vector<int8_t> feasible;
  std::vector<int> probe_slow;  // Callback argument on a table miss.
  // Leaf scratch.
  std::vector<int> fast;           // pipeline -> #fast groups
  std::vector<double> caps, caps_try;
  std::vector<double> rates;       // 1 / S_i for the bottleneck solver
  BottleneckSolution alloc;
  std::vector<size_t> alloc_order;
  std::vector<int64_t> micro, micro_try;
  // Best complete solution found so far.
  double best_obj = kInf;
  std::vector<int> best_assign;      // slow (sorted pos) -> pipeline
  std::vector<int> best_fast;        // pipeline -> #fast groups
  std::vector<int64_t> best_micro;   // pipeline -> m_i
  int64_t nodes = 0;
  bool budget_hit = false;
};

// Takes slow group k (sorted position) off its pipeline, if it has one.
void Unassign(Workspace& ws, int k) {
  const int old = ws.assign[k];
  if (old < 0) return;
  --ws.slow_count[old];
  ws.class_key[old] -= ws.class_stride[k];
  ws.assign[k] = -1;
}

// Places slow group k (sorted position) on pipeline p.
void Assign(Workspace& ws, int k, int p) {
  Unassign(ws, k);
  ws.assign[k] = p;
  ++ws.slow_count[p];
  ws.class_key[p] += ws.class_stride[k];
}

// Capacity contribution of pipeline i for a given slow assignment + fast
// counts: S_i = h_i / y_hat + sum 1/y_k, summed in that order (fast term
// first, then the slow groups in sorted order). The order is part of the
// result: a one-ulp change in S_i can flip a strict leaf comparison.
void Capacities(const Workspace& ws, const std::vector<int>& assign,
                const std::vector<int>& fast, std::vector<double>* cap) {
  const int dp = ws.problem.num_pipelines;
  for (int i = 0; i < dp; ++i) {
    (*cap)[i] = fast[i] / ws.problem.fast_rate;
  }
  for (size_t k = 0; k < assign.size(); ++k) {
    (*cap)[assign[k]] += 1.0 / ws.sorted_rates[k];
  }
}

// Feasibility of pipeline `pipeline` of the current placement holding
// `num_fast` fast groups: a table lookup, calling back only on a miss.
bool PipelineFeasible(Workspace& ws, int pipeline, int num_fast) {
  if (ws.feasible.empty()) return true;
  int8_t& entry =
      ws.feasible[num_fast * ws.num_keys + ws.class_key[pipeline]];
  if (entry < 0) {
    ws.probe_slow.clear();
    for (size_t k = 0; k < ws.assign.size(); ++k) {
      if (ws.assign[k] == pipeline) {
        ws.probe_slow.push_back(ws.sorted_to_orig[k]);
      }
    }
    entry = ws.problem.pipeline_feasible(num_fast, ws.probe_slow) ? 1 : 0;
  }
  return entry != 0;
}

// Exact integer micro-batch allocation for fixed capacities. Returns the
// objective max_i m_i / S_i, or +inf if some pipeline has zero capacity;
// writes m_i into *micro only when finite.
double AllocateMicrobatches(Workspace& ws, const std::vector<double>& caps,
                            std::vector<int64_t>* micro) {
  const int dp = ws.problem.num_pipelines;
  for (int i = 0; i < dp; ++i) {
    if (caps[i] <= 0.0) return kInf;  // Empty pipeline: no feasible plan.
    ws.rates[i] = 1.0 / caps[i];
  }
  if (!SolveBottleneckAllocationInto(ws.rates, ws.problem.total_microbatches,
                                     &ws.alloc, &ws.alloc_order)
           .ok()) {
    return kInf;
  }
  // Every pipeline must process at least one micro-batch, otherwise its
  // GPUs idle for the whole step; fold zero-load pipelines into infeasible.
  for (int i = 0; i < dp; ++i) {
    if (ws.alloc.amounts[i] == 0) return kInf;
  }
  *micro = ws.alloc.amounts;
  return ws.alloc.bottleneck;
}

// Distributes the fast groups of the current placement over pipelines by
// water-filling on capacity, respecting feasibility; when `improve` is
// set, additionally runs single-group exchange improvement (only worth its
// cost on the winning assignment, so the DFS evaluates leaves with
// improve=false). Returns the achieved objective (or +inf); when finite,
// ws.fast and ws.micro hold the fast counts and m_i that achieve it.
double DistributeFastAndEvaluate(Workspace& ws, bool improve) {
  const int dp = ws.problem.num_pipelines;
  const int f_total = ws.problem.num_fast_groups;
  const double fast_mass = 1.0 / ws.problem.fast_rate;
  std::vector<int>& fast = ws.fast;
  std::vector<double>& caps = ws.caps;
  std::fill(fast.begin(), fast.end(), 0);

  // Pipelines with no slow group need at least one fast group.
  int remaining = f_total;
  for (int i = 0; i < dp; ++i) {
    if (ws.slow_count[i] == 0) {
      if (remaining == 0) return kInf;
      fast[i] = 1;
      --remaining;
    }
  }
  // Water-fill the rest onto the pipeline with the smallest capacity.
  Capacities(ws, ws.assign, fast, &caps);
  for (int g = 0; g < remaining; ++g) {
    int argmin = 0;
    for (int i = 1; i < dp; ++i) {
      if (caps[i] < caps[argmin]) argmin = i;
    }
    ++fast[argmin];
    caps[argmin] += fast_mass;
  }

  // Feasibility repair: shift fast groups toward infeasible pipelines from
  // the most capacious feasible donors. In the worst case every fast group
  // must move once, so the budget scales with f_total.
  for (int round = 0; round < f_total + 4 * dp + 8; ++round) {
    int bad = -1;
    for (int i = 0; i < dp; ++i) {
      if (!PipelineFeasible(ws, i, fast[i])) {
        bad = i;
        break;
      }
    }
    if (bad < 0) break;
    int donor = -1;
    for (int i = 0; i < dp; ++i) {
      if (i == bad) continue;
      const int keep = ws.slow_count[i] == 0 ? 1 : 0;
      if (fast[i] > keep && (donor < 0 || caps[i] > caps[donor])) donor = i;
    }
    if (donor < 0) return kInf;
    --fast[donor];
    ++fast[bad];
    caps[donor] -= fast_mass;
    caps[bad] += fast_mass;
  }
  for (int i = 0; i < dp; ++i) {
    if (!PipelineFeasible(ws, i, fast[i])) return kInf;
  }

  double best = AllocateMicrobatches(ws, caps, &ws.micro);

  // Exchange improvement on the fast-group counts.
  bool improved = improve;
  int guard = 0;
  while (improved && ++guard <= 16) {
    improved = false;
    for (int from = 0; from < dp; ++from) {
      const int keep = ws.slow_count[from] == 0 ? 1 : 0;
      for (int to = 0; to < dp; ++to) {
        if (to == from) continue;
        if (fast[from] <= keep) break;  // Re-check: kept moves drain it.
        --fast[from];
        ++fast[to];
        if (PipelineFeasible(ws, from, fast[from]) &&
            PipelineFeasible(ws, to, fast[to])) {
          Capacities(ws, ws.assign, fast, &ws.caps_try);
          const double obj2 =
              AllocateMicrobatches(ws, ws.caps_try, &ws.micro_try);
          if (obj2 < best - 1e-12) {
            best = obj2;
            std::swap(ws.micro, ws.micro_try);
            improved = true;
            continue;  // Keep the move.
          }
        }
        ++fast[from];  // Revert.
        --fast[to];
      }
    }
  }
  return best;
}

void EvaluateLeaf(Workspace& ws) {
  const double obj = DistributeFastAndEvaluate(ws, /*improve=*/false);
  if (obj < ws.best_obj) {
    ws.best_obj = obj;
    ws.best_assign = ws.assign;
    ws.best_fast = ws.fast;
    ws.best_micro = ws.micro;
  }
}

// Moves the current placement to the best-known one.
void LoadBest(Workspace& ws) {
  for (size_t k = 0; k < ws.best_assign.size(); ++k) {
    if (ws.assign[k] != ws.best_assign[k]) {
      Assign(ws, static_cast<int>(k), ws.best_assign[k]);
    }
  }
}

// Re-evaluates the best-known assignment with exchange improvement on.
void PolishBest(Workspace& ws) {
  if (ws.best_obj == kInf) return;
  LoadBest(ws);
  const double obj = DistributeFastAndEvaluate(ws, /*improve=*/true);
  if (obj < ws.best_obj) {
    ws.best_obj = obj;
    ws.best_fast = ws.fast;
    ws.best_micro = ws.micro;
  }
}

// Depth-first enumeration of canonical slow-group placements.
// Canonical form: group k may open at most one new pipeline (first-use
// order), and equal-rate groups are placed in non-decreasing pipeline order.
void Dfs(Workspace& ws, int k, int used) {
  if (ws.budget_hit) return;
  if (++ws.nodes > ws.problem.max_nodes) {
    ws.budget_hit = true;
    return;
  }
  const int ms = static_cast<int>(ws.sorted_rates.size());
  const int dp = ws.problem.num_pipelines;
  if (k == ms) {
    EvaluateLeaf(ws);
    return;
  }
  const int first_allowed =
      (k > 0 && ws.sorted_rates[k] == ws.sorted_rates[k - 1])
          ? ws.assign[k - 1]
          : 0;
  const int limit = std::min(dp - 1, used);  // used == next fresh pipeline
  for (int p = first_allowed; p <= limit; ++p) {
    Assign(ws, k, p);
    Dfs(ws, k + 1, std::max(used, p + 1));
    if (ws.budget_hit) return;
  }
  Unassign(ws, k);
}

// Greedy construction + move/swap local search, used when the exact
// enumeration exceeds its node budget.
void LocalSearch(Workspace& ws) {
  const int ms = static_cast<int>(ws.sorted_rates.size());
  const int dp = ws.problem.num_pipelines;
  // Greedy: heaviest slow group to the pipeline with least slow mass.
  std::vector<double> mass(dp, 0.0);
  for (int k = 0; k < ms; ++k) {
    int argmin = 0;
    for (int i = 1; i < dp; ++i) {
      if (mass[i] < mass[argmin]) argmin = i;
    }
    Assign(ws, k, argmin);
    mass[argmin] += 1.0 / ws.sorted_rates[k];  // Capacity mass.
  }
  EvaluateLeaf(ws);

  bool improved = true;
  int guard = 0;
  while (improved && ++guard <= 256) {
    improved = false;
    const double before = ws.best_obj;
    // Moves.
    for (int k = 0; k < ms; ++k) {
      const int old = ws.assign[k];
      for (int p = 0; p < dp; ++p) {
        if (p == old) continue;
        Assign(ws, k, p);
        EvaluateLeaf(ws);
      }
      Assign(ws, k, ws.best_obj < before ? ws.best_assign[k] : old);
    }
    // Swaps.
    for (int a = 0; a < ms; ++a) {
      for (int b = a + 1; b < ms; ++b) {
        const int pa = ws.assign[a];
        const int pb = ws.assign[b];
        if (pa == pb) continue;
        Assign(ws, a, pb);
        Assign(ws, b, pa);
        EvaluateLeaf(ws);
        if (ws.best_assign == ws.assign) continue;  // Keep improving swap.
        Assign(ws, a, pa);
        Assign(ws, b, pb);
      }
    }
    if (ws.best_obj < before - 1e-12) {
      LoadBest(ws);
      improved = true;
    }
  }
}

// Sizes the feasibility table and the class-count key increments. Slow
// groups of one class are interchangeable, so a pipeline's key is the
// mixed-radix number whose digit c counts its groups of class c (radix
// n_c + 1).
Status BuildFeasibilityTable(Workspace& ws) {
  const DivisionProblem& problem = ws.problem;
  const int ms = static_cast<int>(problem.slow_rates.size());
  ws.class_stride.assign(ms, 0);
  if (!problem.pipeline_feasible) return Status::OK();
  // Dense class ids in order of first appearance along the sorted groups.
  std::vector<int> labels, counts;
  std::vector<int> dense(ms);
  for (int k = 0; k < ms; ++k) {
    const int orig = ws.sorted_to_orig[k];
    const int label = problem.slow_classes.empty() ? orig
                                                   : problem.slow_classes[orig];
    const auto it = std::find(labels.begin(), labels.end(), label);
    dense[k] = static_cast<int>(it - labels.begin());
    if (it == labels.end()) {
      labels.push_back(label);
      counts.push_back(0);
    }
    ++counts[dense[k]];
  }
  const int64_t fast_keys = int64_t{problem.num_fast_groups} + 1;
  std::vector<int64_t> stride(counts.size());
  int64_t num_keys = 1;
  for (size_t c = 0; c < counts.size(); ++c) {
    stride[c] = num_keys;
    num_keys *= counts[c] + 1;
    if (num_keys * fast_keys > kMaxFeasibilityTableEntries) {
      return Status::InvalidArgument(StrFormat(
          "feasibility table exceeds %lld entries; give slow_classes that "
          "merge interchangeable slow groups",
          static_cast<long long>(kMaxFeasibilityTableEntries)));
    }
  }
  for (int k = 0; k < ms; ++k) ws.class_stride[k] = stride[dense[k]];
  ws.num_keys = num_keys;
  ws.feasible.assign(num_keys * fast_keys, -1);
  ws.probe_slow.reserve(ms);
  return Status::OK();
}

}  // namespace

Result<DivisionResult> SolveDivision(const DivisionProblem& problem) {
  if (problem.num_pipelines <= 0) {
    return Status::InvalidArgument("need at least one pipeline");
  }
  if (problem.num_fast_groups < 0) {
    return Status::InvalidArgument("negative fast group count");
  }
  if (problem.fast_rate <= 0) {
    return Status::InvalidArgument("fast_rate must be positive");
  }
  if (problem.total_microbatches <= 0) {
    return Status::InvalidArgument("need at least one micro-batch");
  }
  const int total_groups = problem.num_fast_groups +
                           static_cast<int>(problem.slow_rates.size());
  if (total_groups < problem.num_pipelines) {
    return Status::Infeasible("fewer groups than pipelines");
  }
  for (double y : problem.slow_rates) {
    if (!(y > 0)) {
      return Status::InvalidArgument("slow rates must be positive");
    }
  }
  if (!problem.slow_classes.empty() &&
      problem.slow_classes.size() != problem.slow_rates.size()) {
    return Status::InvalidArgument("slow_classes/slow_rates size mismatch");
  }

  Workspace ws(problem);
  const int ms = static_cast<int>(problem.slow_rates.size());
  ws.sorted_to_orig.resize(ms);
  std::iota(ws.sorted_to_orig.begin(), ws.sorted_to_orig.end(), 0);
  std::sort(ws.sorted_to_orig.begin(), ws.sorted_to_orig.end(),
            [&](int a, int b) {
              return problem.slow_rates[a] > problem.slow_rates[b];
            });
  ws.sorted_rates.resize(ms);
  for (int k = 0; k < ms; ++k) {
    ws.sorted_rates[k] = problem.slow_rates[ws.sorted_to_orig[k]];
  }

  MALLEUS_RETURN_NOT_OK(BuildFeasibilityTable(ws));
  const int dp = problem.num_pipelines;
  ws.assign.assign(ms, -1);
  ws.slow_count.assign(dp, 0);
  ws.class_key.assign(dp, 0);
  ws.fast.assign(dp, 0);
  ws.caps.assign(dp, 0.0);
  ws.caps_try.assign(dp, 0.0);
  ws.rates.assign(dp, 0.0);

  Dfs(ws, 0, 0);
  const bool exact = !ws.budget_hit;
  if (ws.budget_hit) {
    LocalSearch(ws);
  }
  PolishBest(ws);

  if (ws.best_obj == kInf) {
    return Status::Infeasible("no feasible pipeline division");
  }

  DivisionResult out;
  out.objective = ws.best_obj;
  out.exact = exact;
  out.nodes_explored = ws.nodes;
  out.pipelines.resize(problem.num_pipelines);
  for (int i = 0; i < problem.num_pipelines; ++i) {
    out.pipelines[i].num_fast = ws.best_fast[i];
    out.pipelines[i].microbatches = ws.best_micro[i];
  }
  for (int k = 0; k < ms; ++k) {
    out.pipelines[ws.best_assign[k]].slow_indices.push_back(
        ws.sorted_to_orig[k]);
  }
  Capacities(ws, ws.best_assign, ws.best_fast, &ws.caps);
  for (int i = 0; i < problem.num_pipelines; ++i) {
    out.pipelines[i].capacity = ws.caps[i];
    std::sort(out.pipelines[i].slow_indices.begin(),
              out.pipelines[i].slow_indices.end());
  }
  return out;
}

}  // namespace solver
}  // namespace malleus
