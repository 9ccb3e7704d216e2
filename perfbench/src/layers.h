// The traced run's per-situation layer walk: for one cluster situation,
// call each layer's public entry point in pipeline order, each call inside
// its own span (scenario parse and trace generation are spanned by the
// workloads themselves).

#ifndef MALLEUS_PERFBENCH_LAYERS_H_
#define MALLEUS_PERFBENCH_LAYERS_H_

#include <cstdint>
#include <vector>

#include "core/planner.h"
#include "model/cost_model.h"
#include "net/fabric.h"
#include "perfbench.h"
#include "plan/plan.h"
#include "straggler/situation.h"
#include "topology/cluster.h"

namespace malleus {
namespace perfbench {

struct LayerWorld {
  const topo::ClusterSpec* cluster = nullptr;
  const model::CostModel* cost = nullptr;
  int64_t global_batch = 64;
  /// Planner options of the walk's plans (threads, island size).
  core::PlannerOptions planner;
  /// Pins each re-plan to the previous plan's DP degree (paper footnote
  /// 2), starting from the healthy plan's and walking down one degree
  /// while infeasible, as the dynamic runner and serve's replan do.
  bool pin_dp = false;
  /// kFlow adds the net.* layers (flow-priced step and the grad-sync
  /// FlowSim session).
  net::NetModel net_model = net::NetModel::kAnalytic;
  /// Adds whatif::ReplayPlanStep (the what-if engine's replay).
  bool whatif_replay = false;
};

/// Solver-cache traffic of the planners the walk created.
struct CacheTally {
  int64_t hits = 0;
  int64_t lookups = 0;
  int64_t entries = 0;
  int planners = 0;
};

/// Plans the healthy cluster (the walk's first previous plan), then walks
/// every layer for each situation in order, once with `tracer` and once
/// with tracing off. Writes the per-layer metrics into out->layers (mean
/// self milliseconds per call, counts verbatim) with trace.overhead_ms =
/// traced minus untraced walk time, and counts each situation the planner
/// could not plan as a failed operation. Returns the traced walk's cache
/// traffic.
CacheTally TraceLayers(const LayerWorld& world,
                       const std::vector<straggler::Situation>& situations,
                       Tracer* tracer, Outcome* out);

}  // namespace perfbench
}  // namespace malleus

#endif  // MALLEUS_PERFBENCH_LAYERS_H_
