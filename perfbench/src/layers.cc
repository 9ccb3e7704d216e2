#include "layers.h"

#include "common/rng.h"
#include "core/grouping.h"
#include "core/migration.h"
#include "core/orchestration.h"
#include "core/work_assignment.h"
#include "net/flow_sim.h"
#include "plan/estimator.h"
#include "sim/pipeline_sim.h"
#include "whatif/whatif.h"

namespace malleus {
namespace perfbench {

namespace {

Result<core::PlanResult> PlanPinned(const core::Planner& planner,
                                    const straggler::Situation& situation,
                                    int64_t global_batch,
                                    core::PlannerOptions options) {
  Result<core::PlanResult> planned =
      planner.Plan(situation, global_batch, options);
  while (!planned.ok() && options.dp_degree > 1) {
    --options.dp_degree;
    planned = planner.Plan(situation, global_batch, options);
  }
  return planned;
}

Result<sim::StepResult> SimulateNoiseFree(const LayerWorld& world,
                                          const plan::ParallelPlan& p,
                                          const straggler::Situation& s,
                                          net::NetModel net_model) {
  sim::SimOptions options;
  options.timing_noise_stddev = 0.0;
  options.net_model = net_model;
  Rng rng(0x6D616C6C657573ULL);
  return sim::SimulateStep(*world.cluster, *world.cost, p, s, options, &rng);
}

// One orchestration sub-problem of a chosen plan.
struct SubProblem {
  topo::ClusterSpec cluster;
  straggler::Situation situation;
  int dp = 0;
  int64_t total_micro = 0;
};

// The orchestration sub-problems behind plan `p`: the whole cluster on the
// flat path; on the hierarchical path (island_nodes > 0 and every pipeline
// inside one island) each island, planned as the hierarchy plans it — on a
// flat sub-cluster of the same hardware with its slice of the situation.
std::vector<SubProblem> SubProblems(const LayerWorld& world,
                                    const plan::ParallelPlan& p,
                                    const straggler::Situation& situation) {
  const topo::ClusterSpec& cluster = *world.cluster;
  const int b = p.micro_batch_size;
  const int island_nodes = world.planner.island_nodes;
  if (island_nodes > 0 && cluster.num_nodes() % island_nodes == 0) {
    const int island_gpus = island_nodes * cluster.gpus_per_node();
    const int islands = cluster.num_nodes() / island_nodes;
    std::vector<SubProblem> out;
    for (int k = 0; k < islands; ++k) {
      SubProblem sub{topo::ClusterSpec(island_nodes, cluster.gpus_per_node(),
                                       cluster.gpu(), cluster.link()),
                     straggler::Situation(island_gpus), 0, 0};
      for (int g = 0; g < island_gpus; ++g) {
        sub.situation.SetRate(g, situation.rate(k * island_gpus + g));
      }
      out.push_back(std::move(sub));
    }
    bool inside_islands = true;
    for (const plan::Pipeline& pipe : p.pipelines) {
      const std::vector<topo::GpuId> gpus = pipe.Gpus();
      const int k = gpus.front() / island_gpus;
      for (topo::GpuId g : gpus) inside_islands &= g / island_gpus == k;
      ++out[k].dp;
      out[k].total_micro += pipe.num_microbatches;
    }
    if (inside_islands) {
      std::vector<SubProblem> used;
      for (SubProblem& sub : out) {
        if (sub.dp > 0) used.push_back(std::move(sub));
      }
      return used;
    }
  }
  return {SubProblem{cluster, situation, p.dp_degree(), p.global_batch / b}};
}

// Returns the number of situations the planner could not plan.
int WalkLayers(const LayerWorld& world,
               const std::vector<straggler::Situation>& situations,
               const plan::ParallelPlan& previous, Tracer* tracer,
               CacheTally* cache) {
  const topo::ClusterSpec& cluster = *world.cluster;
  const model::CostModel& cost = *world.cost;
  plan::ParallelPlan last = previous;
  int unplannable = 0;
  for (const straggler::Situation& situation : situations) {
    // Planner: a fresh planner (cold solve cache), then the same planner
    // again on the same situation (warm).
    const core::Planner planner(cluster, cost);
    core::PlannerOptions cold_options = world.planner;
    if (world.pin_dp) cold_options.dp_degree = last.dp_degree();
    Result<core::PlanResult> planned = [&] {
      Tracer::Span span(tracer, "planner.plan_cold_ms");
      return PlanPinned(planner, situation, world.global_batch, cold_options);
    }();
    tracer->Count("planner.calls", 1);
    if (!planned.ok()) {
      ++unplannable;
      continue;
    }
    core::PlannerOptions warm_options = cold_options;
    if (world.pin_dp) warm_options.dp_degree = planned->plan.dp_degree();
    {
      Tracer::Span span(tracer, "planner.plan_warm_ms");
      planned = planner.Plan(situation, world.global_batch, warm_options);
    }
    tracer->Count("planner.calls", 1);
    const solver::SolveCache::Stats stats = planner.solve_cache().stats();
    cache->hits += stats.hits;
    cache->lookups += stats.hits + stats.misses;
    cache->entries += static_cast<int64_t>(planner.solve_cache().size());
    ++cache->planners;
    if (!planned.ok()) {
      ++unplannable;
      continue;
    }
    const plan::ParallelPlan& p = planned->plan;
    const int b = p.micro_batch_size;
    const int dp = p.dp_degree();
    const int64_t total_micro = p.global_batch / b;

    // Eq. (2) grouping at the chosen TP degree, then the orchestration
    // (Eq. (4) division + stage ordering) with no solve cache, per
    // sub-problem of the chosen plan.
    core::GroupingOptions gopts;
    gopts.max_tp_degree = planned->chosen_tp;
    for (const SubProblem& sub : SubProblems(world, p, situation)) {
      Result<core::GroupingResult> grouping = [&] {
        Tracer::Span span(tracer, "grouping.ms");
        return core::GroupGpus(sub.cluster, cost, sub.situation, gopts);
      }();
      if (!grouping.ok()) continue;
      Tracer::Span span(tracer, "orchestration.ms");
      Result<core::OrchestrationResult> orch =
          core::Orchestrate(*grouping, cost, b, sub.dp, sub.total_micro,
                            core::OrchestrationOptions());
      if (orch.ok()) {
        tracer->AddChild("division.ms", orch->division_seconds);
        tracer->AddChild("ordering.ms", orch->ordering_seconds);
        tracer->Count("division.nodes",
                      static_cast<double>(orch->division_nodes));
      }
    }

    // Eq. (2) layer and Eq. (3) data assignment of the chosen plan.
    std::vector<double> bottlenecks;
    {
      Tracer::Span span(tracer, "assign.layers_ms");
      for (const plan::Pipeline& pipe : p.pipelines) {
        std::vector<double> rates;
        std::vector<int> sizes;
        for (const plan::Stage& stage : pipe.stages) {
          rates.push_back(stage.group.Rate(cost, situation));
          sizes.push_back(stage.group.size());
        }
        Result<core::LayerAssignment> layers =
            core::AssignLayers(rates, sizes, b, dp, cost);
        if (layers.ok()) bottlenecks.push_back(layers->bottleneck);
      }
    }
    if (bottlenecks.size() == p.pipelines.size()) {
      Tracer::Span span(tracer, "assign.data_ms");
      Result<std::vector<int64_t>> data =
          core::AssignData(bottlenecks, total_micro);
      (void)data;
    }

    {
      Tracer::Span span(tracer, "estimator.ms");
      const plan::StepEstimate estimate =
          plan::EstimateStep(p, cost, situation);
      (void)estimate;
    }
    {
      Tracer::Span span(tracer, "sim.step_ms");
      Result<sim::StepResult> step =
          SimulateNoiseFree(world, p, situation, net::NetModel::kAnalytic);
      (void)step;
    }
    if (world.net_model == net::NetModel::kFlow) {
      {
        Tracer::Span span(tracer, "net.step_flow_ms");
        Result<sim::StepResult> step =
            SimulateNoiseFree(world, p, situation, net::NetModel::kFlow);
        (void)step;
      }
      // The grad-sync session of the flow estimator: every ring starts
      // together on one fabric.
      Tracer::Span span(tracer, "net.flowsim_ms");
      const std::vector<plan::GradSyncRing> rings =
          plan::CollectGradSyncRings(p, cost, cluster);
      const net::Fabric fabric(cluster);
      net::FlowSim flow_sim(fabric);
      for (const plan::GradSyncRing& ring : rings) {
        net::SubmitRing(&flow_sim, ring.peers,
                        ring.bytes_per_gpu * ((dp - 1.0) / dp),
                        /*start_seconds=*/0.0, 2.0 * dp * ring.hop_latency);
      }
      flow_sim.Run();
      tracer->Count("net.flows",
                    static_cast<double>(flow_sim.outcomes().size()));
    }
    if (world.whatif_replay) {
      Tracer::Span span(tracer, "whatif.replay_ms");
      Result<whatif::ReplayResult> replay = whatif::ReplayPlanStep(
          cluster, cost, p, situation, world.net_model, /*seed=*/42);
      (void)replay;
    }
    {
      Tracer::Span span(tracer, "migration.ms");
      Result<core::MigrationPlan> migration =
          core::ComputeMigration(last, p, cost);
      (void)migration;
    }
    last = p;
  }
  return unplannable;
}

}  // namespace

CacheTally TraceLayers(const LayerWorld& world,
                       const std::vector<straggler::Situation>& situations,
                       Tracer* tracer, Outcome* out) {
  CacheTally cache;
  const core::Planner planner(*world.cluster, *world.cost);
  core::PlannerOptions options;
  options.num_threads = world.planner.num_threads;
  Result<core::PlanResult> healthy =
      planner.Plan(straggler::Situation(world.cluster->num_gpus()),
                   world.global_batch, options);
  if (!healthy.ok()) {
    ++out->failed;
    out->notes["error"] = healthy.status().ToString();
    return cache;
  }
  const Clock::time_point traced_start = Clock::now();
  out->failed += WalkLayers(world, situations, healthy->plan, tracer, &cache);
  const double traced_seconds = SecondsSince(traced_start);
  Tracer off(false);
  CacheTally unused;
  const Clock::time_point untraced_start = Clock::now();
  WalkLayers(world, situations, healthy->plan, &off, &unused);
  const double untraced_seconds = SecondsSince(untraced_start);

  for (const auto& [name, stat] : tracer->layers()) {
    out->layers[name] =
        stat.calls > 0 ? 1e3 * stat.self_seconds / stat.calls : 0.0;
  }
  for (const auto& [name, count] : tracer->counts()) out->layers[name] = count;
  out->layers["trace.overhead_ms"] = 1e3 * (traced_seconds - untraced_seconds);
  out->notes["traced_situations"] = std::to_string(situations.size());
  return cache;
}

}  // namespace perfbench
}  // namespace malleus
