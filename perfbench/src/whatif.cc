// whatif-sweep-64: whatif::RunWhatIf over the full counterfactual grid of
// bench_whatif (removals and dampenings over every GPU, a NIC/NVLink 0.5x
// sweep, the TP sweep and the net-model swap: 263 counterfactuals) on a
// 64-GPU recorded run of 32B over 8 nodes with the S3 straggler overlay
// (one level-3 and one level-1 straggler on two nodes) relabeled by the
// seed.
//
// A run is a fixed number of units, each one sweep over its own placement.
// One operation is one sweep. The digest covers every report's JSON bytes.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "layers.h"
#include "obs/report.h"
#include "perfbench.h"
#include "scenario/counterfactual.h"
#include "scenario/scenario.h"
#include "whatif/whatif.h"

namespace malleus {
namespace perfbench {

namespace {

/// Sweeps of one 60-second run: 11 per 20-second run, the fewest for
/// which op_tail_ms has 10 samples beyond it. A sweep takes 2.3-3.1 s at
/// 2 workers on a 4-vCPU VM host, so a 20-second run measures 25-35 s.
constexpr int kUnitsPerMinute = 33;
/// Counterfactuals of the determinism check's sub-sweep.
constexpr size_t kCheckRows = 48;

scenario::ScenarioSpec SpecFor(uint64_t seed) {
  scenario::ScenarioSpec spec;
  spec.model = "32b";
  spec.nodes = 8;
  spec.gpus_per_node = 8;
  spec.batch = 64;
  spec.steps = 2;
  spec.phases = {"normal"};
  spec.net_model = "analytic";
  // The canonical S3 shape (GPU 0 at level 3, GPU 8 at level 1),
  // relabeled by the seed.
  const Relabeling relabel(spec.nodes, spec.gpus_per_node, seed);
  scenario::StragglerEntry slow;
  slow.gpu = relabel.Gpu(0);
  slow.level = 3;
  scenario::StragglerEntry mild;
  mild.gpu = relabel.Gpu(spec.gpus_per_node);
  mild.level = 1;
  spec.stragglers = {slow, mild};
  spec.source = "perfbench whatif S3@64";
  return spec;
}

struct Unit {
  whatif::RecordedRun run;
  std::vector<scenario::Counterfactual> grid;
  straggler::Situation situation;
};

// The recorded run as a bundle carries it (serialized scenario text,
// parsed and resolved back), the analyzed situation and its grid.
Result<Unit> MakeUnit(uint64_t seed, Tracer* tracer) {
  Unit unit;
  Result<scenario::ScenarioSpec> spec = [&] {
    Tracer::Span span(tracer, "scenario.parse_ms");
    return scenario::ParseScenarioString(
        scenario::SerializeScenario(SpecFor(seed)));
  }();
  if (!spec.ok()) return spec.status();
  MALLEUS_ASSIGN_OR_RETURN(unit.run, whatif::RecordedRunFromSpec(*spec));
  MALLEUS_ASSIGN_OR_RETURN(const scenario::LabeledSituation analyzed,
                           whatif::AnalyzedSituation(unit.run));
  unit.situation = analyzed.situation;
  scenario::DefaultGridOptions grid_options;
  grid_options.dampen_all_gpus = true;
  grid_options.standby_nodes.clear();
  grid_options.bandwidth_factors = {0.5};
  unit.grid = scenario::DefaultCounterfactualGrid(
      unit.run.resolved.cluster, unit.situation, unit.run.resolved.net_model,
      grid_options);
  return unit;
}

struct Sweep {
  std::string digest;
  double host_seconds = 0.0;
  int64_t rows = 0;
  int64_t row_errors = 0;
  double best_step_sum = 0.0;  ///< Over evaluated rows (simulated s).
  double baseline_step = 0.0;
  int64_t cache_hits = 0;
  int64_t cache_lookups = 0;
  bool failed = false;
};

Sweep RunSweep(const whatif::RecordedRun& run,
               const std::vector<scenario::Counterfactual>& grid,
               int threads) {
  Sweep out;
  whatif::WhatIfOptions options;
  options.num_threads = threads;
  const Clock::time_point start = Clock::now();
  Result<obs::AttributionReport> report =
      whatif::RunWhatIf(run, grid, options);
  out.host_seconds = SecondsSince(start);
  Digest digest;
  if (!report.ok()) {
    out.failed = true;
    digest.Add(report.status().ToString());
    out.digest = digest.Hex();
    return out;
  }
  digest.Add(obs::RenderAttributionJson(*report));
  out.digest = digest.Hex();
  out.rows = static_cast<int64_t>(report->rows.size());
  out.baseline_step = report->baseline_step_seconds;
  out.cache_hits = report->cache_hits;
  out.cache_lookups = report->cache_hits + report->cache_misses;
  for (const obs::AttributionRow& row : report->rows) {
    if (!row.error.empty()) {
      ++out.row_errors;
      continue;
    }
    out.best_step_sum += report->baseline_step_seconds - row.attributed_seconds;
  }
  return out;
}

// Simulated step of the plan for the all-healthy cluster of `unit`: the
// numeraire of the sweep's goodput guard.
double HealthyStep(const Unit& unit, int threads) {
  const scenario::ResolvedScenario& resolved = unit.run.resolved;
  const model::CostModel cost(resolved.spec, topo::GpuSpec());
  const core::Planner planner(resolved.cluster, cost);
  core::PlannerOptions options;
  options.num_threads = threads;
  const straggler::Situation healthy(resolved.cluster.num_gpus());
  Result<core::PlanResult> planned =
      planner.Plan(healthy, unit.run.spec.batch, options);
  if (!planned.ok()) return 0.0;
  Result<whatif::ReplayResult> replay =
      whatif::ReplayPlanStep(resolved.cluster, cost, planned->plan, healthy,
                             resolved.net_model, unit.run.spec.seed);
  return replay.ok() ? replay->step_seconds : 0.0;
}

void TraceRun(const Options& options, Outcome* out) {
  Tracer tracer(true);
  Result<Unit> unit = MakeUnit(UnitSeed(options.seed, 0), &tracer);
  if (!unit.ok()) {
    out->failed = out->attempted = 1;
    out->notes["error"] = unit.status().ToString();
    return;
  }
  out->notes["net_model"] = net::NetModelName(unit->run.resolved.net_model);
  Sweep pinned;
  {
    Tracer::Span span(&tracer, "whatif.sweep_ms");
    pinned = RunSweep(unit->run, unit->grid, options.planner_threads);
  }
  const Sweep single = RunSweep(unit->run, unit->grid, 1);
  tracer.Count("whatif.counterfactuals", static_cast<double>(pinned.rows));
  out->attempted = pinned.rows;
  out->failed = pinned.row_errors + (pinned.failed ? 1 : 0) +
                (single.failed ? 1 : 0);
  out->digest = pinned.digest;
  out->check_digest = pinned.digest;
  out->check_digest_other = single.digest;
  out->check_threads_other = 1;
  out->layers["pinned.work_per_s"] = pinned.rows / pinned.host_seconds;
  out->layers["single_worker.work_per_s"] = single.rows / single.host_seconds;
  out->layers["planner.cache_hit_ratio"] =
      pinned.cache_lookups > 0
          ? static_cast<double>(pinned.cache_hits) / pinned.cache_lookups
          : 0.0;
  out->layers["planner.cache_lookups"] =
      static_cast<double>(pinned.cache_lookups);
  out->notes["cache_base"] = "the sweep's planners (report cache traffic)";

  // Layer walk over the analyzed situation and the worlds of the
  // straggler-healing counterfactuals (one per straggler).
  const scenario::ResolvedScenario& resolved = unit->run.resolved;
  const model::CostModel cost(resolved.spec, topo::GpuSpec());
  std::vector<straggler::Situation> situations = {unit->situation};
  for (topo::GpuId g : unit->situation.Stragglers()) {
    straggler::Situation healed = unit->situation;
    healed.SetRate(g, 1.0);
    situations.push_back(healed);
  }
  LayerWorld world;
  world.cluster = &resolved.cluster;
  world.cost = &cost;
  world.global_batch = unit->run.spec.batch;
  world.planner.num_threads = options.planner_threads;
  world.net_model = resolved.net_model;
  world.whatif_replay = true;
  const CacheTally cache = TraceLayers(world, situations, &tracer, out);
  out->layers["planner.cache_entries"] =
      cache.planners > 0 ? static_cast<double>(cache.entries) / cache.planners
                         : 0;
}

}  // namespace

Outcome RunWhatIfSweep64(const Options& options) {
  Outcome out;
  out.planner_threads = options.planner_threads;
  if (options.trace) {
    TraceRun(options, &out);
    return out;
  }
  const int units = UnitsFor(options.seconds, kUnitsPerMinute);
  out.notes["units"] = std::to_string(units);

  // Setup (scenario serialize/parse/resolve, grids, and the healthy plan
  // of the goodput numeraire) is repeated and its median reported.
  std::vector<Unit> unit_set;
  double healthy_step = 0.0;
  Status setup_status;
  Tracer off(false);
  for (int r = 0; r < kSetupRepetitions; ++r) {
    const Clock::time_point start = Clock::now();
    unit_set.clear();
    for (int k = 0; k < units && setup_status.ok(); ++k) {
      Result<Unit> unit = MakeUnit(UnitSeed(options.seed, k), &off);
      if (!unit.ok()) {
        setup_status = unit.status();
      } else {
        unit_set.push_back(std::move(*unit));
      }
    }
    if (setup_status.ok()) {
      healthy_step = HealthyStep(unit_set[0], options.planner_threads);
    }
    out.setup_seconds.push_back(SecondsSince(start));
  }
  if (!setup_status.ok() || healthy_step <= 0.0) {
    out.failed = out.attempted = 1;
    out.notes["error"] = setup_status.ok() ? "no healthy reference step"
                                           : setup_status.ToString();
    return out;
  }

  out.notes["net_model"] =
      net::NetModelName(unit_set[0].run.resolved.net_model);
  Digest digest;
  double best_step_sum = 0.0;
  int64_t evaluated = 0;
  double baseline_sum = 0.0;
  for (size_t k = 0; k < unit_set.size(); ++k) {
    const Sweep sweep =
        RunSweep(unit_set[k].run, unit_set[k].grid, options.planner_threads);
    digest.Add(sweep.digest);
    out.op_seconds.push_back(sweep.host_seconds);
    out.work += static_cast<double>(sweep.rows);
    out.work_seconds += sweep.host_seconds;
    out.attempted += std::max<int64_t>(sweep.rows, 1);
    out.failed += sweep.row_errors + (sweep.failed ? 1 : 0);
    best_step_sum += sweep.best_step_sum;
    evaluated += sweep.rows - sweep.row_errors;
    baseline_sum += sweep.baseline_step;
  }
  out.digest = digest.Hex();
  out.plan_step_sim_seconds = evaluated > 0 ? best_step_sum / evaluated : 0.0;
  out.goodput = healthy_step * static_cast<double>(unit_set.size()) /
                baseline_sum;
  out.notes["counterfactuals_per_sweep"] =
      std::to_string(unit_set[0].grid.size());

  // Determinism: a sub-sweep of unit 0 at two planner thread counts.
  const std::vector<scenario::Counterfactual> check(
      unit_set[0].grid.begin(),
      unit_set[0].grid.begin() +
          std::min(unit_set[0].grid.size(), kCheckRows));
  out.check_digest =
      RunSweep(unit_set[0].run, check, options.planner_threads).digest;
  out.check_threads_other = options.planner_threads > 1 ? 1 : 2;
  out.check_digest_other =
      RunSweep(unit_set[0].run, check, out.check_threads_other).digest;
  return out;
}

}  // namespace perfbench
}  // namespace malleus
