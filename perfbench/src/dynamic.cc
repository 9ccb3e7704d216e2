// dynamic-flat-32 and dynamic-flow-64: policy::RunDynamic with the
// adaptive selector over seeded event traces.
//
// A run is a fixed number of units, each one RunDynamic call over its own
// trace (GenerateEventTrace with a per-unit seed derived from --seed), so
// the work — and the digest over goodput, action counts, final plan
// signature and RunLog bytes of every unit — depends only on the
// arguments. One operation is one event: the host time between two
// consecutive Select calls of a pass-through selector wrapping adaptive.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/run_log.h"
#include "layers.h"
#include "perfbench.h"
#include "policy/events.h"
#include "policy/policy.h"
#include "policy/runner.h"
#include "scenario/scenario.h"

namespace malleus {
namespace perfbench {

namespace {

/// Records the host time between consecutive Select calls of one run.
class TimingSelector : public policy::PolicySelector {
 public:
  explicit TimingSelector(std::unique_ptr<policy::PolicySelector> inner)
      : inner_(std::move(inner)) {}

  const std::string& name() const override { return inner_->name(); }

  policy::PolicyAction Select(const policy::ActionEstimates& estimates,
                              const policy::ClusterEvent& event,
                              double horizon_iterations) const override {
    const Clock::time_point now = Clock::now();
    if (has_last_) {
      intervals_.push_back(std::chrono::duration<double>(now - last_).count());
    }
    last_ = now;
    has_last_ = true;
    return inner_->Select(estimates, event, horizon_iterations);
  }

  void Reset() { has_last_ = false; }
  std::vector<double>& intervals() const { return intervals_; }

 private:
  std::unique_ptr<policy::PolicySelector> inner_;
  mutable Clock::time_point last_;
  mutable bool has_last_ = false;
  mutable std::vector<double> intervals_;
};

struct DynamicConfig {
  /// Scenario source: a file of the repository, or generated text. Its
  /// dynamic block sets the event rates and each unit's iterations.
  const char* scenario_file;
  const char* scenario_text;
  net::NetModel net_model;
  /// Units of one 60-second run.
  int units_per_minute;
  /// Unit k runs trace shape k mod `shapes`, relabeled by UnitSeed(--seed,
  /// k). Shape j is GenerateEventTrace seeded with the shape seed itself
  /// for j = 0 (so a scenario with its own dynamic seed runs its own trace)
  /// and with UnitSeed(shape seed, j) otherwise. The shape seed is the
  /// scenario's dynamic seed when it sets one, else kShapeSeed.
  int shapes;
};

constexpr uint64_t kShapeSeed = 0xd1a7;

policy::EventTrace Relabeled(const policy::EventTrace& trace,
                             const topo::ClusterSpec& cluster, uint64_t seed) {
  const Relabeling relabel(cluster.num_nodes(), cluster.gpus_per_node(), seed);
  policy::EventTrace out = trace;
  for (policy::ClusterEvent& event : out.events) {
    if (event.gpu >= 0) event.gpu = relabel.Gpu(event.gpu);
    if (event.node >= 0) event.node = relabel.Node(event.node);
  }
  return out;
}

// The PolicyTest::MixedSpec rates on 32B over 4 A800 nodes (32 GPUs), in
// traces of 120 iterations: five shapes take ~10 s on a 4-vCPU host (the
// test's 300-iteration trace alone takes ~24 s).
constexpr char kFlat32Scenario[] =
    "model = 32b\n"
    "nodes = 4\n"
    "batch = 64\n"
    "net_model = analytic\n"
    "dynamic = { iterations=120 straggle_rate=0.002 fail_rate=0.0004 "
    "node_fail_rate=0.0002 recover_iters=40 flap_prob=0.5 flap_period=15 "
    "diurnal_amplitude=0.8 diurnal_period=100 max_level=3 }\n";

struct Setup {
  scenario::ResolvedScenario resolved;
  scenario::DynamicSpec dynamic;
  std::unique_ptr<model::CostModel> cost;
  int64_t batch = 64;
  std::vector<policy::EventTrace> traces;
};

// Scenario parse + resolve and the units' trace generation.
Result<Setup> SetUp(const DynamicConfig& config, const Options& options,
                    int units, Tracer* tracer) {
  Setup setup;
  Result<scenario::ScenarioSpec> spec = [&] {
    Tracer::Span span(tracer, "scenario.parse_ms");
    Result<scenario::ScenarioSpec> parsed =
        config.scenario_file != nullptr
            ? scenario::LoadScenarioFile(config.scenario_file)
            : scenario::ParseScenarioString(config.scenario_text);
    if (!parsed.ok()) return parsed;
    Result<scenario::ResolvedScenario> resolved =
        scenario::ResolveScenario(*parsed);
    if (!resolved.ok()) {
      return Result<scenario::ScenarioSpec>(resolved.status());
    }
    setup.resolved = std::move(*resolved);
    return parsed;
  }();
  if (!spec.ok()) return spec.status();
  setup.dynamic = spec->dynamic;
  setup.batch = spec->batch;
  setup.cost = std::make_unique<model::CostModel>(setup.resolved.spec,
                                                  topo::GpuSpec());
  const uint64_t shape_seed =
      spec->dynamic.seed != 0 ? spec->dynamic.seed : kShapeSeed;
  Tracer::Span span(tracer, "policy.trace_gen_ms");
  for (int k = 0; k < units; ++k) {
    const policy::EventTrace shape = policy::GenerateEventTrace(
        setup.resolved.cluster, setup.dynamic,
        k % config.shapes == 0 ? shape_seed
                               : UnitSeed(shape_seed, k % config.shapes));
    setup.traces.push_back(Relabeled(shape, setup.resolved.cluster,
                                     UnitSeed(options.seed, k)));
  }
  return setup;
}

struct UnitResult {
  policy::DynamicRunResult run;
  std::string digest;
  double host_seconds = 0.0;
  bool failed = false;
};

UnitResult RunUnit(const DynamicConfig& config, const Setup& setup,
                   const policy::EventTrace& trace, int planner_threads,
                   TimingSelector* selector) {
  UnitResult out;
  core::RunLog log;
  policy::DynamicRunOptions run_options;
  run_options.planner.num_threads = planner_threads;
  run_options.sim.net_model = config.net_model;
  run_options.run_log = &log;
  selector->Reset();
  const Clock::time_point start = Clock::now();
  Result<policy::DynamicRunResult> run = policy::RunDynamic(
      setup.resolved.cluster, *setup.cost,
      straggler::Situation(setup.resolved.cluster.num_gpus()), trace,
      setup.batch, *selector, run_options);
  out.host_seconds = SecondsSince(start);
  Digest digest;
  if (!run.ok()) {
    out.failed = true;
    digest.Add(run.status().ToString());
    out.digest = digest.Hex();
    return out;
  }
  out.run = std::move(*run);
  out.failed = !out.run.stop_reason.empty() ||
               out.run.iterations_run < out.run.trace_iterations;
  digest.Add(out.run.goodput);
  for (int count : out.run.action_counts) digest.Add(int64_t{count});
  digest.Add(out.run.audits.empty() ? std::string()
                                    : out.run.audits.back().plan_signature);
  digest.Add(log.ToJsonl());
  out.digest = digest.Hex();
  return out;
}

std::unique_ptr<TimingSelector> MakeTimingSelector() {
  Result<std::unique_ptr<policy::PolicySelector>> adaptive =
      policy::MakeSelector("adaptive");
  return std::make_unique<TimingSelector>(std::move(*adaptive));
}

// The traced run: setup and unit 0 at the pinned and at one planner
// thread, then the layer walk over unit 0's post-event situations.
void TraceRun(const DynamicConfig& config, const Options& options,
              Outcome* out) {
  Tracer tracer(true);
  Result<Setup> setup = SetUp(config, options, 1, &tracer);
  if (!setup.ok()) {
    out->failed = out->attempted = 1;
    out->notes["error"] = setup.status().ToString();
    return;
  }
  const std::unique_ptr<TimingSelector> selector = MakeTimingSelector();
  const policy::EventTrace& trace = setup->traces[0];
  const UnitResult pinned =
      RunUnit(config, *setup, trace, options.planner_threads, selector.get());
  const UnitResult single = RunUnit(config, *setup, trace, 1, selector.get());
  out->attempted = static_cast<int64_t>(trace.events.size());
  out->failed = (pinned.failed ? 1 : 0) + (single.failed ? 1 : 0);
  out->digest = pinned.digest;
  out->check_digest = pinned.digest;
  out->check_digest_other = single.digest;
  out->check_threads_other = 1;
  const double iterations = static_cast<double>(trace.iterations);
  out->layers["pinned.work_per_s"] = iterations / pinned.host_seconds;
  out->layers["single_worker.work_per_s"] = iterations / single.host_seconds;
  tracer.Count("policy.events", static_cast<double>(pinned.run.events_applied));
  for (int a = 0; a < policy::kNumPolicyActions; ++a) {
    const std::string name =
        std::string("policy.actions.") +
        policy::PolicyActionName(static_cast<policy::PolicyAction>(a));
    out->layers[name] = pinned.run.action_counts[a];
  }

  // Post-event situations of unit 0, in trace order, as RunDynamic sees
  // them; re-plans pin the DP degree and use the runner's island choice
  // (flat through 4 nodes, half-cluster islands beyond).
  const topo::ClusterSpec& cluster = setup->resolved.cluster;
  std::vector<straggler::Situation> situations;
  straggler::Situation situation(cluster.num_gpus());
  for (const policy::ClusterEvent& event : trace.events) {
    policy::ApplyEvent(cluster, event, &situation);
    situations.push_back(situation);
  }
  LayerWorld world;
  world.cluster = &cluster;
  world.cost = setup->cost.get();
  world.global_batch = setup->batch;
  world.planner.num_threads = options.planner_threads;
  world.planner.island_nodes =
      cluster.num_nodes() <= 4 ? -1 : cluster.num_nodes() / 2;
  world.pin_dp = true;
  world.net_model = config.net_model;
  const CacheTally cache = TraceLayers(world, situations, &tracer, out);
  out->layers["planner.cache_hit_ratio"] =
      cache.lookups > 0 ? static_cast<double>(cache.hits) / cache.lookups : 0;
  out->layers["planner.cache_lookups"] = static_cast<double>(cache.lookups);
  out->layers["planner.cache_entries"] =
      cache.planners > 0 ? static_cast<double>(cache.entries) / cache.planners
                         : 0;
  out->notes["cache_base"] =
      "fresh planner per post-event situation, cold plan then warm plan";
}

Outcome RunDynamicWorkload(const DynamicConfig& config,
                           const Options& options) {
  Outcome out;
  out.planner_threads = options.planner_threads;
  out.notes["net_model"] = net::NetModelName(config.net_model);
  out.notes["selector"] = "adaptive";
  if (options.trace) {
    TraceRun(config, options, &out);
    return out;
  }
  const int units = UnitsFor(options.seconds, config.units_per_minute);
  out.notes["units"] = std::to_string(units);

  // Setup is repeated and its median reported; the last one is used.
  Result<Setup> setup = Status::Internal("no setup");
  Tracer off(false);
  for (int r = 0; r < kSetupRepetitions; ++r) {
    const Clock::time_point start = Clock::now();
    setup = SetUp(config, options, units, &off);
    out.setup_seconds.push_back(SecondsSince(start));
  }
  if (!setup.ok()) {
    out.failed = out.attempted = 1;
    out.notes["error"] = setup.status().ToString();
    return out;
  }
  out.notes["unit_iterations"] = std::to_string(setup->dynamic.iterations);

  const std::unique_ptr<TimingSelector> selector = MakeTimingSelector();
  Digest digest;
  double healthy_work = 0.0;
  double sim_wall = 0.0;
  double step_after_sum = 0.0;
  int64_t step_after_count = 0;
  for (int k = 0; k < units; ++k) {
    const policy::EventTrace& trace = setup->traces[k];
    const UnitResult unit = RunUnit(config, *setup, trace,
                                    options.planner_threads, selector.get());
    if (k == units - 1) out.check_digest = unit.digest;
    digest.Add(unit.digest);
    out.attempted += static_cast<int64_t>(trace.events.size());
    if (unit.failed) ++out.failed;
    out.work += static_cast<double>(unit.run.iterations_run);
    out.work_seconds += unit.host_seconds;
    healthy_work += static_cast<double>(unit.run.iterations_run) *
                    unit.run.healthy_step_seconds;
    sim_wall += unit.run.wall_seconds;
    for (const policy::EventAudit& audit : unit.run.audits) {
      step_after_sum += audit.step_seconds_after;
      ++step_after_count;
    }
  }
  out.op_seconds = std::move(selector->intervals());
  out.digest = digest.Hex();
  out.goodput = sim_wall > 0.0 ? healthy_work / sim_wall : 0.0;
  out.plan_step_sim_seconds =
      step_after_count > 0 ? step_after_sum / step_after_count : 0.0;

  // Determinism: the last unit again at another planner thread count.
  out.check_threads_other = options.planner_threads > 1 ? 1 : 2;
  out.check_digest_other =
      RunUnit(config, *setup, setup->traces.back(), out.check_threads_other,
              selector.get())
          .digest;
  return out;
}

}  // namespace

Outcome RunDynamicFlat32(const Options& options) {
  const DynamicConfig config{nullptr, kFlat32Scenario,
                             net::NetModel::kAnalytic,
                             /*units_per_minute=*/30, /*shapes=*/5};
  return RunDynamicWorkload(config, options);
}

Outcome RunDynamicFlow64(const Options& options) {
  const DynamicConfig config{"examples/scenarios/dynamic/dynamic_64.scenario",
                             nullptr, net::NetModel::kFlow,
                             /*units_per_minute=*/36, /*shapes=*/1};
  return RunDynamicWorkload(config, options);
}

}  // namespace perfbench
}  // namespace malleus
