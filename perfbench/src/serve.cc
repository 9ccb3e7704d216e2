// serve-replan-70b: an in-process serve::Server (70B, 8 nodes, batch 64)
// driven by one client in a closed loop of seeded replan/estimate JSONL
// lines, each sent only after the previous response arrived.
//
// Stream: every line is a replan (3 in 4) or an estimate (1 in 4). A line
// carries a novel 1-3-straggler set with probability kNovelFraction;
// otherwise it repeats one of kPoolSize seeded sets. The first replan of
// a set on a server instance is cold (SolveCache writes plus the Eq. (4)
// division, 23 ms to ~1 s); every other line is warm (cache reads plus JSON
// parse and render, ~0.2-0.4 ms). One operation is one Handle call. The
// digest covers every response line.
//
// The mix is this benchmark's choice: the repository records no request
// mix, and bench_serve sends identical warm replans only. It is set so
// that warm lines take most of the host time, with enough cold lines
// (23 in a 20-second run) that op_tail_ms is a cold line. Each run stamps
// the measured share of host time spent in cold lines (cold_host_share:
// 0.14-0.17 on a 4-vCPU host).

#include <sched.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "layers.h"
#include "perfbench.h"
#include "scenario/scenario.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace malleus {
namespace perfbench {

namespace {

constexpr int kPoolSize = 2;
constexpr double kNovelFraction = 0.0001;
constexpr double kEstimateFraction = 0.25;
/// The server's planner threads: its default, 1 (inline), instead of
/// kPlannerThreads; a sweep on pool threads per request would start and
/// stop threads on every warm re-plan.
constexpr int kServePlannerThreads = 1;
/// Requests of one 60-second run.
constexpr int kRequestsPerMinute = 180000;
/// Server instances a run's stream is split over, in consecutive
/// segments. One instance keeps one median warm latency for its lifetime
/// (its three thirds of a stream agreed within 3%), while fresh instances
/// fed identical lines sat at either ~0.27 or ~0.41 ms on a 4-vCPU VM
/// host; op_p50_ms averages the instances' medians.
constexpr int kServerInstances = 10;
static_assert(kServerInstances <= kSetupRepetitions,
              "each server instance comes from one of the set-ups");
constexpr char kScenario[] =
    "model = 70b\nnodes = 8\nbatch = 64\nnet_model = analytic\n";
constexpr int kNodes = 8;
constexpr int kGpusPerNode = 8;
constexpr int kNumGpus = kNodes * kGpusPerNode;
/// Seed of the stream's shape (line kinds, straggler counts and levels);
/// --seed relabels its GPUs (see Relabeling).
constexpr uint64_t kShapeSeed = 0x5e12e;

struct StragglerSet {
  std::vector<std::pair<int, int>> gpu_levels;  ///< (gpu, level), by gpu.
};

StragglerSet RandomSet(Rng* rng, const Relabeling& relabel) {
  StragglerSet set;
  const int count = static_cast<int>(rng->UniformInt(1, 3));
  std::set<int> used;
  while (static_cast<int>(set.gpu_levels.size()) < count) {
    const int gpu = static_cast<int>(rng->UniformInt(0, kNumGpus - 1));
    if (!used.insert(gpu).second) continue;
    set.gpu_levels.emplace_back(relabel.Gpu(gpu),
                                static_cast<int>(rng->UniformInt(1, 3)));
  }
  std::sort(set.gpu_levels.begin(), set.gpu_levels.end());
  return set;
}

std::string StragglersJson(const StragglerSet& set) {
  std::string out = "[";
  for (size_t i = 0; i < set.gpu_levels.size(); ++i) {
    if (i > 0) out += ",";
    out += StrFormat("{\"gpu\":%d,\"level\":%d}", set.gpu_levels[i].first,
                     set.gpu_levels[i].second);
  }
  return out + "]";
}

struct StreamLine {
  std::string text;
  bool replan = false;
  /// A replan of a straggler set the server has not planned before.
  bool cold = false;
  StragglerSet set;
};

// `segment` is the number of lines each server instance answers; a set is
// cold on its first replan within a segment.
std::vector<StreamLine> MakeStream(const Options& options, int requests,
                                   int segment) {
  Rng rng(kShapeSeed);
  const Relabeling relabel(kNodes, kGpusPerNode, options.seed);
  std::vector<StragglerSet> pool;
  for (int i = 0; i < kPoolSize; ++i) pool.push_back(RandomSet(&rng, relabel));
  std::set<std::string> planned;
  std::vector<StreamLine> stream;
  for (int i = 0; i < requests; ++i) {
    if (i % segment == 0) planned.clear();
    const StragglerSet set = rng.Uniform() < kNovelFraction
                                 ? RandomSet(&rng, relabel)
                                 : pool[rng.UniformInt(kPoolSize)];
    StreamLine line;
    line.set = set;
    line.replan = rng.Uniform() >= kEstimateFraction;
    const std::string stragglers = StragglersJson(set);
    line.cold = line.replan && planned.insert(stragglers).second;
    line.text = serve::RequestLine(
        i + 2, line.replan ? "replan" : "estimate",
        "{\"cluster\":\"c70\",\"stragglers\":" + stragglers + "}", -1);
    stream.push_back(std::move(line));
  }
  // Evenly spaced malformed lines (truncated JSON), for the benchmark's
  // own failure-accounting test.
  const int malformed = options.serve_malformed;
  for (int m = 0; m < malformed; ++m) {
    StreamLine& line = stream[(m + 1) * requests / (malformed + 1)];
    line.text = line.text.substr(0, line.text.size() / 2);
    line.cold = false;
  }
  return stream;
}

bool IsOk(const std::string& response) {
  Result<serve::JsonValue> parsed = serve::JsonValue::Parse(response);
  if (!parsed.ok()) return false;
  const serve::JsonValue* ok = parsed->Find("ok");
  return ok != nullptr && ok->is_bool() && ok->bool_value();
}

// The simulated step estimate a response reports (0 when absent).
double ResultNumber(const std::string& response, const char* key) {
  Result<serve::JsonValue> parsed = serve::JsonValue::Parse(response);
  if (!parsed.ok()) return 0.0;
  const serve::JsonValue* result = parsed->Find("result");
  if (result == nullptr) return 0.0;
  const serve::JsonValue* value = result->Find(key);
  return value != nullptr && value->is_number() ? value->number() : 0.0;
}

struct Started {
  std::unique_ptr<serve::Server> server;
  std::string plan_response;  ///< The initial (healthy) plan.
  net::NetModel net_model = net::NetModel::kAnalytic;  ///< As resolved.
};

// Server start, session register and the initial plan.
Result<Started> StartServer(int planner_threads) {
  serve::ServerOptions server_options;
  server_options.num_workers = 1;
  server_options.planner_threads = planner_threads;
  Started started;
  started.server = std::make_unique<serve::Server>(server_options);
  MALLEUS_RETURN_NOT_OK(started.server->Start());
  const std::string reg = started.server->Handle(serve::RequestLine(
      0, "register",
      StrFormat("{\"name\":\"c70\",\"scenario\":\"%s\"}",
                JsonEscape(kScenario).c_str()),
      -1));
  if (!IsOk(reg)) return Status::Internal("register failed: " + reg);
  MALLEUS_ASSIGN_OR_RETURN(const std::shared_ptr<serve::Session> session,
                           started.server->registry().Find("c70"));
  started.net_model = session->resolved().net_model;
  started.plan_response = started.server->Handle(
      serve::RequestLine(1, "plan", "{\"cluster\":\"c70\"}", -1));
  if (!IsOk(started.plan_response)) {
    return Status::Internal("initial plan failed: " + started.plan_response);
  }
  return started;
}

// Confines the calling thread, and every thread it starts afterwards, to
// the highest-numbered CPU it may run on. The client and the server worker
// then hand each request over on one CPU: a cross-CPU wake-up per request
// moved this workload's median latency by up to 30% between runs on a
// 4-vCPU VM host, a same-CPU switch by under 10%. Returns the CPU, or -1.
int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
  }
  return -1;
}

struct Replay {
  std::string digest;
  double seconds = 0.0;  ///< Host time of the lines, server start excluded.
};

// Replays the first `count` stream lines on a fresh server.
Replay ReplayPrefix(const std::vector<StreamLine>& stream, size_t count,
                    int planner_threads) {
  Replay out;
  Digest digest;
  Result<Started> started = StartServer(planner_threads);
  if (!started.ok()) {
    digest.Add(started.status().ToString());
    out.digest = digest.Hex();
    return out;
  }
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < count && i < stream.size(); ++i) {
    digest.Add(started->server->Handle(stream[i].text));
  }
  out.seconds = SecondsSince(start);
  (void)started->server->Shutdown();
  out.digest = digest.Hex();
  return out;
}

constexpr size_t kCheckPrefix = 200;

void TraceRun(const Options& options, const std::vector<StreamLine>& stream,
              Outcome* out) {
  const size_t count = std::min(stream.size(), kCheckPrefix);
  // The prefix untraced at the pinned planner thread count and at another
  // one. The pinned count is 1 here, so the single-worker baseline is the
  // pinned replay itself and the digest check runs at 2 threads.
  const int other_threads = options.planner_threads > 1 ? 1 : 2;
  const Replay pinned = ReplayPrefix(stream, count, options.planner_threads);
  const Replay other = ReplayPrefix(stream, count, other_threads);
  const Replay& single = options.planner_threads == 1 ? pinned : other;
  out->digest = pinned.digest;
  out->check_digest = pinned.digest;
  out->check_digest_other = other.digest;
  out->check_threads_other = other_threads;
  out->layers["pinned.work_per_s"] = count / pinned.seconds;
  out->layers["single_worker.work_per_s"] = count / single.seconds;

  // The prefix again, each request's parse and Handle call spanned.
  Tracer tracer(true);
  Result<Started> started = StartServer(options.planner_threads);
  if (!started.ok()) {
    out->failed = out->attempted = 1;
    out->notes["error"] = started.status().ToString();
    return;
  }
  serve::Server& server = *started->server;
  std::vector<straggler::Situation> situations;
  tracer.Count("serve.errors", 0);  // Reported even when none occur.
  for (size_t i = 0; i < count; ++i) {
    const StreamLine& line = stream[i];
    {
      Tracer::Span span(&tracer, "serve.parse_ms");
      int64_t id = 0;
      Result<serve::Request> request = serve::ParseRequest(line.text, &id);
      (void)request;
    }
    std::string response;
    {
      Tracer::Span span(&tracer, line.cold ? "serve.handle_cold_ms"
                                           : "serve.handle_warm_ms");
      response = server.Handle(line.text);
    }
    ++out->attempted;
    if (!IsOk(response)) {
      ++out->failed;
      tracer.Count("serve.errors", 1);
    }
    if (line.cold) {
      straggler::Situation situation(kNumGpus);
      for (const auto& [gpu, level] : line.set.gpu_levels) {
        situation.SetLevel(gpu, level);
      }
      situations.push_back(situation);
    }
  }
  const std::shared_ptr<serve::Session> session =
      *server.registry().Find("c70");
  const solver::SolveCache::Stats stats =
      session->planner().solve_cache().stats();
  const int64_t lookups = stats.hits + stats.misses;
  out->layers["planner.cache_hit_ratio"] =
      lookups > 0 ? static_cast<double>(stats.hits) / lookups : 0.0;
  out->layers["planner.cache_lookups"] = static_cast<double>(lookups);
  out->layers["planner.cache_entries"] =
      static_cast<double>(session->planner().solve_cache().size());
  out->notes["cache_base"] = "the serving session's planner over the prefix";
  (void)server.Shutdown();

  // Layer walk over the prefix's cold straggler sets (replans pin the DP
  // degree, as the server does).
  Result<scenario::ScenarioSpec> spec = [&] {
    Tracer::Span span(&tracer, "scenario.parse_ms");
    return scenario::ParseScenarioString(kScenario);
  }();
  Result<scenario::ResolvedScenario> resolved =
      spec.ok() ? scenario::ResolveScenario(*spec)
                : Result<scenario::ResolvedScenario>(spec.status());
  if (!resolved.ok()) {
    ++out->failed;
    out->notes["error"] = resolved.status().ToString();
    return;
  }
  const model::CostModel cost(resolved->spec, topo::GpuSpec());
  LayerWorld world;
  world.cluster = &resolved->cluster;
  world.cost = &cost;
  world.global_batch = spec->batch;
  world.planner.num_threads = options.planner_threads;
  world.pin_dp = true;
  TraceLayers(world, situations, &tracer, out);
}

}  // namespace

Outcome RunServeReplan70b(const Options& run_options) {
  Options options = run_options;
  options.planner_threads = kServePlannerThreads;
  Outcome out;
  out.planner_threads = options.planner_threads;
  out.notes["server_workers"] = "1";
  out.notes["client"] = "closed loop, 1 client";
  const int requests = options.serve_requests > 0
                           ? options.serve_requests
                           : UnitsFor(options.seconds, kRequestsPerMinute);
  out.notes["requests"] = std::to_string(requests);
  out.notes["novel_fraction"] = StrFormat("%g", kNovelFraction);
  out.notes["pool_size"] = std::to_string(kPoolSize);
  out.notes["cpu_affinity"] = std::to_string(PinToOneCpu());

  const int instances = std::min(kServerInstances, requests);
  const int segment = (requests + instances - 1) / instances;
  out.notes["server_instances"] = std::to_string(instances);
  if (options.trace) {
    // The traced run replays a prefix on one server: one segment.
    TraceRun(options, MakeStream(options, requests, requests), &out);
    return out;
  }

  // Setup (stream generation, server start, register, initial plan) is
  // repeated and its median reported; the last `instances` servers take
  // the load, one stream segment each.
  std::vector<StreamLine> stream;
  std::vector<Started> servers;
  for (int r = 0; r < kSetupRepetitions; ++r) {
    const Clock::time_point start = Clock::now();
    stream = MakeStream(options, requests, segment);
    Result<Started> started = StartServer(options.planner_threads);
    out.setup_seconds.push_back(SecondsSince(start));
    if (!started.ok()) {
      out.failed = out.attempted = 1;
      out.notes["error"] = started.status().ToString();
      return out;
    }
    servers.push_back(std::move(*started));
    if (static_cast<int>(servers.size()) > instances) {
      (void)servers.front().server->Shutdown();
      servers.erase(servers.begin());
    }
  }
  // The determinism check replays the first segment's opening lines.
  const size_t check_lines =
      std::min({stream.size(), kCheckPrefix, static_cast<size_t>(segment)});
  out.notes["net_model"] = net::NetModelName(servers[0].net_model);
  Digest digest;
  Digest prefix;
  std::vector<std::string> responses;
  responses.reserve(stream.size());
  const Clock::time_point run_start = Clock::now();
  for (size_t i = 0; i < stream.size(); ++i) {
    serve::Server& server = *servers[i / segment].server;
    const Clock::time_point start = Clock::now();
    responses.push_back(server.Handle(stream[i].text));
    out.op_seconds.push_back(SecondsSince(start));
  }
  out.work_seconds = SecondsSince(run_start);
  out.work = static_cast<double>(stream.size());
  out.op_groups = instances;
  for (Started& started : servers) (void)started.server->Shutdown();

  double step_sum = 0.0;
  int64_t steps = 0;
  int64_t cold = 0;
  double cold_seconds = 0.0;
  for (size_t i = 0; i < responses.size(); ++i) {
    digest.Add(responses[i]);
    if (i < check_lines) prefix.Add(responses[i]);
    ++out.attempted;
    if (!IsOk(responses[i])) {
      ++out.failed;
      continue;
    }
    if (stream[i].cold) {
      ++cold;
      cold_seconds += out.op_seconds[i];
    }
    if (stream[i].replan) {
      step_sum += ResultNumber(responses[i], "estimated_full_seconds");
      ++steps;
    }
  }
  out.digest = digest.Hex();
  out.check_digest = prefix.Hex();
  out.notes["cold_requests"] = std::to_string(cold);
  out.notes["cold_host_share"] =
      StrFormat("%.4f", cold_seconds / out.work_seconds);
  out.plan_step_sim_seconds = steps > 0 ? step_sum / steps : 0.0;
  const double healthy =
      ResultNumber(servers[0].plan_response, "estimated_full_seconds");
  out.goodput =
      out.plan_step_sim_seconds > 0 ? healthy / out.plan_step_sim_seconds : 0;

  // Determinism: the same prefix on a fresh server at another planner
  // thread count.
  out.check_threads_other = options.planner_threads > 1 ? 1 : 2;
  out.check_digest_other =
      ReplayPrefix(stream, check_lines, out.check_threads_other).digest;
  return out;
}

}  // namespace perfbench
}  // namespace malleus
