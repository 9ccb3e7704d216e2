// Shared pieces of the repo benchmark: run options, the outcome record
// every workload fills, host wall-clock helpers, the digest accumulator
// and the span tracer of the traced (--trace 1) run.
//
// Clocks: every timing here is host wall time from std::chrono::
// steady_clock (how long the tool takes). Simulated seconds (how long the
// modelled cluster takes) only ever appear as plan-quality guards, and
// their metric names and units say so.

#ifndef MALLEUS_PERFBENCH_PERFBENCH_H_
#define MALLEUS_PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/hash.h"

namespace malleus {
namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Pinned planner (and what-if sweep) worker count; main caps it at nproc
/// and stamps it. Two leaves headroom on a 4-core host.
inline constexpr int kPlannerThreads = 2;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Planner (and what-if sweep) worker count: kPlannerThreads capped at
  /// nproc.
  int planner_threads = kPlannerThreads;
  /// serve-replan-70b only: stream length override (0 = sized from
  /// `seconds`) and how many of its lines are deliberately malformed, for
  /// the benchmark's own failure-accounting test.
  int serve_requests = 0;
  int serve_malformed = 0;
};

/// FNV-1a over every output byte a workload produces, in order.
class Digest {
 public:
  void Add(const std::string& bytes) { h_ = Fnv1a64(bytes, h_); }
  void Add(double v);
  void Add(int64_t v);
  std::string Hex() const;

 private:
  uint64_t h_ = 1469598103934665603ull;
};

/// What one workload run measured. main.cc turns it into the
/// end-to-end metrics (untraced run) or the per-layer metrics (traced run).
struct Outcome {
  /// Planner thread count the measured calls ran at.
  int planner_threads = 0;
  /// Digest of the workload's outputs (see each workload for what it
  /// covers) and the digests of the same prefix of work at two planner
  /// thread counts (determinism check).
  std::string digest;
  std::string check_digest;        ///< Prefix at options.planner_threads.
  std::string check_digest_other;  ///< Same prefix at check_threads_other.
  int check_threads_other = 0;

  int64_t attempted = 0;
  int64_t failed = 0;
  /// Setup wall times, one per repetition; setup_s is their median.
  std::vector<double> setup_seconds;
  /// Units of work done and the host seconds the measured calls took.
  double work = 0.0;
  double work_seconds = 0.0;
  /// Host wall time of each operation (event, request or sweep), in
  /// `op_groups` consecutive groups (server instances on serve): op_p50_ms
  /// is the mean of the groups' medians.
  std::vector<double> op_seconds;
  int op_groups = 1;
  /// Plan-quality guards (simulated clock).
  double goodput = 0.0;
  double plan_step_sim_seconds = 0.0;

  /// Traced run only: per-layer metrics by name.
  std::map<std::string, double> layers;
  /// Free-form facts recorded with the result (net model, sizes, ...).
  std::map<std::string, std::string> notes;
};

/// \brief Wall-clock spans around calls into the library's layers.
///
/// A span's self time is its duration minus the time of the spans (and
/// library-reported sub-steps, see AddChild) nested inside it. Disabled
/// tracers read no clock, so running the same calls with tracing on and
/// off measures the tracing overhead.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  class Span {
   public:
    Span(Tracer* tracer, const char* layer);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    friend class Tracer;
    Tracer* tracer_;
    const char* layer_;
    Clock::time_point start_;
    double children_ = 0.0;
    Span* parent_ = nullptr;
  };

  /// Credits `seconds` to `layer` as a child of the open span: for time
  /// the library itself reports for a sub-step of the spanned call.
  void AddChild(const char* layer, double seconds);
  /// Adds `n` to the exact count `name`.
  void Count(const char* name, double n);

  struct LayerStat {
    double self_seconds = 0.0;
    int64_t calls = 0;
  };
  const std::map<std::string, LayerStat>& layers() const { return layers_; }
  const std::map<std::string, double>& counts() const { return counts_; }

 private:
  const bool enabled_;
  Span* open_ = nullptr;
  std::map<std::string, LayerStat> layers_;
  std::map<std::string, double> counts_;
};

/// A seeded relabeling of a cluster's GPUs that keeps its structure: GPUs
/// stay on one node together, and aligned blocks of nodes (the planner's
/// islands) stay together.
///
/// Workloads generate their situations from fixed shapes and let --seed
/// relabel them. Planner cost depends steeply on the shape of a straggler
/// situation (how many stragglers, at which levels, how they fall into
/// nodes and islands): with seeded shapes, one run's work differed from
/// another's by up to 10x, while relabeled shapes keep every run's work
/// the same and still give each seed its own inputs.
class Relabeling {
 public:
  Relabeling(int nodes, int gpus_per_node, uint64_t seed);
  int Gpu(int gpu) const { return gpu_[gpu]; }
  int Node(int node) const { return node_[node]; }

 private:
  std::vector<int> node_;
  std::vector<int> gpu_;
};

/// Seed of unit `k` of a workload run with `seed` (splitmix64 mixing).
uint64_t UnitSeed(uint64_t seed, uint64_t k);

/// Set-ups per untraced run; setup_s is their median.
inline constexpr int kSetupRepetitions = 11;

/// Number of work units a run of `seconds` gets when `per_minute` units
/// are sized for a 60-second run; at least 1. Fixed by the arguments
/// alone, so the work (and its digest) depends only on them.
int UnitsFor(double seconds, int per_minute);

Outcome RunDynamicFlat32(const Options& options);
Outcome RunDynamicFlow64(const Options& options);
Outcome RunServeReplan70b(const Options& options);
Outcome RunWhatIfSweep64(const Options& options);

}  // namespace perfbench
}  // namespace malleus

#endif  // MALLEUS_PERFBENCH_PERFBENCH_H_
