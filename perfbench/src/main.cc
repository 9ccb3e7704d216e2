// malleus_perfbench: runs one workload of the repo benchmark and prints
// one JSON object (the raw measurement) as its last stdout line; run.py
// builds this binary, gates its digest and prints the benchmark result.
//
//   malleus_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                     [--serve-requests N] [--serve-malformed N]

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "perfbench.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace malleus {
namespace perfbench {
namespace {

std::string Num(double v) { return StrFormat("%.17g", v); }

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Peak resident set of this process image, from VmHWM. getrusage's
// ru_maxrss is not used: it survives exec, so it would report the
// launching Python process's peak whenever that is the larger one.
double PeakRssMb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(status);
  return kib / 1024.0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: malleus_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--serve-requests N] "
               "[--serve-malformed N]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Options* options) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) return false;
    const std::string flag = argv[i];
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      options->trace = std::strtol(value, &end, 10) != 0;
    } else if (flag == "--serve-requests") {
      options->serve_requests = static_cast<int>(std::strtol(value, &end, 10));
    } else if (flag == "--serve-malformed") {
      options->serve_malformed = static_cast<int>(std::strtol(value, &end, 10));
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || end == value)) return false;
  }
  return have_workload && options->seconds > 0 &&
         options->serve_requests >= 0 &&
         options->serve_malformed >= 0 &&
         (options->serve_requests == 0 ||
          options->serve_malformed < options->serve_requests);
}

std::string ObjectJson(const std::map<std::string, std::string>& members) {
  std::string out = "{";
  for (const auto& [key, value] : members) {
    if (out.size() > 1) out += ",";
    out += "\"" + JsonEscape(key) + "\":" + value;
  }
  return out + "}";
}

std::string Quote(const std::string& s) { return "\"" + JsonEscape(s) + "\""; }

int Main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) return Usage();
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  options.planner_threads =
      static_cast<int>(std::clamp<long>(kPlannerThreads, 1, nproc));

  Outcome out;
  if (options.workload == "dynamic-flat-32") {
    out = RunDynamicFlat32(options);
  } else if (options.workload == "dynamic-flow-64") {
    out = RunDynamicFlow64(options);
  } else if (options.workload == "serve-replan-70b") {
    out = RunServeReplan70b(options);
  } else if (options.workload == "whatif-sweep-64") {
    out = RunWhatIfSweep64(options);
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", options.workload.c_str());
    return 2;
  }

  std::map<std::string, std::string> env = {
      {"build_type", Quote(PERFBENCH_BUILD_TYPE)},
      {"nproc", std::to_string(nproc)},
      {"planner_threads", std::to_string(out.planner_threads)},
      {"seed", std::to_string(options.seed)},
      {"seconds", Num(options.seconds)},
      {"trace", options.trace ? "1" : "0"},
  };
  for (const auto& [key, value] : out.notes) env[key] = Quote(value);

  std::map<std::string, std::string> metrics;
  if (options.trace) {
    for (const auto& [name, value] : out.layers) metrics[name] = Num(value);
  } else {
    std::vector<double> ops = out.op_seconds;
    std::sort(ops.begin(), ops.end());
    const size_t n = ops.size();
    // The tail is the highest percentile with >= 10 samples beyond it;
    // with fewer than 11 samples it is the maximum.
    const size_t tail_index = n >= 11 ? n - 11 : (n > 0 ? n - 1 : 0);
    metrics["setup_s"] = Num(Median(out.setup_seconds));
    metrics["work_per_s"] =
        Num(out.work_seconds > 0 ? out.work / out.work_seconds : 0.0);
    double p50_sum = 0.0;
    const size_t groups = static_cast<size_t>(std::max(1, out.op_groups));
    for (size_t g = 0; g < groups; ++g) {
      p50_sum += Median(std::vector<double>(
          out.op_seconds.begin() + g * n / groups,
          out.op_seconds.begin() + (g + 1) * n / groups));
    }
    metrics["op_p50_ms"] = Num(1e3 * p50_sum / groups);
    metrics["op_tail_ms"] = Num(n > 0 ? 1e3 * ops[tail_index] : 0.0);
    metrics["goodput"] = Num(out.goodput);
    metrics["plan_step_s"] = Num(out.plan_step_sim_seconds);
    metrics["peak_rss_mb"] = Num(PeakRssMb());
    env["op_samples"] = std::to_string(n);
    env["op_p50_groups"] = std::to_string(groups);
    env["op_tail_percentile"] =
        Num(n >= 11 ? 100.0 * static_cast<double>(n - 10) / n : 100.0);
    env["op_tail_samples_beyond"] = std::to_string(n >= 11 ? 10 : 0);
  }

  std::map<std::string, std::string> result = {
      {"workload", Quote(options.workload)},
      {"env", ObjectJson(env)},
      {"digest", Quote(out.digest)},
      {"check",
       ObjectJson({{"threads", std::to_string(out.planner_threads)},
                   {"digest", Quote(out.check_digest)},
                   {"threads_other", std::to_string(out.check_threads_other)},
                   {"digest_other", Quote(out.check_digest_other)}})},
      {"attempted", std::to_string(out.attempted)},
      {"failed", std::to_string(out.failed)},
      {"metrics", ObjectJson(metrics)},
  };
  std::printf("%s\n", ObjectJson(result).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace malleus

int main(int argc, char** argv) {
  return malleus::perfbench::Main(argc, argv);
}
