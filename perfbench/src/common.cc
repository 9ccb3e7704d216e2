#include <cmath>
#include <cstdio>
#include <utility>

#include "perfbench.h"

#include "common/rng.h"

namespace malleus {
namespace perfbench {

void Digest::Add(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g;", v);
  Add(std::string(buf));
}

void Digest::Add(int64_t v) { Add(std::to_string(v) + ";"); }

std::string Digest::Hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

Tracer::Span::Span(Tracer* tracer, const char* layer)
    : tracer_(tracer), layer_(layer) {
  if (!tracer_->enabled_) return;
  parent_ = tracer_->open_;
  tracer_->open_ = this;
  start_ = Clock::now();
}

Tracer::Span::~Span() {
  if (!tracer_->enabled_) return;
  const double elapsed = SecondsSince(start_);
  LayerStat& stat = tracer_->layers_[layer_];
  stat.self_seconds += elapsed - children_;
  ++stat.calls;
  if (parent_ != nullptr) parent_->children_ += elapsed;
  tracer_->open_ = parent_;
}

void Tracer::AddChild(const char* layer, double seconds) {
  if (!enabled_) return;
  LayerStat& stat = layers_[layer];
  stat.self_seconds += seconds;
  ++stat.calls;
  if (open_ != nullptr) open_->children_ += seconds;
}

void Tracer::Count(const char* name, double n) {
  if (enabled_) counts_[name] += n;
}

Relabeling::Relabeling(int nodes, int gpus_per_node, uint64_t seed) {
  Rng rng(seed);
  // Nodes: at every level of the binary tree over node ids, swap the two
  // halves of each block with probability 1/2. This keeps every aligned
  // block of 2^k nodes together, so the planner's islands (aligned blocks
  // of nodes) see the same straggler mix under every relabeling.
  node_.resize(nodes);
  for (int n = 0; n < nodes; ++n) node_[n] = n;
  for (int half = 1; 2 * half <= nodes; half *= 2) {
    for (int block = 0; block + 2 * half <= nodes; block += 2 * half) {
      if (rng.UniformInt(uint64_t{2}) == 0) continue;
      for (int i = 0; i < half; ++i) {
        std::swap(node_[block + i], node_[block + half + i]);
      }
    }
  }
  // GPUs: a uniform permutation within each node.
  gpu_.resize(static_cast<size_t>(nodes) * gpus_per_node);
  std::vector<int> local(gpus_per_node);
  for (int n = 0; n < nodes; ++n) {
    for (int l = 0; l < gpus_per_node; ++l) local[l] = l;
    for (int l = gpus_per_node - 1; l > 0; --l) {
      std::swap(local[l], local[rng.UniformInt(static_cast<uint64_t>(l + 1))]);
    }
    for (int l = 0; l < gpus_per_node; ++l) {
      gpu_[n * gpus_per_node + l] = node_[n] * gpus_per_node + local[l];
    }
  }
}

uint64_t UnitSeed(uint64_t seed, uint64_t k) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (k + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

int UnitsFor(double seconds, int per_minute) {
  const int units = static_cast<int>(std::lround(seconds * per_minute / 60.0));
  return units < 1 ? 1 : units;
}

}  // namespace perfbench
}  // namespace malleus
