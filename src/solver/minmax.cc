#include "solver/minmax.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/string_util.h"

namespace malleus {
namespace solver {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Units assignable to one entity are never needed beyond this bound; it
// also guards the int64 cast against floor(inf).
constexpr int64_t kUnitsCeiling = int64_t{1} << 40;

// Max units assignable to entity j when the bottleneck must stay <= t.
int64_t MaxUnitsAt(double rate, int64_t cap, double t) {
  if (rate == kInf) return 0;
  // floor(t / rate) with a tolerance so that t == rate * k counts k.
  const double units = std::floor(t / rate + 1e-9);
  int64_t by_rate = units >= static_cast<double>(kUnitsCeiling)
                        ? kUnitsCeiling
                        : static_cast<int64_t>(units);
  if (by_rate < 0) by_rate = 0;
  if (cap >= 0) by_rate = std::min(by_rate, cap);
  return by_rate;
}

// cap_j, with a null `caps` meaning every entity is unbounded.
int64_t CapAt(const int64_t* caps, size_t j) {
  return caps == nullptr ? -1 : caps[j];
}

int64_t TotalUnitsAt(const std::vector<double>& rates, const int64_t* caps,
                     double t) {
  int64_t total = 0;
  for (size_t j = 0; j < rates.size(); ++j) {
    total += MaxUnitsAt(rates[j], CapAt(caps, j), t);
  }
  return total;  // Bounded by n * kUnitsCeiling; no overflow.
}

// The body shared by every entry point; fills *sol in place, reusing the
// capacity of sol->amounts and *order.
Status Solve(const std::vector<double>& rates, const int64_t* caps,
             int64_t total, BottleneckSolution* sol,
             std::vector<size_t>* order) {
  const size_t n = rates.size();
  if (n == 0) return Status::InvalidArgument("no entities to assign to");
  if (total < 0) return Status::InvalidArgument("total must be >= 0");
  for (double r : rates) {
    if (!(r > 0)) {
      return Status::InvalidArgument("rates must be positive (or +inf)");
    }
  }

  sol->amounts.assign(n, 0);
  if (total == 0) {
    sol->bottleneck = 0.0;
    return Status::OK();
  }

  // Feasibility: the loosest possible bottleneck assigns cap everywhere.
  if (TotalUnitsAt(rates, caps, kInf) < total) {
    return Status::Infeasible(
        StrFormat("capacities admit fewer than %lld units",
                  static_cast<long long>(total)));
  }

  // The optimal bottleneck is rate_j * k for some entity j and integer
  // k <= total. Binary search on k per candidate rate is wasteful; instead
  // binary-search the scalar t over the merged candidate space:
  // first bracket t in (lo, hi], then resolve the exact candidate.
  double hi = 0.0;
  for (size_t j = 0; j < rates.size(); ++j) {
    if (rates[j] != kInf) {
      hi = std::max(hi, rates[j] * static_cast<double>(total));
    }
  }
  double lo = 0.0;
  // 60 halvings give full double precision on the bracket.
  for (int iter = 0; iter < 60; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (TotalUnitsAt(rates, caps, mid) >= total) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  // Snap hi to the exact achieved bottleneck (the largest used product).
  double t = hi;

  // Assign maximal units at t, then trim the excess starting from the
  // highest-rate entities so the secondary sum of products shrinks most.
  std::vector<int64_t>& out = sol->amounts;
  int64_t assigned = 0;
  for (size_t j = 0; j < n; ++j) {
    out[j] = MaxUnitsAt(rates[j], CapAt(caps, j), t);
    assigned += out[j];
  }
  int64_t excess = assigned - total;
  if (excess > 0) {
    order->resize(n);
    std::iota(order->begin(), order->end(), 0);
    std::sort(order->begin(), order->end(), [&](size_t a, size_t b) {
      return rates[a] > rates[b];
    });
    for (size_t idx : *order) {
      if (excess == 0) break;
      const int64_t cut = std::min(excess, out[idx]);
      out[idx] -= cut;
      excess -= cut;
    }
  }

  double bottleneck = 0.0;
  for (size_t j = 0; j < n; ++j) {
    if (out[j] > 0) {
      bottleneck = std::max(bottleneck, rates[j] * out[j]);
    }
  }
  sol->bottleneck = bottleneck;
  return Status::OK();
}

}  // namespace

Result<BottleneckSolution> SolveBottleneckAllocation(
    const std::vector<double>& rates, const std::vector<int64_t>& caps,
    int64_t total) {
  if (caps.size() != rates.size()) {
    return Status::InvalidArgument("rates/caps size mismatch");
  }
  BottleneckSolution sol;
  std::vector<size_t> order;
  MALLEUS_RETURN_NOT_OK(Solve(rates, caps.data(), total, &sol, &order));
  return sol;
}

Result<BottleneckSolution> SolveBottleneckAllocation(
    const std::vector<double>& rates, int64_t total) {
  BottleneckSolution sol;
  std::vector<size_t> order;
  MALLEUS_RETURN_NOT_OK(Solve(rates, nullptr, total, &sol, &order));
  return sol;
}

Status SolveBottleneckAllocationInto(const std::vector<double>& rates,
                                     int64_t total, BottleneckSolution* sol,
                                     std::vector<size_t>* order) {
  return Solve(rates, nullptr, total, sol, order);
}

}  // namespace solver
}  // namespace malleus
