// Reference max–min flow simulator for differential testing.
//
// `ReferenceFlowSim` is the from-scratch progressive-filling engine: at
// every flow arrival or completion it re-runs water-filling over the whole
// active set, O(events x links x flows). It shares no code with
// net/flow_sim.cc, so comparing the two is an independent check;
// net::FlowSim must reproduce it bit for bit.

#ifndef MALLEUS_TESTKIT_REFERENCE_FLOW_SIM_H_
#define MALLEUS_TESTKIT_REFERENCE_FLOW_SIM_H_

#include <vector>

#include "net/fabric.h"
#include "net/flow_sim.h"

namespace malleus {
namespace testkit {

/// Everything net::FlowSim exposes after Run(), for side-by-side checks.
struct ReferenceFlowResult {
  std::vector<net::FlowOutcome> outcomes;  ///< In submission order.
  std::vector<net::LinkUsage> link_usage;  ///< Indexed by LinkId.
  double makespan_seconds = 0.0;
  double total_bytes = 0.0;
};

/// Plays `flows` to completion over `fabric` with the reference engine.
/// Flows must reference valid GPUs and carry non-negative bytes.
ReferenceFlowResult ReferenceFlowSim(const net::Fabric& fabric,
                                     const std::vector<net::Flow>& flows);

}  // namespace testkit
}  // namespace malleus

#endif  // MALLEUS_TESTKIT_REFERENCE_FLOW_SIM_H_
