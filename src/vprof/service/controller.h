// Automated refinement for the always-on profiling service.
//
// The offline workflow (paper Algorithm 3) is a human loop: profile, select
// the top factors, instrument their callees, repeat. RefinementController
// automates that loop against the live probe-enable bitmap. After each epoch
// it runs factor selection (Algorithm 1) on the streaming tree's snapshot
// and:
//   - expands selected factors that have call-graph children, enabling the
//     children's probes to descend into the high-variance subtree;
//   - retires an expanded function whose factors' contribution has stayed
//     below a floor for several consecutive steps, disabling its callees'
//     probes again (low specificity is not worth the probe cost).
//
// Step() is intended to run in the harvester sink, with tracing off, so
// every epoch is recorded under one consistent instrumentation set. The
// controller has converged when the instrumented set stops changing.
#ifndef SRC_VPROF_SERVICE_CONTROLLER_H_
#define SRC_VPROF_SERVICE_CONTROLLER_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <vector>

#include "src/vprof/analysis/call_graph.h"
#include "src/vprof/analysis/factor_selection.h"
#include "src/vprof/service/online_tree.h"

namespace vprof {

struct ControllerOptions {
  // Factor selection (Algorithm 1) parameters per step.
  int top_k = 3;
  double min_contribution = 0.01;
  SpecificityKind specificity = SpecificityKind::kQuadratic;

  // An expanded function is retired when no factor involving it reaches a
  // 0.5% contribution for `retire_patience` consecutive effective steps.
  int retire_patience = 3;

  // Steps are skipped (no bitmap changes) until the snapshot carries at
  // least this much interval weight, so selection is not run on noise.
  double min_weight = 30.0;
};

struct ControllerStatus {
  uint64_t steps = 0;         // Step() calls, including skipped ones
  uint64_t skipped = 0;       // steps below min_weight
  uint64_t expansions = 0;    // functions whose children were enabled
  uint64_t retirements = 0;   // functions whose children were disabled again
  int last_changes = 0;       // probe bits flipped by the latest step
  int stable_steps = 0;       // consecutive effective steps with 0 flips
  std::vector<Factor> selection;      // latest top-k selection
  std::vector<FuncId> instrumented;   // currently enabled probes, sorted
};

class RefinementController {
 public:
  // `graph` must outlive the controller. The initial instrumented set is
  // the root plus its direct callees ("top-level probes only").
  RefinementController(FuncId root, const CallGraph* graph,
                       ControllerOptions options = {});

  // Writes the controller's desired set into the global probe-enable
  // bitmap; returns the number of bits flipped. Start() paths call this
  // once before the first epoch.
  int ApplyInstrumentation();

  // One refinement iteration against an epoch snapshot. Returns the number
  // of probe bits flipped (0 for a skipped or stable step).
  int Step(const OnlineTreeSnapshot& snapshot);

  // True once `stable_needed` consecutive effective steps changed nothing.
  bool Converged(int stable_needed = 3) const;

  ControllerStatus status() const;

 private:
  // Desired probe set under the current expansion state; sorted.
  std::vector<FuncId> DesiredSet() const;
  int ApplyLocked();

  const FuncId root_;
  const CallGraph* graph_;
  const ControllerOptions options_;

  mutable std::mutex mu_;
  std::set<FuncId> expanded_;            // functions whose callees are enabled
  std::map<FuncId, int> low_streak_;     // consecutive low-contribution steps
  ControllerStatus status_;
};

}  // namespace vprof

#endif  // SRC_VPROF_SERVICE_CONTROLLER_H_
