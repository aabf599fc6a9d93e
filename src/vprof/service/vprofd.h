// vprofd: the always-on profiling service facade.
//
// Composes the three service pieces — epoch harvesting, the streaming
// variance tree, and the refinement controller — behind one object a server
// embeds next to its request loop:
//
//   vprof::VprofdOptions opts;
//   opts.root_function = "run_transaction";
//   opts.graph = graph;                       // static call graph
//   vprof::Vprofd daemon(opts);
//   daemon.Start();                           // workload keeps running
//   ... daemon.Snapshot(), daemon.MetricsText() from any thread ...
//   daemon.Stop();
//
// Each epoch the harvester hands the trace to the tree's Fold and then (if
// enabled) the controller's Step, which reshapes the probe bitmap before
// the next epoch starts — Algorithm 3 running unattended against live
// traffic, starting from top-level probes only.
#ifndef SRC_VPROF_SERVICE_VPROFD_H_
#define SRC_VPROF_SERVICE_VPROFD_H_

#include <memory>
#include <string>
#include <vector>

#include "src/statstore/regression.h"
#include "src/statstore/store.h"
#include "src/vprof/analysis/call_graph.h"
#include "src/vprof/service/controller.h"
#include "src/vprof/service/harvester.h"
#include "src/vprof/service/history.h"
#include "src/vprof/service/online_tree.h"
#include "src/vprof/service/supervisor.h"
#include "src/vprof/types.h"

namespace vprof {

struct VprofdOptions {
  // Function whose invocations delimit the semantic interval (the root of
  // every variance tree). Registered with the probe registry if needed.
  std::string root_function;

  // Static call graph used for specificity heights and controller descent.
  // Shared so the embedding server and the service can hold it jointly.
  std::shared_ptr<const CallGraph> graph;

  TimeNs epoch_ns = 100'000'000;  // 100 ms
  OnlineTreeOptions tree;
  ControllerOptions controller;

  // When false the probe bitmap is left alone and vprofd only aggregates
  // whatever the current instrumentation produces (used by the overhead
  // bench and by operators who want a fixed probe set).
  bool enable_controller = true;

  // Durable history: when history.dir is non-empty, every epoch's snapshot
  // is flattened (see history.h) and appended to a compressed statstore
  // there on the harvester thread, with the append latency tracked in the
  // store's stats. An existing store is recovered and extended; epoch ids
  // continue past the persisted tail.
  statstore::StoreOptions history;

  // Self-healing supervision: after each epoch the supervisor observes the
  // service's own health deltas (rotation gap, tracer drops, stuck threads,
  // history append errors) and walks the Normal -> Degraded -> Quarantined
  // escalation ladder, lengthening epochs, freezing the controller, and
  // ultimately turning tracing off while the served workload runs
  // untouched. See supervisor.h. Restoration is automatic.
  bool enable_supervisor = false;
  SupervisorOptions supervisor;

  // Regression detection over per-node contribution shares. Defaults tuned
  // for share streams in [0, 1]: a factor must move by more than 5 points
  // AND 6 sigma of its decayed history (sigma floored at 1 point) to flag,
  // which rides out steady-workload wobble but catches a migrating factor
  // within an epoch or two.
  statstore::RegressionOptions regression{
      .k_sigma = 6.0,
      .sigma_floor = 0.01,
      .min_abs_shift = 0.05,
      .half_life_epochs = 64.0,
      .warmup_epochs = 8,
      .cooldown_epochs = 8,
      .max_flags = 256,
  };
};

class Vprofd {
 public:
  explicit Vprofd(VprofdOptions options);
  ~Vprofd();

  Vprofd(const Vprofd&) = delete;
  Vprofd& operator=(const Vprofd&) = delete;

  // Applies the initial instrumentation (root + direct callees) and begins
  // harvesting. No-op if already running.
  void Start();

  // Harvests the final partial epoch and stops. Tracing is left off; the
  // aggregated tree remains queryable.
  void Stop();

  bool running() const { return harvester_.running(); }
  uint64_t epochs() const { return harvester_.epochs(); }
  TimeNs last_gap_ns() const { return harvester_.last_gap_ns(); }
  TimeNs max_gap_ns() const { return harvester_.max_gap_ns(); }
  TimeNs total_gap_ns() const { return harvester_.total_gap_ns(); }

  OnlineTreeSnapshot Snapshot() const { return tree_.Snapshot(); }
  ControllerStatus controller_status() const { return controller_.status(); }
  bool Converged(int stable_needed = 3) const {
    return controller_.Converged(stable_needed);
  }

  // The persisted history store; null when options.history.dir is empty.
  statstore::StatStore* history() { return store_.get(); }
  const statstore::StatStore* history() const { return store_.get(); }

  // The escalation-ladder supervisor (meaningful when
  // options.enable_supervisor is set; stays in Normal otherwise).
  const Supervisor& supervisor() const { return supervisor_; }
  SupervisorState supervisor_state() const { return supervisor_.state(); }

  const statstore::RegressionDetector& regression() const {
    return detector_;
  }
  std::vector<statstore::RegressionFlag> regression_flags() const {
    return detector_.flags();
  }

  // Prometheus text exposition: the tree's node metrics plus vprofd_*
  // service gauges (epochs, rotation gap, controller progress, history
  // persistence, regression flags). Sorted families with HELP/TYPE lines.
  std::string MetricsText() const;

 private:
  void HandleEpoch(Trace&& trace);

  VprofdOptions options_;
  FuncId root_ = kInvalidFunc;
  OnlineVarianceTree tree_;
  RefinementController controller_;
  statstore::RegressionDetector detector_;
  std::unique_ptr<statstore::StatStore> store_;
  bool store_opened_ = false;
  uint64_t epoch_base_ = 0;  // persisted epochs from before this process
  Supervisor supervisor_;
  // Previous cumulative counters, for per-epoch health deltas (harvester
  // thread only).
  uint64_t prev_dropped_records_ = 0;
  uint64_t prev_stuck_threads_ = 0;
  uint64_t prev_append_errors_ = 0;
  EpochHarvester harvester_;
};

}  // namespace vprof

#endif  // SRC_VPROF_SERVICE_VPROFD_H_
