// Streaming variance tree for the always-on profiling service (vprofd).
//
// The batch VarianceAnalysis keeps every interval's per-node time series in
// memory, which is fine for one run but unbounded for a service that folds
// epochs forever. OnlineVarianceTree keeps only O(nodes + sibling pairs)
// state: each epoch's critical-path decomposition is computed with the batch
// machinery, then folded into decayed Welford/covariance accumulators
// (statkit/decay.h) keyed by persistent call-tree position. Node identities
// are stable across epochs, so the tree refines monotonically as the
// controller enables deeper probes.
//
// Alignment invariant: every node accumulator and every sibling-pair
// covariance accumulator carries exactly the same weight (one unit per
// folded interval, decayed uniformly per epoch). Nodes born mid-stream are
// seeded with the current weight of zeros — the time they genuinely
// contributed before existing — so the paper's Equation (2) decomposition
// stays consistent over the whole sliding window.
#ifndef SRC_VPROF_SERVICE_ONLINE_TREE_H_
#define SRC_VPROF_SERVICE_ONLINE_TREE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/statkit/decay.h"
#include "src/vprof/analysis/critical_path.h"
#include "src/vprof/analysis/variance_tree.h"
#include "src/vprof/trace.h"

namespace vprof {

struct OnlineTreeOptions {
  // Sliding-window decay, expressed as the half-life of an observation in
  // epochs: after that many folds an interval counts half. 0 = no decay
  // (the cumulative, ever-growing window).
  double decay_half_life_epochs = 0.0;

  CriticalPathOptions path_options;
};

// Point-in-time copy of the aggregated tree: plain data, safe to use while
// the tree keeps folding. Feeds factor selection via View() and exports to
// the report/JSON/Prometheus formats.
struct OnlineTreeSnapshot {
  std::vector<TreeNode> nodes;
  std::vector<double> node_mean;       // parallel to nodes (ns)
  std::vector<double> node_variance;   // parallel to nodes (ns^2)
  std::vector<SiblingCovariance> covariances;
  std::vector<std::string> function_names;

  uint64_t epochs = 0;             // epochs folded
  uint64_t intervals = 0;          // raw intervals folded (undecayed count)
  double weight = 0.0;             // decayed effective interval count
  uint64_t dropped_records = 0;    // arena-cap drops across folded traces
  uint64_t stuck_thread_epochs = 0;  // epochs whose trace had stuck threads
  uint64_t stuck_threads = 0;        // quarantined threads, summed over epochs

  // Cumulative uncovered critical-path time (ns, undecayed).
  double total_queue_wait_ns = 0.0;
  double total_blocked_wait_ns = 0.0;
  double total_descheduled_ns = 0.0;

  double overall_mean() const {
    return nodes.empty() ? 0.0 : node_mean[kRootNode];
  }
  double overall_variance() const {
    return nodes.empty() ? 0.0 : node_variance[kRootNode];
  }

  // Human-readable node label, e.g. "fil_flush" or "trx_commit(body)".
  std::string NodeLabel(NodeId id) const;
  // Root-to-node path, e.g. "run_transaction/row_sel/lock_rec_lock".
  std::string NodePath(NodeId id) const;

  // Projection for factor selection; valid while this snapshot lives.
  VarianceTreeView View() const {
    return VarianceTreeView{nodes, node_variance, covariances,
                            overall_variance()};
  }

  // Prometheus text exposition for scraping the live service: tree stats,
  // per-node gauges keyed by escaped node path, and the tracer's own health
  // (dropped records, stuck threads, uncovered critical-path time). Sorted
  // family order with HELP/TYPE lines for every family (see prom.h).
  std::string ToPromText() const;
};

// Thread-safe: Fold runs on the harvester thread while Snapshot serves
// concurrent readers (metrics endpoints, the controller, tests).
class OnlineVarianceTree {
 public:
  explicit OnlineVarianceTree(const OnlineTreeOptions& options = {});

  // Folds one epoch's trace into the aggregate. The critical-path analysis
  // runs outside the lock; only the accumulator update is serialized.
  void Fold(const Trace& trace);

  OnlineTreeSnapshot Snapshot() const;

  uint64_t epochs() const;

 private:
  NodeId Intern(NodeId parent, FuncId func, bool is_body, double seed_weight);

  struct PairAcc {
    NodeId parent = -1;
    NodeId a = -1;
    NodeId b = -1;
    statkit::DecayedCovariance cov;
  };

  static uint64_t PairKey(NodeId a, NodeId b) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(a)) << 32) |
           static_cast<uint32_t>(b);
  }

  OnlineTreeOptions options_;
  double gamma_ = 1.0;  // per-epoch decay factor

  mutable std::mutex mu_;
  NodeId prev_node_count_ = 0;  // nodes_ size before the current Fold
  std::vector<TreeNode> nodes_;
  std::vector<statkit::DecayedMoments> moments_;  // parallel to nodes_
  std::vector<PairAcc> pairs_;
  std::unordered_map<uint64_t, size_t> pair_index_;  // PairKey -> pairs_ slot
  std::vector<std::string> function_names_;

  uint64_t epochs_ = 0;
  uint64_t intervals_ = 0;
  uint64_t dropped_records_ = 0;
  uint64_t stuck_thread_epochs_ = 0;
  uint64_t stuck_threads_ = 0;
  double total_queue_wait_ns_ = 0.0;
  double total_blocked_wait_ns_ = 0.0;
  double total_descheduled_ns_ = 0.0;
};

}  // namespace vprof

#endif  // SRC_VPROF_SERVICE_ONLINE_TREE_H_
