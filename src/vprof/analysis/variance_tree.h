// The variance tree (paper Section 3.2.1).
//
// Nodes are dynamic call-tree positions of the instrumented functions (plus
// one "body" pseudo-node per expanded parent for time spent in the parent's
// own code, mirroring bodyA in paper Figure 1). For every semantic interval,
// each node holds the total critical-path-clipped execution time of its
// function at that position; across intervals this yields the node's variance
// and, for sibling pairs, the covariances that complete Equation (2):
//
//   Var(parent) = sum_i Var(child_i) + 2 * sum_{i<j} Cov(child_i, child_j)
//
// The synthetic root (node 0) carries each interval's end-to-end latency, so
// every node's variance can be expressed as a fraction of the overall latency
// variance the developer cares about.
#ifndef SRC_VPROF_ANALYSIS_VARIANCE_TREE_H_
#define SRC_VPROF_ANALYSIS_VARIANCE_TREE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/vprof/analysis/critical_path.h"
#include "src/vprof/trace.h"
#include "src/vprof/types.h"

namespace vprof {

using NodeId = int32_t;
inline constexpr NodeId kRootNode = 0;

struct TreeNode {
  NodeId parent = -1;
  FuncId func = kInvalidFunc;  // kInvalidFunc only for the synthetic root
  bool is_body = false;
  int depth = 0;  // root is 0
  std::vector<NodeId> children;
};

// Covariance of a pair of sibling nodes under one expanded parent.
struct SiblingCovariance {
  NodeId parent = -1;
  NodeId a = -1;
  NodeId b = -1;
  double covariance = 0.0;
};

// Structure-plus-statistics view of a variance tree, decoupling the factor
// aggregation (factor_selection.h) from how the tree was computed: the batch
// VarianceAnalysis below and the service's streaming OnlineVarianceTree both
// project into this shape. Spans reference the producer's storage and are
// valid only while it is alive and unmodified.
struct VarianceTreeView {
  std::span<const TreeNode> nodes;
  std::span<const double> node_variance;  // parallel to nodes
  std::span<const SiblingCovariance> covariances;
  double overall_variance = 0.0;
};

// Builds the variance tree for one tracing run: runs the critical-path
// analysis, attributes clipped function time per interval to call-tree nodes,
// and computes per-node variances and sibling covariances.
class VarianceAnalysis {
 public:
  explicit VarianceAnalysis(const Trace& trace,
                            const CriticalPathOptions& options = {});

  // --- structure --------------------------------------------------------
  size_t node_count() const { return nodes_.size(); }
  const TreeNode& node(NodeId id) const { return nodes_[static_cast<size_t>(id)]; }
  // Human-readable node label, e.g. "fil_flush" or "trx_commit(body)".
  std::string NodeLabel(NodeId id) const;

  // --- per-node statistics ------------------------------------------------
  size_t interval_count() const { return interval_count_; }
  std::span<const double> Series(NodeId id) const;
  double NodeMean(NodeId id) const;
  double NodeVariance(NodeId id) const;
  // Fraction of the overall latency variance (can exceed 1 transiently for
  // strongly anti-correlated siblings).
  double NodeContribution(NodeId id) const;

  const std::vector<SiblingCovariance>& covariances() const { return covariances_; }

  double overall_mean() const { return NodeMean(kRootNode); }
  double overall_variance() const { return NodeVariance(kRootNode); }
  std::span<const double> latencies() const { return Series(kRootNode); }

  // Projection used by factor selection; valid while this analysis lives.
  VarianceTreeView View() const {
    return VarianceTreeView{nodes_, node_variance_, covariances_,
                            overall_variance()};
  }

  // Aggregate critical-path wait composition (ns, summed over intervals).
  double total_queue_wait_ns() const { return total_queue_wait_ns_; }
  double total_blocked_wait_ns() const { return total_blocked_wait_ns_; }
  double total_descheduled_ns() const { return total_descheduled_ns_; }

  // --- Table 3 statistics -------------------------------------------------
  // Height: deepest node depth. Breadth: square of the widest expanded
  // node's child count — the size of the largest covariance matrix the tree
  // must reason about (the quantity that dominates the paper's Table 3).
  int TreeHeight() const;
  uint64_t TreeBreadth() const;

 private:
  NodeId Intern(NodeId parent, FuncId func, bool is_body);
  // Turns per-interval critical-path queue wait into a named leaf node under
  // the root (CriticalPathOptions::queue_wait_factor); no-op for the empty
  // name or an unregistered one.
  void MaterializeQueueWait(const std::string& factor_name,
                            const std::vector<IntervalBreakdown>& breakdowns);
  // Adds body nodes and computes moments, per node on the pool when the
  // trace has two or more `blocks` of intervals.
  void AddBodiesAndStats(size_t blocks);

  std::vector<TreeNode> nodes_;
  std::vector<std::vector<double>> node_times_;  // [node][interval]
  std::vector<SiblingCovariance> covariances_;
  std::vector<double> node_variance_;
  std::vector<double> node_mean_;
  size_t interval_count_ = 0;
  double total_queue_wait_ns_ = 0.0;
  double total_blocked_wait_ns_ = 0.0;
  double total_descheduled_ns_ = 0.0;
  std::vector<std::string> function_names_;
};

}  // namespace vprof

#endif  // SRC_VPROF_ANALYSIS_VARIANCE_TREE_H_
