#include "src/vprof/service/online_tree.h"

#include <algorithm>
#include <span>

#include "src/vprof/analysis/pool.h"
#include "src/vprof/service/prom.h"

namespace vprof {

namespace {

std::string LabelFor(const TreeNode& n,
                     const std::vector<std::string>& function_names) {
  if (n.func == kInvalidFunc) {
    return n.is_body ? "(other)" : "(interval)";
  }
  const std::string name = n.func < function_names.size()
                               ? function_names[n.func]
                               : std::string("?");
  return n.is_body ? name + "(body)" : name;
}

}  // namespace

OnlineVarianceTree::OnlineVarianceTree(const OnlineTreeOptions& options)
    : options_(options),
      gamma_(statkit::DecayFactorForHalfLife(options.decay_half_life_epochs)) {
  nodes_.push_back(TreeNode{});  // synthetic root, NodeId 0
  moments_.emplace_back();
}

NodeId OnlineVarianceTree::Intern(NodeId parent, FuncId func, bool is_body,
                                  double seed_weight) {
  const TreeNode& parent_node = nodes_[static_cast<size_t>(parent)];
  for (NodeId child : parent_node.children) {
    const TreeNode& n = nodes_[static_cast<size_t>(child)];
    if (n.func == func && n.is_body == is_body) {
      return child;
    }
  }
  const NodeId id = static_cast<NodeId>(nodes_.size());
  TreeNode node;
  node.parent = parent;
  node.func = func;
  node.is_body = is_body;
  node.depth = parent_node.depth + 1;
  // Nodes born mid-stream must carry the same weight as everything else so
  // Equation (2) stays exact across instrumentation changes. A function
  // child contributed exactly zero before its probe was enabled, so it
  // seeds as `seed_weight` zeros. A body child usually appears the epoch
  // its parent is first expanded — before that, ALL of the parent's time
  // was unattributed self time — so it inherits a copy of the parent's
  // history. If the parent already had children in earlier epochs (and thus
  // simply had no self time until now), the body's past was zero instead.
  bool parent_had_children = false;
  for (NodeId child : nodes_[static_cast<size_t>(parent)].children) {
    if (child < prev_node_count_) {
      parent_had_children = true;
      break;
    }
  }
  nodes_.push_back(node);
  nodes_[static_cast<size_t>(parent)].children.push_back(id);
  if (is_body && !parent_had_children) {
    moments_.push_back(moments_[static_cast<size_t>(parent)]);
  } else {
    moments_.push_back(statkit::DecayedMoments::Seeded(seed_weight));
  }
  return id;
}

void OnlineVarianceTree::Fold(const Trace& trace) {
  // The expensive part — critical-path walk and per-interval attribution —
  // runs unlocked so Snapshot() readers are never blocked behind it. It
  // runs on this thread only. The fold runs inside the profiled server, and
  // a saturated server's epoch (about 10,000 intervals per 100 ms at 90k
  // req/s) is large enough to wake the analysis pool, whose workers would
  // run on every CPU next to the server's threads.
  const InlineBlocks inline_only;
  const VarianceAnalysis epoch(trace, options_.path_options);
  const size_t n_intervals = epoch.interval_count();

  std::lock_guard<std::mutex> lock(mu_);
  ++epochs_;
  dropped_records_ += trace.dropped_record_count();
  if (!trace.stuck_threads.empty()) {
    ++stuck_thread_epochs_;
    stuck_threads_ += trace.stuck_threads.size();
  }
  if (trace.function_names.size() > function_names_.size()) {
    function_names_ = trace.function_names;
  }

  // Age the window: one decay step per epoch, applied uniformly so every
  // accumulator keeps an identical weight.
  if (gamma_ < 1.0) {
    for (statkit::DecayedMoments& m : moments_) {
      m.Scale(gamma_);
    }
    for (PairAcc& p : pairs_) {
      p.cov.Scale(gamma_);
    }
  }
  if (n_intervals == 0) {
    return;  // an idle epoch still ages the window but adds nothing
  }

  intervals_ += n_intervals;
  total_queue_wait_ns_ += epoch.total_queue_wait_ns();
  total_blocked_wait_ns_ += epoch.total_blocked_wait_ns();
  total_descheduled_ns_ += epoch.total_descheduled_ns();

  // Map epoch-tree nodes onto persistent nodes. The epoch tree stores
  // parents before children (Intern appends), so one forward pass resolves
  // every parent. New persistent nodes are seeded at the pre-epoch weight.
  const double pre_weight = moments_[kRootNode].weight();
  prev_node_count_ = static_cast<NodeId>(nodes_.size());
  std::vector<NodeId> to_online(epoch.node_count(), -1);
  to_online[kRootNode] = kRootNode;
  for (size_t id = 1; id < epoch.node_count(); ++id) {
    const TreeNode& n = epoch.node(static_cast<NodeId>(id));
    const NodeId parent = to_online[static_cast<size_t>(n.parent)];
    to_online[id] = Intern(parent, n.func, n.is_body, pre_weight);
  }

  // Per-online-node series for this epoch; empty span = all zeros.
  std::vector<std::span<const double>> series(nodes_.size());
  for (size_t id = 0; id < epoch.node_count(); ++id) {
    series[static_cast<size_t>(to_online[id])] =
        epoch.Series(static_cast<NodeId>(id));
  }

  // A node expanded in earlier epochs can be a leaf in this one (its
  // children's probes were retired): the epoch then has no body node under
  // it, but all of its time is self time. Route the parent's series to the
  // persistent body child so Var(children)+Cov still composes to Var(parent)
  // within the window.
  for (size_t id = 1; id < nodes_.size(); ++id) {
    const TreeNode& n = nodes_[id];
    if (!n.is_body || !series[id].empty()) {
      continue;
    }
    const size_t parent = static_cast<size_t>(n.parent);
    if (series[parent].empty()) {
      continue;
    }
    bool sibling_has_data = false;
    for (NodeId sibling : nodes_[parent].children) {
      if (sibling != static_cast<NodeId>(id) &&
          !series[static_cast<size_t>(sibling)].empty()) {
        sibling_has_data = true;
        break;
      }
    }
    if (!sibling_has_data) {
      series[id] = series[parent];
    }
  }

  // Track every sibling pair under every parent with >= 2 children. Pairs
  // born this epoch are seeded at the pre-epoch weight with a zero co-moment
  // (the younger sibling was constant zero before).
  for (size_t id = 0; id < nodes_.size(); ++id) {
    const std::vector<NodeId>& kids = nodes_[id].children;
    if (kids.size() < 2) {
      continue;
    }
    for (size_t a = 0; a < kids.size(); ++a) {
      for (size_t b = a + 1; b < kids.size(); ++b) {
        const uint64_t key = PairKey(kids[a], kids[b]);
        if (pair_index_.find(key) != pair_index_.end()) {
          continue;
        }
        PairAcc acc;
        acc.parent = static_cast<NodeId>(id);
        acc.a = kids[a];
        acc.b = kids[b];
        acc.cov = statkit::DecayedCovariance::Seeded(
            pre_weight, moments_[static_cast<size_t>(kids[a])].mean(),
            moments_[static_cast<size_t>(kids[b])].mean());
        pair_index_.emplace(key, pairs_.size());
        pairs_.push_back(std::move(acc));
      }
    }
  }

  // Fold the epoch's intervals. Nodes absent from this epoch observe zeros,
  // keeping all weights aligned.
  for (size_t i = 0; i < n_intervals; ++i) {
    for (size_t id = 0; id < nodes_.size(); ++id) {
      moments_[id].Add(series[id].empty() ? 0.0 : series[id][i]);
    }
    for (PairAcc& p : pairs_) {
      const auto& sa = series[static_cast<size_t>(p.a)];
      const auto& sb = series[static_cast<size_t>(p.b)];
      p.cov.Add(sa.empty() ? 0.0 : sa[i], sb.empty() ? 0.0 : sb[i]);
    }
  }
}

OnlineTreeSnapshot OnlineVarianceTree::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  OnlineTreeSnapshot snap;
  snap.nodes = nodes_;
  snap.node_mean.reserve(nodes_.size());
  snap.node_variance.reserve(nodes_.size());
  for (const statkit::DecayedMoments& m : moments_) {
    snap.node_mean.push_back(m.mean());
    snap.node_variance.push_back(m.variance());
  }
  snap.covariances.reserve(pairs_.size());
  for (const PairAcc& p : pairs_) {
    snap.covariances.push_back(
        SiblingCovariance{p.parent, p.a, p.b, p.cov.covariance()});
  }
  snap.function_names = function_names_;
  snap.epochs = epochs_;
  snap.intervals = intervals_;
  snap.weight = moments_[kRootNode].weight();
  snap.dropped_records = dropped_records_;
  snap.stuck_thread_epochs = stuck_thread_epochs_;
  snap.stuck_threads = stuck_threads_;
  snap.total_queue_wait_ns = total_queue_wait_ns_;
  snap.total_blocked_wait_ns = total_blocked_wait_ns_;
  snap.total_descheduled_ns = total_descheduled_ns_;
  return snap;
}

uint64_t OnlineVarianceTree::epochs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epochs_;
}

std::string OnlineTreeSnapshot::NodeLabel(NodeId id) const {
  return LabelFor(nodes[static_cast<size_t>(id)], function_names);
}

std::string OnlineTreeSnapshot::NodePath(NodeId id) const {
  if (id == kRootNode) {
    return "(interval)";
  }
  std::vector<std::string> parts;
  for (NodeId at = id; at != kRootNode;
       at = nodes[static_cast<size_t>(at)].parent) {
    parts.push_back(NodeLabel(at));
  }
  std::string path;
  for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
    if (!path.empty()) {
      path += '/';
    }
    path += *it;
  }
  return path;
}

std::string OnlineTreeSnapshot::ToPromText() const {
  PromWriter w;
  w.Family("vprof_epochs_total", "counter", "Epochs folded into the tree.");
  w.Sample("vprof_epochs_total", epochs);
  w.Family("vprof_intervals_total", "counter",
           "Semantic intervals folded (undecayed).");
  w.Sample("vprof_intervals_total", intervals);
  w.Family("vprof_interval_weight", "gauge",
           "Decayed effective interval count of the window.");
  w.Sample("vprof_interval_weight", weight);
  w.Family("vprof_interval_latency_mean_ns", "gauge",
           "Mean interval latency over the window.");
  w.Sample("vprof_interval_latency_mean_ns", overall_mean());
  w.Family("vprof_interval_latency_variance_ns2", "gauge",
           "Interval latency variance over the window.");
  w.Sample("vprof_interval_latency_variance_ns2", overall_variance());

  // Tracer self-health: the profiler's own degradation must be observable.
  w.Family("vprof_dropped_records_total", "counter",
           "Probe records lost to per-thread arena caps.");
  w.Sample("vprof_dropped_records_total", dropped_records);
  w.Family("vprof_stuck_thread_epochs_total", "counter",
           "Epochs whose harvest quarantined at least one stuck thread.");
  w.Sample("vprof_stuck_thread_epochs_total", stuck_thread_epochs);
  w.Family("vprof_stuck_threads_total", "counter",
           "Stuck threads quarantined by harvest quiesce, summed.");
  w.Sample("vprof_stuck_threads_total", stuck_threads);
  w.Family("vprof_queue_wait_ns_total", "counter",
           "Critical-path time attributed to queue wait.");
  w.Sample("vprof_queue_wait_ns_total", total_queue_wait_ns);
  w.Family("vprof_blocked_wait_ns_total", "counter",
           "Critical-path time attributed to uninstrumented blocking.");
  w.Sample("vprof_blocked_wait_ns_total", total_blocked_wait_ns);
  w.Family("vprof_descheduled_ns_total", "counter",
           "Critical-path time spent descheduled.");
  w.Sample("vprof_descheduled_ns_total", total_descheduled_ns);

  w.Family("vprof_node_mean_ns", "gauge",
           "Per-node mean time, keyed by root-to-node path.");
  w.Family("vprof_node_variance_ns2", "gauge",
           "Per-node variance, keyed by root-to-node path.");
  w.Family("vprof_node_variance_share", "gauge",
           "Node variance as a share of overall interval variance.");
  const double overall = overall_variance();
  for (size_t id = 1; id < nodes.size(); ++id) {
    const PromWriter::Labels labels{
        {"path", NodePath(static_cast<NodeId>(id))}};
    w.Sample("vprof_node_mean_ns", labels, node_mean[id]);
    w.Sample("vprof_node_variance_ns2", labels, node_variance[id]);
    w.Sample("vprof_node_variance_share", labels,
             overall > 0.0 ? node_variance[id] / overall : 0.0);
  }
  return w.Text();
}

}  // namespace vprof
