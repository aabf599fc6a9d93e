#include "src/vprof/analysis/variance_tree.h"

#include <algorithm>
#include <functional>
#include <memory>

#include "src/vprof/analysis/pool.h"
#include "src/vprof/analysis/seek.h"
#include "src/vprof/runtime.h"

namespace vprof {

namespace {

// Calls visit(record, overlap_ns) for every invocation that runs for a
// positive time inside the window [lo, hi). Relies on call nesting: records
// are ordered by start and every invocation lies within its parent's span.
// So the invocations still running at `lo` are the last one that started
// before `lo` and its parent chain, and every other overlapping invocation
// starts inside the window. The work is the overlaps plus one ancestor chain.
template <typename Visit>
void ForEachOverlap(const std::vector<Invocation>& invocations, TimeNs lo,
                    TimeNs hi, size_t* cursor, Visit&& visit) {
  const size_t first = SeekFirstAtOrAfter(invocations, lo, cursor);
  for (size_t i = first; i < invocations.size() && invocations[i].start < hi;
       ++i) {
    const TimeNs end = std::min(invocations[i].end, hi);
    if (end > invocations[i].start) {
      visit(i, end - invocations[i].start);
    }
  }
  if (first == 0) {
    return;
  }
  const auto visit_if_running = [&](size_t i) {
    if (invocations[i].end > lo) {
      visit(i, std::min(invocations[i].end, hi) - lo);
    }
  };
  // An ancestor can still be running after a nearer one has ended, so the
  // walk goes all the way up.
  const size_t last = first - 1;
  int chain = 0;
  for (int32_t i = static_cast<int32_t>(last); i >= 0;
       i = invocations[static_cast<size_t>(i)].parent) {
    visit_if_running(static_cast<size_t>(i));
    ++chain;
  }
  // Frames past kMaxProbeDepth all link to the deepest tracked ancestor, not
  // to the frame that encloses them; when `last` is one of them, the frames
  // enclosing it are among the records between that ancestor and `last`.
  if (chain > kMaxProbeDepth) {
    const int32_t ancestor = invocations[last].parent;
    for (int32_t i = static_cast<int32_t>(last) - 1; i > ancestor; --i) {
      visit_if_running(static_cast<size_t>(i));
    }
  }
}

// Population mean and (co)variance, two-pass over the series.
double Mean(std::span<const double> xs) {
  double sum = 0.0;
  for (const double x : xs) {
    sum += x;
  }
  return xs.empty() ? 0.0 : sum / static_cast<double>(xs.size());
}

double Covariance(std::span<const double> xs, double mean_x,
                  std::span<const double> ys, double mean_y) {
  double sum = 0.0;
  for (size_t i = 0; i < xs.size(); ++i) {
    sum += (xs[i] - mean_x) * (ys[i] - mean_y);
  }
  return xs.empty() ? 0.0 : sum / static_cast<double>(xs.size());
}

// Runs body(i) for every i in [0, n) of a per-thread or per-node stage:
// each as a pool block when the trace has two or more blocks of
// kPathBlockIntervals intervals, else in order on this thread. (vprofd's
// epoch fold runs inline at any size; see OnlineVarianceTree::Fold.)
void ForEachItem(size_t interval_blocks, size_t n,
                 const std::function<void(size_t)>& body) {
  if (interval_blocks >= 2) {
    RunBlocks(n, body);
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    body(i);
  }
}

// The child of `parent` labeled (func, is_body), or -1.
NodeId FindChild(const std::vector<TreeNode>& nodes, NodeId parent,
                 FuncId func, bool is_body) {
  for (const NodeId child : nodes[static_cast<size_t>(parent)].children) {
    const TreeNode& n = nodes[static_cast<size_t>(child)];
    if (n.func == func && n.is_body == is_body) {
      return child;
    }
  }
  return -1;
}

NodeId AddChild(std::vector<TreeNode>* nodes, NodeId parent, FuncId func,
                bool is_body) {
  const NodeId id = static_cast<NodeId>(nodes->size());
  TreeNode node;
  node.parent = parent;
  node.func = func;
  node.is_body = is_body;
  node.depth = (*nodes)[static_cast<size_t>(parent)].depth + 1;
  nodes->push_back(node);
  (*nodes)[static_cast<size_t>(parent)].children.push_back(id);
  return id;
}

// One trace thread's records interned into a call tree of its own, whose
// nodes are numbered in order of first appearance. Merging the threads'
// trees in thread order then numbers the nodes as one pass over every
// thread's records would.
struct ThreadTree {
  std::vector<TreeNode> nodes{TreeNode{}};  // node 0: the root
  std::vector<NodeId> record_node;          // per invocation record
  std::vector<NodeId> merged;  // per node: the node it merged into
};

void BuildThreadTree(const std::vector<Invocation>& invocations,
                     ThreadTree* tree) {
  // Parents precede children in the record order, so one forward pass
  // works. Nearly every record repeats a (parent node, func) pair seen
  // before, so a direct-mapped memo answers most of them without the child
  // scan.
  struct MemoSlot {
    NodeId parent = -1;
    FuncId func = kInvalidFunc;
    NodeId child = kRootNode;
  };
  constexpr int kMemoBits = 10;
  std::vector<MemoSlot> memo(size_t{1} << kMemoBits);
  tree->record_node.resize(invocations.size());
  for (size_t i = 0; i < invocations.size(); ++i) {
    const Invocation& inv = invocations[i];
    const NodeId parent =
        inv.parent >= 0 ? tree->record_node[static_cast<size_t>(inv.parent)]
                        : kRootNode;
    const uint64_t key = (static_cast<uint64_t>(parent) << 32) | inv.func;
    MemoSlot& slot = memo[(key * 0x9e3779b97f4a7c15ull) >> (64 - kMemoBits)];
    if (slot.parent != parent || slot.func != inv.func) {
      NodeId child = FindChild(tree->nodes, parent, inv.func, false);
      if (child < 0) {
        child = AddChild(&tree->nodes, parent, inv.func, false);
      }
      slot = MemoSlot{parent, inv.func, child};
    }
    tree->record_node[i] = slot.child;
  }
}

// Adds each critical-path window's overlaps with the recorded invocations
// to the walked interval's node series, as the walk emits the window. One
// sink walks one block of intervals, so it writes only their series
// entries, adding each entry's overlaps in window order.
class AttributingSink final : public PathSink {
 public:
  AttributingSink(const TraceIndex& index, const CriticalPathOptions& options,
                  const std::vector<ThreadTree>& trees,
                  std::vector<std::vector<double>>* node_times)
      : index_(index),
        has_coverage_(options.has_coverage),
        trees_(trees),
        node_times_(*node_times),
        cursors_(index.trace().threads.size(), 0) {}

  void Begin(size_t i, IntervalBreakdown* breakdown) override {
    interval_ = i;
    node_times_[kRootNode][i] = breakdown->latency_ns();
  }

  void Window(ThreadId tid, TimeNs lo, TimeNs hi) override {
    Attribute(tid, lo, hi);
  }

  // Without a caller's has_coverage, a blocked span is covered when an
  // invocation overlaps it, so the one overlap search that attributes the
  // span also decides.
  bool CoveredWait(ThreadId tid, TimeNs lo, TimeNs hi) override {
    if (!has_coverage_) {
      return Attribute(tid, lo, hi);
    }
    if (!has_coverage_(tid, lo, hi)) {
      return false;
    }
    Attribute(tid, lo, hi);
    return true;
  }

 private:
  // Adds the window's overlaps; returns whether there were any.
  bool Attribute(ThreadId tid, TimeNs lo, TimeNs hi) {
    const ThreadTrace* thread = index_.Thread(tid);
    if (thread == nullptr) {
      return false;
    }
    const size_t t = index_.Position(thread);
    const ThreadTree& tree = trees_[t];
    bool any = false;
    ForEachOverlap(
        thread->invocations, lo, hi, &cursors_[t],
        [&](size_t record, TimeNs overlap_ns) {
          const size_t node = static_cast<size_t>(
              tree.merged[static_cast<size_t>(tree.record_node[record])]);
          node_times_[node][interval_] += static_cast<double>(overlap_ns);
          any = true;
        });
    return any;
  }

  const TraceIndex& index_;
  const std::function<bool(ThreadId, TimeNs, TimeNs)>& has_coverage_;
  const std::vector<ThreadTree>& trees_;
  std::vector<std::vector<double>>& node_times_;
  // Per thread position: where the last overlap search on it ended.
  std::vector<size_t> cursors_;
  size_t interval_ = 0;
};

}  // namespace

VarianceAnalysis::VarianceAnalysis(const Trace& trace,
                                   const CriticalPathOptions& options) {
  function_names_ = trace.function_names;
  const TraceIndex index(trace);
  interval_count_ = static_cast<size_t>(std::count_if(
      index.Intervals().begin(), index.Intervals().end(),
      [&options](const TraceIndex::IntervalInfo& info) {
        return options.Selects(info.label);
      }));
  const size_t blocks =
      (interval_count_ + kPathBlockIntervals - 1) / kPathBlockIntervals;
  nodes_.push_back(TreeNode{});  // synthetic root
  node_times_.emplace_back(interval_count_, 0.0);

  // The tree node of every recorded invocation: each thread's records are
  // interned into a tree of their own, and the trees are merged in thread
  // order. Every node a window can reach then exists, so one pooled sweep
  // walks each interval's critical path and attributes its windows.
  std::vector<ThreadTree> trees(trace.threads.size());
  ForEachItem(blocks, trees.size(), [&](size_t t) {
    BuildThreadTree(trace.threads[t].invocations, &trees[t]);
  });
  for (ThreadTree& tree : trees) {
    tree.merged.resize(tree.nodes.size());
    tree.merged[kRootNode] = kRootNode;
    for (size_t n = 1; n < tree.nodes.size(); ++n) {
      const TreeNode& local = tree.nodes[n];
      tree.merged[n] = Intern(tree.merged[static_cast<size_t>(local.parent)],
                              local.func, /*is_body=*/false);
    }
  }
  const std::vector<IntervalBreakdown> breakdowns =
      WalkCriticalPaths(index, options, [&] {
        return std::make_unique<AttributingSink>(index, options, trees,
                                                 &node_times_);
      });
  for (const IntervalBreakdown& b : breakdowns) {
    total_queue_wait_ns_ += b.queue_wait_ns;
    total_blocked_wait_ns_ += b.blocked_wait_ns;
    total_descheduled_ns_ += b.descheduled_ns;
  }
  MaterializeQueueWait(options.queue_wait_factor, breakdowns);
  AddBodiesAndStats(blocks);
}

void VarianceAnalysis::MaterializeQueueWait(
    const std::string& factor_name,
    const std::vector<IntervalBreakdown>& breakdowns) {
  if (factor_name.empty()) {
    return;
  }
  FuncId func = kInvalidFunc;
  for (size_t i = 0; i < function_names_.size(); ++i) {
    if (function_names_[i] == factor_name) {
      func = static_cast<FuncId>(i);
      break;
    }
  }
  if (func == kInvalidFunc) {
    return;  // name never registered during this run
  }
  const NodeId node = Intern(kRootNode, func, /*is_body=*/false);
  std::vector<double>& series = node_times_[static_cast<size_t>(node)];
  for (size_t i = 0; i < breakdowns.size(); ++i) {
    // += rather than =: tolerate a (pathological) genuine invocation of the
    // pseudo-function at top level sharing the node.
    series[i] += breakdowns[i].queue_wait_ns;
  }
}

NodeId VarianceAnalysis::Intern(NodeId parent, FuncId func, bool is_body) {
  const NodeId found = FindChild(nodes_, parent, func, is_body);
  if (found >= 0) {
    return found;
  }
  node_times_.emplace_back(interval_count_, 0.0);
  return AddChild(&nodes_, parent, func, is_body);
}

void VarianceAnalysis::AddBodiesAndStats(size_t blocks) {
  // Add a body pseudo-node under every node that has children (including the
  // synthetic root, whose body captures critical-path time outside any
  // instrumented function: waits, queueing, uninstrumented code).
  const size_t original_count = nodes_.size();
  for (size_t id = 0; id < original_count; ++id) {
    if (!nodes_[id].children.empty()) {
      Intern(static_cast<NodeId>(id), nodes_[id].func, /*is_body=*/true);
    }
  }

  // Per node: a body's series (its parent's time less its siblings'), then
  // every node's mean and variance.
  node_variance_.resize(nodes_.size());
  node_mean_.resize(nodes_.size());
  ForEachItem(blocks, nodes_.size(), [&](size_t id) {
    std::vector<double>& series = node_times_[id];
    if (nodes_[id].is_body) {
      const size_t parent = static_cast<size_t>(nodes_[id].parent);
      const std::vector<double>& parent_series = node_times_[parent];
      for (size_t i = 0; i < interval_count_; ++i) {
        double children_sum = 0.0;
        for (const NodeId child : nodes_[parent].children) {
          if (static_cast<size_t>(child) != id) {
            children_sum += node_times_[static_cast<size_t>(child)][i];
          }
        }
        series[i] = parent_series[i] - children_sum;
      }
    }
    node_mean_[id] = Mean(series);
    node_variance_[id] =
        Covariance(series, node_mean_[id], series, node_mean_[id]);
  });

  // Sibling covariances per expanded parent, in (parent, a, b) order.
  std::vector<size_t> first_pair(nodes_.size() + 1, 0);
  for (size_t id = 0; id < nodes_.size(); ++id) {
    const size_t kids = nodes_[id].children.size();
    first_pair[id + 1] =
        first_pair[id] + (kids < 2 ? 0 : kids * (kids - 1) / 2);
  }
  covariances_.resize(first_pair.back());
  ForEachItem(blocks, nodes_.size(), [&](size_t id) {
    const std::vector<NodeId>& kids = nodes_[id].children;
    size_t slot = first_pair[id];
    for (size_t a = 0; a < kids.size(); ++a) {
      for (size_t b = a + 1; b < kids.size(); ++b) {
        const size_t ka = static_cast<size_t>(kids[a]);
        const size_t kb = static_cast<size_t>(kids[b]);
        covariances_[slot++] = SiblingCovariance{
            static_cast<NodeId>(id), kids[a], kids[b],
            Covariance(node_times_[ka], node_mean_[ka], node_times_[kb],
                       node_mean_[kb])};
      }
    }
  });
}

std::string VarianceAnalysis::NodeLabel(NodeId id) const {
  const TreeNode& n = nodes_[static_cast<size_t>(id)];
  if (n.func == kInvalidFunc) {
    return n.is_body ? "(other)" : "(interval)";
  }
  const std::string& name = n.func < function_names_.size()
                                ? function_names_[n.func]
                                : std::string("?");
  return n.is_body ? name + "(body)" : name;
}

std::span<const double> VarianceAnalysis::Series(NodeId id) const {
  return node_times_[static_cast<size_t>(id)];
}

double VarianceAnalysis::NodeMean(NodeId id) const {
  return node_mean_[static_cast<size_t>(id)];
}

double VarianceAnalysis::NodeVariance(NodeId id) const {
  return node_variance_[static_cast<size_t>(id)];
}

double VarianceAnalysis::NodeContribution(NodeId id) const {
  const double overall = overall_variance();
  return overall > 0.0 ? NodeVariance(id) / overall : 0.0;
}

int VarianceAnalysis::TreeHeight() const {
  int height = 0;
  for (const TreeNode& n : nodes_) {
    height = std::max(height, n.depth);
  }
  return height;
}

uint64_t VarianceAnalysis::TreeBreadth() const {
  uint64_t widest = 0;
  for (const TreeNode& n : nodes_) {
    widest = std::max(widest, static_cast<uint64_t>(n.children.size()));
  }
  return widest * widest;
}

}  // namespace vprof
