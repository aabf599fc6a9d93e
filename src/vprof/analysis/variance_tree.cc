#include "src/vprof/analysis/variance_tree.h"

#include <algorithm>
#include <functional>

#include "src/vprof/analysis/pool.h"
#include "src/vprof/runtime.h"

namespace vprof {

namespace {

// Index of the first invocation starting at or after `t`. The search gallops
// out from `*cursor`, the previous answer on the same thread, and leaves the
// new answer there: consecutive windows on one thread are close in time, so
// it touches a few records near the last answer instead of binary-searching
// the whole per-thread array from cold.
size_t SeekFirstAtOrAfter(const std::vector<Invocation>& invocations, TimeNs t,
                          size_t* cursor) {
  const auto before = [t](const Invocation& inv) { return inv.start < t; };
  const size_t n = invocations.size();
  const size_t pos = std::min(*cursor, n);
  size_t lo = 0;  // the answer lies in [lo, hi]
  size_t hi = n;
  if (pos < n && before(invocations[pos])) {
    lo = pos + 1;
    for (size_t step = 1; pos + step < n; step *= 2) {
      if (!before(invocations[pos + step])) {
        hi = pos + step;
        break;
      }
      lo = pos + step + 1;
    }
  } else {
    hi = pos;
    for (size_t step = 1; step <= pos; step *= 2) {
      if (before(invocations[pos - step])) {
        lo = pos - step + 1;
        break;
      }
      hi = pos - step;
    }
  }
  *cursor = static_cast<size_t>(
      std::partition_point(invocations.begin() + static_cast<ptrdiff_t>(lo),
                           invocations.begin() + static_cast<ptrdiff_t>(hi),
                           before) -
      invocations.begin());
  return *cursor;
}

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

size_t ThreadPosition(const Trace& trace, const ThreadTrace* thread) {
  return static_cast<size_t>(thread - trace.threads.data());
}

// Intervals per pool block of the critical-path walk and the attribution.
// A trace of fewer than two blocks is analyzed inline at every stage: it
// costs less than waking the pool. (vprofd's epoch fold runs inline at any
// size; see OnlineVarianceTree::Fold.)
constexpr size_t kBlockIntervals = 1024;

// Runs body(i) for every i in [0, n) of a per-thread or per-node stage:
// each as a pool block when the trace has two or more interval blocks, else
// in order on this thread.
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

}  // namespace

VarianceAnalysis::VarianceAnalysis(const Trace& trace,
                                   const CriticalPathOptions& options) {
  function_names_ = trace.function_names;
  nodes_.push_back(TreeNode{});  // synthetic root
  node_times_.emplace_back();

  const TraceIndex index(trace);
  std::vector<const TraceIndex::IntervalInfo*> intervals;
  for (const TraceIndex::IntervalInfo& info : index.Intervals()) {
    if (options.Selects(info.label)) {
      intervals.push_back(&info);
    }
  }
  interval_count_ = intervals.size();
  const size_t blocks =
      (interval_count_ + kBlockIntervals - 1) / kBlockIntervals;

  // Critical paths, one block of intervals at a time. The coverage cursors
  // only speed up the position search, so each block keeps its own.
  std::vector<IntervalBreakdown> breakdowns(interval_count_);
  RunBlocks(blocks, [&](size_t block) {
    std::vector<size_t> cursors(trace.threads.size(), 0);
    CriticalPathOptions block_options = options;
    if (!block_options.has_coverage) {
      block_options.has_coverage = [&](ThreadId tid, TimeNs lo, TimeNs hi) {
        const ThreadTrace* thread = index.Thread(tid);
        if (thread == nullptr) {
          return false;
        }
        bool covered = false;
        ForEachOverlap(thread->invocations, lo, hi,
                       &cursors[ThreadPosition(trace, thread)],
                       [&covered](size_t, TimeNs) { covered = true; });
        return covered;
      };
    }
    const size_t end =
        std::min(interval_count_, (block + 1) * kBlockIntervals);
    for (size_t i = block * kBlockIntervals; i < end; ++i) {
      breakdowns[i] = BuildBreakdown(index, *intervals[i], block_options);
    }
  });
  for (auto& series : node_times_) {
    series.assign(interval_count_, 0.0);
  }
  for (const IntervalBreakdown& b : breakdowns) {
    total_queue_wait_ns_ += b.queue_wait_ns;
    total_blocked_wait_ns_ += b.blocked_wait_ns;
    total_descheduled_ns_ += b.descheduled_ns;
  }
  AttributeWindows(index, breakdowns, blocks);
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

void VarianceAnalysis::AttributeWindows(
    const TraceIndex& index, const std::vector<IntervalBreakdown>& breakdowns,
    size_t blocks) {
  const Trace& trace = index.trace();
  const size_t thread_count = trace.threads.size();

  // The tree node of every recorded invocation: each thread's records are
  // interned into a tree of their own, and the trees are merged in thread
  // order.
  std::vector<ThreadTree> trees(thread_count);
  ForEachItem(blocks, thread_count, [&](size_t t) {
    BuildThreadTree(trace.threads[t].invocations, &trees[t]);
  });
  std::vector<std::vector<NodeId>> to_node(thread_count);
  for (size_t t = 0; t < thread_count; ++t) {
    const std::vector<TreeNode>& local = trees[t].nodes;
    to_node[t].resize(local.size());
    to_node[t][kRootNode] = kRootNode;
    for (size_t n = 1; n < local.size(); ++n) {
      to_node[t][n] = Intern(to_node[t][static_cast<size_t>(local[n].parent)],
                             local[n].func, /*is_body=*/false);
    }
  }

  // Each interval's series entries are written by the one block that holds
  // the interval, adding its overlaps in window order.
  RunBlocks(blocks, [&](size_t block) {
    std::vector<size_t> cursors(thread_count, 0);
    const size_t end =
        std::min(interval_count_, (block + 1) * kBlockIntervals);
    for (size_t interval_idx = block * kBlockIntervals; interval_idx < end;
         ++interval_idx) {
      const IntervalBreakdown& b = breakdowns[interval_idx];
      node_times_[kRootNode][interval_idx] = b.latency_ns();
      for (const PathWindow& window : b.windows) {
        const ThreadTrace* thread = index.Thread(window.tid);
        if (thread == nullptr) {
          continue;
        }
        const size_t t = ThreadPosition(trace, thread);
        const std::vector<NodeId>& record_node = trees[t].record_node;
        const std::vector<NodeId>& nodes = to_node[t];
        ForEachOverlap(
            thread->invocations, window.lo, window.hi, &cursors[t],
            [&](size_t record, TimeNs overlap_ns) {
              const size_t node = static_cast<size_t>(
                  nodes[static_cast<size_t>(record_node[record])]);
              node_times_[node][interval_idx] +=
                  static_cast<double>(overlap_ns);
            });
      }
    }
  });
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
