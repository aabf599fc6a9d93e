#include "src/vprof/analysis/variance_tree.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/statkit/rng.h"
#include "src/vprof/analysis/pool.h"
#include "src/vprof/runtime.h"
#include "tests/vprof/trace_builder.h"

namespace vprof {
namespace {

using vprof_test::TraceBuilder;

// Builds n single-thread intervals, each spanned by one invocation of `txn`
// with children `a` (constant 100ns) and `b` (duration supplied per interval).
// Layout of interval i (base = i * 10000):
//   txn: [base, base + 100 + b_i + 50]
//     a: [base, base + 100]
//     b: [base + 100, base + 100 + b_i]
//   trailing 50ns is txn body.
Trace BuildTwoChildTrace(const std::vector<TimeNs>& b_durations) {
  TraceBuilder tb;
  for (size_t i = 0; i < b_durations.size(); ++i) {
    const TimeNs base = static_cast<TimeNs>(i) * 10000;
    const TimeNs b_end = base + 100 + b_durations[i];
    const TimeNs end = b_end + 50;
    const IntervalId sid = static_cast<IntervalId>(i + 1);
    tb.Begin(0, sid, base).End(0, sid, end);
    tb.Exec(0, sid, base, end);
    const int txn = tb.Invoke(0, "txn", base, end, -1, sid);
    tb.Invoke(0, "a", base, base + 100, txn, sid);
    tb.Invoke(0, "b", base + 100, b_end, txn, sid);
  }
  return tb.Build();
}

NodeId FindNode(const VarianceAnalysis& va, const std::string& label) {
  for (size_t i = 0; i < va.node_count(); ++i) {
    if (va.NodeLabel(static_cast<NodeId>(i)) == label) {
      return static_cast<NodeId>(i);
    }
  }
  return -1;
}

TEST(VarianceAnalysisTest, ConstantChildHasZeroVariance) {
  const Trace trace = BuildTwoChildTrace({500, 1000, 1500, 2000});
  VarianceAnalysis va(trace);
  const NodeId a = FindNode(va, "a");
  ASSERT_GE(a, 0);
  EXPECT_DOUBLE_EQ(va.NodeVariance(a), 0.0);
  EXPECT_DOUBLE_EQ(va.NodeMean(a), 100.0);
}

TEST(VarianceAnalysisTest, VaryingChildCarriesAllVariance) {
  const Trace trace = BuildTwoChildTrace({500, 1000, 1500, 2000});
  VarianceAnalysis va(trace);
  const NodeId b = FindNode(va, "b");
  ASSERT_GE(b, 0);
  // b values: 500,1000,1500,2000 -> population variance 312500.
  EXPECT_NEAR(va.NodeVariance(b), 312500.0, 1e-6);
  // Latency = 150 + b, so overall variance equals b's variance.
  EXPECT_NEAR(va.overall_variance(), 312500.0, 1e-6);
  EXPECT_NEAR(va.NodeContribution(b), 1.0, 1e-9);
}

TEST(VarianceAnalysisTest, BodyNodeIsResidual) {
  const Trace trace = BuildTwoChildTrace({500, 1000});
  VarianceAnalysis va(trace);
  const NodeId body = FindNode(va, "txn(body)");
  ASSERT_GE(body, 0);
  EXPECT_NEAR(va.NodeMean(body), 50.0, 1e-9);
  EXPECT_NEAR(va.NodeVariance(body), 0.0, 1e-9);
}

TEST(VarianceAnalysisTest, EquationTwoDecomposition) {
  // Var(txn) must equal the sum of child variances plus twice the pairwise
  // covariances of {a, b, body}.
  const Trace trace = BuildTwoChildTrace({100, 900, 400, 1600, 250});
  VarianceAnalysis va(trace);
  const NodeId txn = FindNode(va, "txn");
  ASSERT_GE(txn, 0);
  const auto& children = va.node(txn).children;
  ASSERT_EQ(children.size(), 3u);  // a, b, txn(body)
  double sum = 0.0;
  for (NodeId c : children) {
    sum += va.NodeVariance(c);
  }
  for (const SiblingCovariance& cov : va.covariances()) {
    if (cov.parent == txn) {
      sum += 2.0 * cov.covariance;
    }
  }
  EXPECT_NEAR(va.NodeVariance(txn), sum, 1e-6 * (1.0 + sum));
}

TEST(VarianceAnalysisTest, TreeStructure) {
  const Trace trace = BuildTwoChildTrace({500, 600});
  VarianceAnalysis va(trace);
  const NodeId txn = FindNode(va, "txn");
  const NodeId a = FindNode(va, "a");
  ASSERT_GE(txn, 0);
  ASSERT_GE(a, 0);
  EXPECT_EQ(va.node(a).parent, txn);
  EXPECT_EQ(va.node(txn).parent, kRootNode);
  EXPECT_EQ(va.node(txn).depth, 1);
  EXPECT_EQ(va.node(a).depth, 2);
  EXPECT_EQ(va.TreeHeight(), 2);  // deepest: a, b, txn(body) at depth 2
}

TEST(VarianceAnalysisTest, RecursiveCallsGetDistinctNodes) {
  // f -> f (recursion): the inner call is a distinct tree position.
  TraceBuilder tb;
  tb.Begin(0, 1, 0).End(0, 1, 1000);
  tb.Exec(0, 1, 0, 1000);
  const int outer = tb.Invoke(0, "f", 0, 1000, -1, 1);
  tb.Invoke(0, "f", 200, 700, outer, 1);
  const Trace trace = tb.Build();
  VarianceAnalysis va(trace);
  int f_nodes = 0;
  for (size_t i = 0; i < va.node_count(); ++i) {
    if (va.NodeLabel(static_cast<NodeId>(i)) == "f") {
      ++f_nodes;
    }
  }
  EXPECT_EQ(f_nodes, 2);
}

TEST(VarianceAnalysisTest, SameFunctionTwoCallSitesAggregatesPerInterval) {
  // Two invocations of `g` under txn in one interval: the node's per-interval
  // time is their sum.
  TraceBuilder tb;
  tb.Begin(0, 1, 0).End(0, 1, 1000);
  tb.Exec(0, 1, 0, 1000);
  const int txn = tb.Invoke(0, "txn", 0, 1000, -1, 1);
  tb.Invoke(0, "g", 0, 300, txn, 1);
  tb.Invoke(0, "g", 500, 800, txn, 1);
  const Trace trace = tb.Build();
  VarianceAnalysis va(trace);
  const NodeId g = FindNode(va, "g");
  ASSERT_GE(g, 0);
  EXPECT_DOUBLE_EQ(va.NodeMean(g), 600.0);
}

TEST(VarianceAnalysisTest, OverallMeanMatchesLatencies) {
  const Trace trace = BuildTwoChildTrace({500, 1000, 1500});
  VarianceAnalysis va(trace);
  // Latencies: 650, 1150, 1650.
  EXPECT_NEAR(va.overall_mean(), 1150.0, 1e-9);
  ASSERT_EQ(va.latencies().size(), 3u);
  EXPECT_DOUBLE_EQ(va.latencies()[0], 650.0);
}

TEST(VarianceAnalysisTest, WaitTimeLandsInRootBody) {
  // A blocked span with no waker inside the interval: no function covers it,
  // so it shows up in the synthetic root's body "(other)".
  TraceBuilder tb;
  tb.Begin(0, 1, 0).End(0, 1, 1000);
  tb.Exec(0, 1, 0, 400).Blocked(0, 1, 400, 900).Exec(0, 1, 900, 1000);
  tb.Invoke(0, "work", 0, 400, -1, 1);
  const Trace trace = tb.Build();
  VarianceAnalysis va(trace);
  const NodeId other = FindNode(va, "(other)");
  ASSERT_GE(other, 0);
  // Latency 1000, work 400 -> other 600 (blocked 500 + trailing 100).
  EXPECT_DOUBLE_EQ(va.NodeMean(other), 600.0);
  EXPECT_DOUBLE_EQ(va.total_blocked_wait_ns(), 500.0);
}

TEST(VarianceAnalysisTest, BreadthIsSquaredWidestFanout) {
  const Trace trace = BuildTwoChildTrace({500, 600});
  VarianceAnalysis va(trace);
  // txn has children {a, b, body} -> breadth 9.
  EXPECT_EQ(va.TreeBreadth(), 9u);
}

// --- Differential test: attribution against a brute-force reference -------
//
// VarianceAnalysis finds the invocations overlapping a critical-path window
// by call nesting. The reference below checks every invocation against every
// window instead, on seeded random traces shaped the way the runtime records
// them.

constexpr int kRandomThreads = 3;
constexpr int kSlots = 40;
constexpr TimeNs kSlot = 20000;
const char* const kRandomFuncs[] = {"dt_a", "dt_b", "dt_c", "dt_d", "dt_e"};

// Generates one thread's call forest as the runtime records it: records in
// start order, each linked to the record of the frame below it, except that
// frames deeper than kMaxProbeDepth link to the deepest tracked ancestor.
class ForestGen {
 public:
  // With `deep`, some frames nest past kMaxProbeDepth; the others nest up
  // to `max_depth` levels below the top-level frames.
  ForestGen(TraceBuilder* tb, ThreadId tid, statkit::Rng* rng, bool deep,
            int max_depth)
      : tb_(tb),
        tid_(tid),
        rng_(rng),
        deep_(deep),
        max_depth_(max_depth),
        stack_(kMaxProbeDepth) {}

  // Siblings at `depth` inside [lo, hi], each possibly with children.
  void Children(TimeNs lo, TimeNs hi, int depth) {
    for (TimeNs t = lo;;) {
      if (rng_->NextBool(0.75)) {
        t += rng_->NextInRange(1, 400);  // otherwise: same start as before
      }
      if (t > hi) {
        return;
      }
      const TimeNs room = std::min<TimeNs>(hi - t, 8000);
      TimeNs dur = 0;  // zero-length
      if (room > 0 && !rng_->NextBool(0.1)) {
        dur = rng_->NextBool(0.1) ? room : rng_->NextInRange(1, room);
      }
      Open(t, t + dur, depth);
      if (deep_ && depth == 0 && dur >= 2000 && rng_->NextBool(0.05)) {
        Nest(t, t + dur, depth + 1);
      } else if (dur > 0 && depth < max_depth_ && rng_->NextBool(0.6)) {
        Children(t, t + dur, depth + 1);
      }
      t += dur;
      if (t >= hi) {
        return;
      }
    }
  }

 private:
  // A chain of frames down past kMaxProbeDepth, with short frames that have
  // ended before the next level starts.
  void Nest(TimeNs lo, TimeNs hi, int depth) {
    if (depth > kMaxProbeDepth + 8 || hi - lo < 8) {
      Children(lo, hi, depth);
      return;
    }
    TimeNs start = lo;
    if (rng_->NextBool(0.3)) {
      Open(start, start + 1, depth);
      start += 1;
    }
    start += rng_->NextInRange(0, 1);
    const TimeNs end = hi - rng_->NextInRange(0, 1);
    Open(start, end, depth);
    Nest(start, end, depth + 1);
  }

  void Open(TimeNs start, TimeNs end, int depth) {
    const int parent =
        depth == 0 ? -1 : stack_[std::min(depth, kMaxProbeDepth) - 1];
    const int record = tb_->Invoke(
        tid_, kRandomFuncs[rng_->NextBelow(std::size(kRandomFuncs))], start,
        end, parent);
    if (depth < kMaxProbeDepth) {
      stack_[depth] = record;
    }
  }

  TraceBuilder* tb_;
  ThreadId tid_;
  statkit::Rng* rng_;
  bool deep_;
  int max_depth_;
  std::vector<int> stack_;
};

// Segment cut points strictly inside (lo, hi): some of the thread's
// invocation boundaries there, plus `extra` random times.
std::vector<TimeNs> Cuts(const ThreadTrace& thread, TimeNs lo, TimeNs hi,
                         statkit::Rng* rng, int extra) {
  std::vector<TimeNs> cuts;
  for (const Invocation& inv : thread.invocations) {
    for (const TimeNs t : {inv.start, inv.end}) {
      if (t > lo && t < hi && rng->NextBool(0.1)) {
        cuts.push_back(t);
      }
    }
  }
  for (int i = 0; i < extra && hi - lo >= 2; ++i) {
    cuts.push_back(rng->NextInRange(lo + 1, hi - 1));
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  return cuts;
}

// Executing segments of no interval over [lo, hi), split at cut points; some
// pieces are blocked and woken by another thread at their end.
void Filler(TraceBuilder* tb, ThreadId tid, TimeNs lo, TimeNs hi,
            statkit::Rng* rng) {
  if (lo >= hi) {
    return;
  }
  std::vector<TimeNs> cuts = Cuts(tb->Thread(tid), lo, hi, rng, 2);
  cuts.insert(cuts.begin(), lo);
  cuts.push_back(hi);
  for (size_t i = 0; i + 1 < cuts.size(); ++i) {
    if (rng->NextBool(0.2)) {
      const ThreadId waker = (tid + 1) % kRandomThreads;
      tb->Blocked(tid, kNoInterval, cuts[i], cuts[i + 1], waker, cuts[i + 1]);
    } else {
      tb->Exec(tid, kNoInterval, cuts[i], cuts[i + 1]);
    }
  }
}

// Segments of interval `sid` over [cuts.front(), cuts.back()): executing,
// blocked (with no waker, or woken by `waker`) and queue-wait pieces. With
// `generator` set, the first piece is a dequeued task created by it.
void Task(TraceBuilder* tb, ThreadId tid, IntervalId sid,
          const std::vector<TimeNs>& cuts, ThreadId waker, statkit::Rng* rng,
          ThreadId generator = kNoThread, TimeNs enqueue_time = -1) {
  for (size_t i = 0; i + 1 < cuts.size(); ++i) {
    const TimeNs lo = cuts[i];
    const TimeNs hi = cuts[i + 1];
    const double kind = rng->NextDouble();
    if (i == 0 && generator != kNoThread) {
      tb->ExecGenerated(tid, sid, lo, hi, generator, enqueue_time);
    } else if (kind < 0.55) {
      tb->Exec(tid, sid, lo, hi);
    } else if (kind < 0.7) {
      tb->Blocked(tid, sid, lo, hi);
    } else if (kind < 0.9) {
      tb->Blocked(tid, sid, lo, hi, waker,
                  rng->NextBool(0.5) ? hi : rng->NextInRange(lo + 1, hi));
    } else {
      tb->QueueWait(tid, sid, lo, hi);
    }
  }
}

// A random trace: three threads, one interval per time slot, run on one
// thread, with blocked time handed to another (waker chains) or begun on
// another thread that enqueued it (created-by edges). Thread 0 nests past
// kMaxProbeDepth, unless `shallow`, which keeps every call within three
// levels; thread 2 is capped by the arena, losing a suffix of its records;
// invocations still open at the end are clamped to it.
Trace RandomTrace(uint64_t seed, bool shallow = false) {
  statkit::Rng rng(seed);
  TraceBuilder tb;
  const TimeNs duration = kSlots * kSlot;
  for (ThreadId tid = 0; tid < kRandomThreads; ++tid) {
    ForestGen(&tb, tid, &rng, /*deep=*/!shallow && tid == 0,
              /*max_depth=*/shallow ? 2 : 4)
        .Children(0, duration + kSlot, 0);
    std::vector<Invocation>& invocations = tb.Thread(tid).invocations;
    while (!invocations.empty() && invocations.back().start > duration) {
      invocations.pop_back();
    }
    for (Invocation& inv : invocations) {
      inv.end = std::min(inv.end, duration);
    }
  }
  const size_t kept = tb.Thread(2).invocations.size() * 4 / 5;
  tb.Thread(2).dropped_records = tb.Thread(2).invocations.size() - kept;
  tb.Thread(2).invocations.resize(kept);

  for (int slot = 0; slot < kSlots; ++slot) {
    const TimeNs lo = slot * kSlot;
    const TimeNs hi = lo + kSlot;
    const IntervalId sid = static_cast<IntervalId>(slot + 1);
    const ThreadId main = static_cast<ThreadId>(rng.NextBelow(kRandomThreads));
    const ThreadId other =
        (main + 1 + static_cast<ThreadId>(rng.NextBelow(2))) % kRandomThreads;
    const bool created_by = rng.NextBool(0.3);
    // The task runs from the first cut to the last one on `main`.
    const std::vector<TimeNs> cuts =
        Cuts(tb.Thread(main), lo + kSlot / 2, hi, &rng, 4);
    const TimeNs begin = cuts.front();
    const TimeNs end = cuts.back();
    const TimeNs enqueue = begin - rng.NextInRange(1, kSlot / 4);
    for (ThreadId tid = 0; tid < kRandomThreads; ++tid) {
      if (tid == main) {
        Filler(&tb, tid, lo, begin, &rng);
        if (created_by) {
          Task(&tb, tid, sid, cuts, other, &rng, other, enqueue);
        } else {
          tb.Begin(tid, sid, begin);
          Task(&tb, tid, sid, cuts, other, &rng);
        }
        tb.End(tid, sid, end);
        Filler(&tb, tid, end, hi, &rng);
      } else if (tid == other && created_by) {
        // The producer begins the interval and works on it until it
        // enqueues the task; the walk reaches it over the created-by edge.
        std::vector<TimeNs> producer =
            Cuts(tb.Thread(tid), lo, enqueue, &rng, 2);
        producer.push_back(enqueue);
        Filler(&tb, tid, lo, producer.front(), &rng);
        tb.Begin(tid, sid, producer.front());
        Task(&tb, tid, sid, producer, main, &rng);
        Filler(&tb, tid, enqueue, hi, &rng);
      } else {
        Filler(&tb, tid, lo, hi, &rng);
      }
    }
  }
  return tb.Build(duration);
}

TimeNs Overlap(const Invocation& inv, TimeNs lo, TimeNs hi) {
  return std::min(inv.end, hi) - std::max(inv.start, lo);
}

// Call path (functions from the top-level frame down) of every record.
std::vector<std::vector<FuncId>> CallPaths(const ThreadTrace& thread) {
  std::vector<std::vector<FuncId>> paths(thread.invocations.size());
  for (size_t i = 0; i < thread.invocations.size(); ++i) {
    const Invocation& inv = thread.invocations[i];
    if (inv.parent >= 0) {
      paths[i] = paths[static_cast<size_t>(inv.parent)];
    }
    paths[i].push_back(inv.func);
  }
  return paths;
}

struct Reference {
  std::map<std::vector<FuncId>, std::vector<double>> series;  // by call path
  std::vector<IntervalBreakdown> breakdowns;
  double queue_wait_ns = 0.0;
  double blocked_wait_ns = 0.0;
  double descheduled_ns = 0.0;
};

// O(windows x invocations): every invocation is checked against every
// window, for coverage and for attribution alike.
Reference BruteForce(const Trace& trace) {
  const TraceIndex index(trace);
  CriticalPathOptions options;
  options.has_coverage = [&index](ThreadId tid, TimeNs lo, TimeNs hi) {
    const ThreadTrace* thread = index.Thread(tid);
    if (thread == nullptr) {
      return false;
    }
    return std::any_of(
        thread->invocations.begin(), thread->invocations.end(),
        [&](const Invocation& inv) { return Overlap(inv, lo, hi) > 0; });
  };
  Reference ref;
  ref.breakdowns = BuildBreakdowns(index, options);
  std::map<ThreadId, std::vector<std::vector<FuncId>>> paths;
  for (const ThreadTrace& thread : trace.threads) {
    paths[thread.tid] = CallPaths(thread);
    for (const std::vector<FuncId>& path : paths[thread.tid]) {
      ref.series.try_emplace(path, ref.breakdowns.size(), 0.0);
    }
  }
  for (size_t i = 0; i < ref.breakdowns.size(); ++i) {
    const IntervalBreakdown& b = ref.breakdowns[i];
    ref.queue_wait_ns += b.queue_wait_ns;
    ref.blocked_wait_ns += b.blocked_wait_ns;
    ref.descheduled_ns += b.descheduled_ns;
    for (const PathWindow& w : b.windows) {
      const ThreadTrace* thread = index.Thread(w.tid);
      for (size_t j = 0; j < thread->invocations.size(); ++j) {
        const TimeNs overlap = Overlap(thread->invocations[j], w.lo, w.hi);
        if (overlap > 0) {
          ref.series[paths[w.tid][j]][i] += static_cast<double>(overlap);
        }
      }
    }
  }
  return ref;
}

// How often each case the overlap walk must get right occurs in a trace.
struct Exercised {
  int same_start_as_parent = 0;
  int zero_length = 0;
  int clamped_at_end = 0;
  int window_on_boundary = 0;
  int window_on_other_thread = 0;
  // The last record starting before the window has ended, but an ancestor
  // is still running.
  int ancestor_outlives_last = 0;
  // Two or more frames past kMaxProbeDepth are running at the window start.
  int nested_past_max_depth = 0;
};

Exercised Survey(const Trace& trace, const Reference& ref) {
  Exercised e;
  const TraceIndex index(trace);
  std::map<IntervalId, ThreadId> end_tid;
  for (const TraceIndex::IntervalInfo& info : index.Intervals()) {
    end_tid[info.sid] = info.end_tid;
  }
  std::map<ThreadId, std::vector<size_t>> chain_length;
  for (const ThreadTrace& thread : trace.threads) {
    std::vector<size_t>& len = chain_length[thread.tid];
    len.resize(thread.invocations.size());
    for (size_t i = 0; i < thread.invocations.size(); ++i) {
      const Invocation& inv = thread.invocations[i];
      len[i] = inv.parent >= 0 ? len[static_cast<size_t>(inv.parent)] + 1 : 1;
      const size_t parent = static_cast<size_t>(inv.parent);
      if (inv.parent >= 0 && inv.start == thread.invocations[parent].start) {
        ++e.same_start_as_parent;
      }
      e.zero_length += inv.start == inv.end ? 1 : 0;
      e.clamped_at_end += inv.end == trace.duration ? 1 : 0;
    }
  }
  for (const IntervalBreakdown& b : ref.breakdowns) {
    for (const PathWindow& w : b.windows) {
      const std::vector<Invocation>& invs = index.Thread(w.tid)->invocations;
      e.window_on_other_thread += w.tid != end_tid[b.sid] ? 1 : 0;
      int capped_running = 0;
      bool on_boundary = false;
      for (size_t j = 0; j < invs.size(); ++j) {
        on_boundary = on_boundary || invs[j].start == w.lo ||
                      invs[j].end == w.lo || invs[j].start == w.hi ||
                      invs[j].end == w.hi;
        if (invs[j].start < w.lo && invs[j].end > w.lo &&
            chain_length[w.tid][j] > static_cast<size_t>(kMaxProbeDepth)) {
          ++capped_running;
        }
      }
      e.window_on_boundary += on_boundary ? 1 : 0;
      e.nested_past_max_depth += capped_running >= 2 ? 1 : 0;
      const auto last = std::partition_point(
          invs.begin(), invs.end(),
          [&](const Invocation& inv) { return inv.start < w.lo; });
      if (last != invs.begin() && std::prev(last)->end <= w.lo) {
        for (int32_t p = std::prev(last)->parent; p >= 0;
             p = invs[static_cast<size_t>(p)].parent) {
          if (invs[static_cast<size_t>(p)].end > w.lo) {
            ++e.ancestor_outlives_last;
            break;
          }
        }
      }
    }
  }
  return e;
}

TEST(VarianceAnalysisTest, AttributionMatchesBruteForceOnRandomTraces) {
  Exercised total;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Trace trace = RandomTrace(seed);
    ASSERT_GT(trace.dropped_record_count(), 0u);
    const Reference ref = BruteForce(trace);
    const VarianceAnalysis va(trace);
    ASSERT_EQ(va.interval_count(), ref.breakdowns.size());
    ASSERT_EQ(va.interval_count(), static_cast<size_t>(kSlots));
    // Coverage decides whether blocked time becomes a window or a wait, so
    // equal wait totals mean the two coverage checks agreed.
    EXPECT_EQ(va.total_queue_wait_ns(), ref.queue_wait_ns);
    EXPECT_EQ(va.total_blocked_wait_ns(), ref.blocked_wait_ns);
    EXPECT_EQ(va.total_descheduled_ns(), ref.descheduled_ns);

    size_t function_nodes = 0;
    for (size_t id = 1; id < va.node_count(); ++id) {
      if (va.node(static_cast<NodeId>(id)).is_body) {
        continue;
      }
      ++function_nodes;
      std::vector<FuncId> path;
      for (NodeId n = static_cast<NodeId>(id); n != kRootNode;
           n = va.node(n).parent) {
        path.insert(path.begin(), va.node(n).func);
      }
      const auto it = ref.series.find(path);
      ASSERT_NE(it, ref.series.end()) << va.NodeLabel(static_cast<NodeId>(id));
      const std::span<const double> series = va.Series(static_cast<NodeId>(id));
      ASSERT_EQ(series.size(), it->second.size());
      for (size_t i = 0; i < series.size(); ++i) {
        ASSERT_EQ(series[i], it->second[i])
            << va.NodeLabel(static_cast<NodeId>(id)) << " depth "
            << path.size() << " interval " << i;
      }
    }
    EXPECT_EQ(function_nodes, ref.series.size());

    const Exercised e = Survey(trace, ref);
    total.same_start_as_parent += e.same_start_as_parent;
    total.zero_length += e.zero_length;
    total.clamped_at_end += e.clamped_at_end;
    total.window_on_boundary += e.window_on_boundary;
    total.window_on_other_thread += e.window_on_other_thread;
    total.ancestor_outlives_last += e.ancestor_outlives_last;
    total.nested_past_max_depth += e.nested_past_max_depth;
  }
  // The sweep must actually reach every case.
  EXPECT_GT(total.same_start_as_parent, 0);
  EXPECT_GT(total.zero_length, 0);
  EXPECT_GT(total.clamped_at_end, 0);
  EXPECT_GT(total.window_on_boundary, 0);
  EXPECT_GT(total.window_on_other_thread, 0);
  EXPECT_GT(total.ancestor_outlives_last, 0);
  EXPECT_GT(total.nested_past_max_depth, 0);
}

// --- The pooled path ------------------------------------------------------
//
// The random traces above hold 40 intervals, under the pool's grain, so the
// test above checks the analysis run inline. A trace of several blocks of
// intervals is analyzed on the pool: the critical-path walk and attribution
// per block of intervals, interning per thread, moments per node.

constexpr int kSeeds = 6;

// Lays the random traces in `seeds`, cycled, end to end in time into one
// trace of `tiles` tiles, on the same threads. Tile k's interval ids follow
// tile k-1's, so its intervals are k * kSlots onwards in the index.
Trace TileRandomTraces(const std::vector<Trace>& seeds, int tiles) {
  constexpr TimeNs kStride = (kSlots + 1) * kSlot;
  Trace out;
  for (const Trace& part : seeds) {
    if (part.function_names.size() > out.function_names.size()) {
      out.function_names = part.function_names;
    }
  }
  out.duration = tiles * kStride;
  out.threads.resize(kRandomThreads);
  for (int k = 0; k < tiles; ++k) {
    const Trace& part = seeds[static_cast<size_t>(k % kSeeds)];
    const TimeNs shift = k * kStride;
    const IntervalId sid_shift = static_cast<IntervalId>(k) * kSlots;
    for (const ThreadTrace& from : part.threads) {
      ThreadTrace& to = out.threads[static_cast<size_t>(from.tid)];
      to.tid = from.tid;
      to.dropped_records += from.dropped_records;
      const int32_t base = static_cast<int32_t>(to.invocations.size());
      for (Invocation inv : from.invocations) {
        inv.start += shift;
        inv.end += shift;
        inv.parent = inv.parent >= 0 ? inv.parent + base : -1;
        to.invocations.push_back(inv);
      }
      for (Segment seg : from.segments) {
        seg.start += shift;
        seg.end += shift;
        seg.sid += seg.sid == kNoInterval ? 0 : sid_shift;
        seg.waker_time += seg.waker_time >= 0 ? shift : 0;
        seg.generator_time += seg.generator_time >= 0 ? shift : 0;
        to.segments.push_back(seg);
      }
      for (IntervalEvent e : from.interval_events) {
        e.sid += sid_shift;
        e.time += shift;
        to.interval_events.push_back(e);
      }
    }
  }
  return out;
}

uint64_t Bits(double x) {
  uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

// Whether two analyses agree bit for bit: tree, series, moments and waits.
bool BitIdentical(const VarianceAnalysis& a, const VarianceAnalysis& b) {
  if (a.node_count() != b.node_count() ||
      a.interval_count() != b.interval_count() ||
      a.covariances().size() != b.covariances().size() ||
      Bits(a.total_queue_wait_ns()) != Bits(b.total_queue_wait_ns()) ||
      Bits(a.total_blocked_wait_ns()) != Bits(b.total_blocked_wait_ns()) ||
      Bits(a.total_descheduled_ns()) != Bits(b.total_descheduled_ns())) {
    return false;
  }
  for (size_t i = 0; i < a.node_count(); ++i) {
    const NodeId id = static_cast<NodeId>(i);
    const TreeNode& x = a.node(id);
    const TreeNode& y = b.node(id);
    if (x.parent != y.parent || x.func != y.func || x.is_body != y.is_body ||
        x.depth != y.depth || x.children != y.children ||
        Bits(a.NodeMean(id)) != Bits(b.NodeMean(id)) ||
        Bits(a.NodeVariance(id)) != Bits(b.NodeVariance(id)) ||
        !std::equal(a.Series(id).begin(), a.Series(id).end(),
                    b.Series(id).begin(), b.Series(id).end(),
                    [](double u, double v) { return Bits(u) == Bits(v); })) {
      return false;
    }
  }
  for (size_t i = 0; i < a.covariances().size(); ++i) {
    const SiblingCovariance& x = a.covariances()[i];
    const SiblingCovariance& y = b.covariances()[i];
    if (x.parent != y.parent || x.a != y.a || x.b != y.b ||
        Bits(x.covariance) != Bits(y.covariance)) {
      return false;
    }
  }
  return true;
}

// Shallow: the tree gets a node for every call path in any tile, each with
// a series over every interval of the tiled trace, and deep random call
// chains would make that thousands of nodes.
std::vector<Trace> SeedTraces() {
  std::vector<Trace> seeds;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    seeds.push_back(RandomTrace(seed, /*shallow=*/true));
  }
  return seeds;
}

// 103 tiles of 40 intervals: four full blocks of 1024 and a partial fifth.
constexpr int kTiles = 103;

TEST(VarianceAnalysisTest, PooledAttributionMatchesBruteForceOnTiledTraces) {
  const std::vector<Trace> seeds = SeedTraces();
  std::vector<Reference> refs;
  for (const Trace& trace : seeds) {
    refs.push_back(BruteForce(trace));
  }
  const Trace tiled = TileRandomTraces(seeds, kTiles);
  const uint64_t worker_blocks = BlocksRunOnWorkers();
  const VarianceAnalysis va(tiled);
  ASSERT_EQ(va.interval_count(), static_cast<size_t>(kTiles * kSlots));
  ASSERT_GE(va.interval_count(), size_t{4} * 1024);

  double queue_wait_ns = 0.0;
  double blocked_wait_ns = 0.0;
  double descheduled_ns = 0.0;
  for (int k = 0; k < kTiles; ++k) {
    queue_wait_ns += refs[static_cast<size_t>(k % kSeeds)].queue_wait_ns;
    blocked_wait_ns += refs[static_cast<size_t>(k % kSeeds)].blocked_wait_ns;
    descheduled_ns += refs[static_cast<size_t>(k % kSeeds)].descheduled_ns;
  }
  EXPECT_EQ(va.total_queue_wait_ns(), queue_wait_ns);
  EXPECT_EQ(va.total_blocked_wait_ns(), blocked_wait_ns);
  EXPECT_EQ(va.total_descheduled_ns(), descheduled_ns);

  // Function nodes are numbered in order of first appearance, thread by
  // thread and record by record, as one pass over the records would.
  std::vector<std::vector<FuncId>> first_seen;
  for (const ThreadTrace& thread : tiled.threads) {
    for (std::vector<FuncId>& path : CallPaths(thread)) {
      if (std::find(first_seen.begin(), first_seen.end(), path) ==
          first_seen.end()) {
        first_seen.push_back(std::move(path));
      }
    }
  }
  size_t function_nodes = 0;
  for (size_t id = 1; id < va.node_count(); ++id) {
    if (va.node(static_cast<NodeId>(id)).is_body) {
      continue;
    }
    std::vector<FuncId> path;
    for (NodeId n = static_cast<NodeId>(id); n != kRootNode;
         n = va.node(n).parent) {
      path.insert(path.begin(), va.node(n).func);
    }
    ASSERT_LT(function_nodes, first_seen.size());
    ASSERT_EQ(path, first_seen[function_nodes]) << "node " << id;
    ++function_nodes;
    const std::span<const double> series = va.Series(static_cast<NodeId>(id));
    for (int k = 0; k < kTiles; ++k) {
      const Reference& ref = refs[static_cast<size_t>(k % kSeeds)];
      const auto it = ref.series.find(path);
      for (size_t i = 0; i < static_cast<size_t>(kSlots); ++i) {
        const double expected = it == ref.series.end() ? 0.0 : it->second[i];
        ASSERT_EQ(series[static_cast<size_t>(k * kSlots) + i], expected)
            << va.NodeLabel(static_cast<NodeId>(id)) << " tile " << k
            << " interval " << i;
      }
    }
  }
  EXPECT_EQ(function_nodes, first_seen.size());

  // Bodies, moments and covariances are computed per node on the pool.
  const auto near = [](double got, double want) {
    return std::fabs(got - want) <= 1e-9 * std::max(1.0, std::fabs(want));
  };
  const auto moment = [&](NodeId a, NodeId b) {
    const std::span<const double> x = va.Series(a);
    const std::span<const double> y = va.Series(b);
    long double sum = 0.0L;
    for (size_t i = 0; i < x.size(); ++i) {
      sum += (x[i] - va.NodeMean(a)) * (y[i] - va.NodeMean(b));
    }
    return static_cast<double>(sum / x.size());
  };
  size_t pairs = 0;
  for (size_t id = 0; id < va.node_count(); ++id) {
    const NodeId node = static_cast<NodeId>(id);
    const std::span<const double> series = va.Series(node);
    long double sum = 0.0L;
    for (const double x : series) {
      sum += x;
    }
    EXPECT_TRUE(near(va.NodeMean(node), static_cast<double>(sum / series.size())))
        << va.NodeLabel(node);
    EXPECT_TRUE(near(va.NodeVariance(node), moment(node, node)))
        << va.NodeLabel(node);
    const std::vector<NodeId>& kids = va.node(node).children;
    for (size_t a = 0; a < kids.size(); ++a) {
      for (size_t b = a + 1; b < kids.size(); ++b) {
        ASSERT_LT(pairs, va.covariances().size());
        const SiblingCovariance& c = va.covariances()[pairs++];
        EXPECT_EQ(c.parent, node);
        EXPECT_EQ(c.a, kids[a]);
        EXPECT_EQ(c.b, kids[b]);
        EXPECT_TRUE(near(c.covariance, moment(kids[a], kids[b])));
      }
    }
    if (va.node(node).is_body) {
      // Series are sums of integer nanoseconds, so the residual is exact.
      const TreeNode& parent = va.node(va.node(node).parent);
      for (size_t i = 0; i < series.size(); ++i) {
        double total = series[i];
        for (const NodeId sibling : parent.children) {
          total += sibling == node ? 0.0 : va.Series(sibling)[i];
        }
        ASSERT_EQ(total, va.Series(va.node(node).parent)[i])
            << va.NodeLabel(node) << " interval " << i;
      }
    }
  }
  EXPECT_EQ(pairs, va.covariances().size());

  // Workers wake only as fast as the host schedules them, so the caller may
  // claim every block of one analysis; some analysis must hand blocks over.
  for (int attempt = 0;
       attempt < 100 && BlocksRunOnWorkers() == worker_blocks; ++attempt) {
    ASSERT_TRUE(BitIdentical(VarianceAnalysis(tiled), va));
  }
  EXPECT_GT(BlocksRunOnWorkers(), worker_blocks);
}

TEST(VarianceAnalysisTest, ConcurrentAnalysesAreBitIdentical) {
  const Trace tiled = TileRandomTraces(SeedTraces(), kTiles);
  const VarianceAnalysis reference(tiled);
  // One caller gets the pool, the others find it busy and run inline.
  constexpr int kCallers = 4;
  std::vector<int> identical(kCallers, 0);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      identical[static_cast<size_t>(c)] =
          BitIdentical(VarianceAnalysis(tiled), reference);
    });
  }
  for (std::thread& t : callers) {
    t.join();
  }
  for (int c = 0; c < kCallers; ++c) {
    EXPECT_TRUE(identical[static_cast<size_t>(c)]) << "caller " << c;
  }
}

// --- Window sinks ---------------------------------------------------------
//
// The walk hands each window to a sink: BuildBreakdowns' stores it,
// VarianceAnalysis' attributes it as it arrives and, for a blocked span,
// decides coverage by the same overlap search.

// A caller's coverage check, independent of call nesting: a blocked span
// [lo, hi) is covered when some invocation starting before `hi` with a
// positive length ends after `lo`, i.e. when the running maximum of those
// invocations' ends, over start order, exceeds `lo`.
CriticalPathOptions PrefixMaxCoverage(const Trace& trace) {
  struct Thread {
    std::vector<TimeNs> starts;
    std::vector<TimeNs> max_end;  // over the invocations up to each start
  };
  auto threads = std::make_shared<std::map<ThreadId, Thread>>();
  for (const ThreadTrace& thread : trace.threads) {
    Thread& t = (*threads)[thread.tid];
    TimeNs max_end = std::numeric_limits<TimeNs>::min();
    for (const Invocation& inv : thread.invocations) {
      if (inv.end > inv.start) {
        max_end = std::max(max_end, inv.end);
      }
      t.starts.push_back(inv.start);
      t.max_end.push_back(max_end);
    }
  }
  CriticalPathOptions options;
  options.has_coverage = [threads](ThreadId tid, TimeNs lo, TimeNs hi) {
    const auto it = threads->find(tid);
    if (it == threads->end()) {
      return false;
    }
    const Thread& t = it->second;
    const size_t before_hi = static_cast<size_t>(
        std::lower_bound(t.starts.begin(), t.starts.end(), hi) -
        t.starts.begin());
    return before_hi > 0 && t.max_end[before_hi - 1] > lo;
  };
  return options;
}

TEST(VarianceAnalysisTest, CallerCoverageAttributesAsTheDefaultDoes) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Trace trace = RandomTrace(seed);
    EXPECT_TRUE(
        BitIdentical(VarianceAnalysis(trace, PrefixMaxCoverage(trace)),
                     VarianceAnalysis(trace)));
  }
  const Trace tiled = TileRandomTraces(SeedTraces(), kTiles);
  EXPECT_TRUE(BitIdentical(VarianceAnalysis(tiled, PrefixMaxCoverage(tiled)),
                           VarianceAnalysis(tiled)));
}

// Whether two breakdowns agree bit for bit, window for window.
bool SameBreakdown(const IntervalBreakdown& a, const IntervalBreakdown& b) {
  return a.sid == b.sid && a.begin_time == b.begin_time &&
         a.end_time == b.end_time &&
         Bits(a.queue_wait_ns) == Bits(b.queue_wait_ns) &&
         Bits(a.blocked_wait_ns) == Bits(b.blocked_wait_ns) &&
         Bits(a.descheduled_ns) == Bits(b.descheduled_ns) &&
         std::equal(a.windows.begin(), a.windows.end(), b.windows.begin(),
                    b.windows.end(), [](const PathWindow& x, const PathWindow& y) {
                      return x.tid == y.tid && x.lo == y.lo && x.hi == y.hi;
                    });
}

TEST(VarianceAnalysisTest, PooledBuildBreakdownsMatchesEachIntervalsWalk) {
  const Trace tiled = TileRandomTraces(SeedTraces(), kTiles);
  const TraceIndex index(tiled);
  ASSERT_EQ(index.Intervals().size(), static_cast<size_t>(kTiles * kSlots));
  const uint64_t worker_blocks = BlocksRunOnWorkers();
  for (const bool covered : {false, true}) {
    SCOPED_TRACE(covered ? "caller coverage" : "no coverage");
    const CriticalPathOptions options =
        covered ? PrefixMaxCoverage(tiled) : CriticalPathOptions{};
    const std::vector<IntervalBreakdown> pooled =
        BuildBreakdowns(index, options);
    ASSERT_EQ(pooled.size(), index.Intervals().size());
    size_t windows = 0;
    for (size_t i = 0; i < pooled.size(); ++i) {
      ASSERT_TRUE(SameBreakdown(
          pooled[i], BuildBreakdown(index, index.Intervals()[i], options)))
          << "interval " << i;
      windows += pooled[i].windows.size();
    }
    EXPECT_GT(windows, pooled.size());
  }
  // As in PooledAttributionMatchesBruteForceOnTiledTraces: some sweep must
  // hand blocks to a worker.
  for (int attempt = 0;
       attempt < 100 && BlocksRunOnWorkers() == worker_blocks; ++attempt) {
    const std::vector<IntervalBreakdown> again = BuildBreakdowns(index);
    for (size_t i = 0; i < again.size(); ++i) {
      ASSERT_TRUE(SameBreakdown(
          again[i], BuildBreakdown(index, index.Intervals()[i])));
    }
  }
  EXPECT_GT(BlocksRunOnWorkers(), worker_blocks);
}

}  // namespace
}  // namespace vprof
