#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/vprof/analysis/critical_path.h"
#include "src/vprof/analysis/pool.h"
#include "src/vprof/analysis/variance_tree.h"
#include "src/vprof/trace.h"
#include "tests/vprof/trace_builder.h"

namespace vprof {
namespace {

using vprof_test::TraceBuilder;

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::vector<char> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  std::vector<char> bytes(static_cast<size_t>(std::ftell(f)));
  std::fseek(f, 0, SEEK_SET);
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  return bytes;
}

void WriteFile(const std::string& path, const std::vector<char>& bytes,
               size_t count) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, count, f), count);
  std::fclose(f);
}

// A small but structurally complete trace: names, two threads, all three
// record vectors populated.
Trace MakeSampleTrace() {
  TraceBuilder tb;
  tb.Begin(0, 1, 10, /*label=*/3).End(0, 1, 500);
  tb.Exec(0, 1, 10, 200).Blocked(0, 1, 200, 400, 1, 400).Exec(0, 1, 400, 500);
  const int parent = tb.Invoke(0, "io_root", 10, 490, -1, 1);
  tb.Invoke(0, "io_child", 20, 120, parent, 1);
  tb.ExecGenerated(1, 1, 0, 10, 0, 5);
  return tb.Build(9876);
}

TEST(TraceIoTest, RoundTrip) {
  TraceBuilder tb;
  tb.Begin(0, 1, 10, /*label=*/7).End(0, 1, 500);
  tb.Exec(0, 1, 10, 200).Blocked(0, 1, 200, 400, 1, 400).Exec(0, 1, 400, 500);
  const int parent = tb.Invoke(0, "io_root", 10, 490, -1, 1);
  tb.Invoke(0, "io_child", 20, 120, parent, 1);
  tb.ExecGenerated(1, 1, 0, 10, 0, 5);
  tb.ExecCompletion(1, 1, 10, 20, 0, 8);
  const Trace original = tb.Build(12345);

  const std::string path = TempPath("trace_roundtrip.bin");
  ASSERT_TRUE(SaveTrace(original, path));
  Trace loaded;
  ASSERT_TRUE(LoadTrace(path, &loaded));

  EXPECT_EQ(loaded.duration, original.duration);
  EXPECT_EQ(loaded.function_names, original.function_names);
  ASSERT_EQ(loaded.threads.size(), original.threads.size());
  for (size_t i = 0; i < loaded.threads.size(); ++i) {
    const ThreadTrace& a = loaded.threads[i];
    const ThreadTrace& b = original.threads[i];
    EXPECT_EQ(a.tid, b.tid);
    ASSERT_EQ(a.invocations.size(), b.invocations.size());
    for (size_t j = 0; j < a.invocations.size(); ++j) {
      EXPECT_EQ(a.invocations[j].start, b.invocations[j].start);
      EXPECT_EQ(a.invocations[j].end, b.invocations[j].end);
      EXPECT_EQ(a.invocations[j].func, b.invocations[j].func);
      EXPECT_EQ(a.invocations[j].parent, b.invocations[j].parent);
      EXPECT_EQ(a.invocations[j].sid, b.invocations[j].sid);
    }
    ASSERT_EQ(a.segments.size(), b.segments.size());
    for (size_t j = 0; j < a.segments.size(); ++j) {
      EXPECT_EQ(a.segments[j].start, b.segments[j].start);
      EXPECT_EQ(a.segments[j].state, b.segments[j].state);
      EXPECT_EQ(a.segments[j].edge_kind, b.segments[j].edge_kind);
      EXPECT_EQ(a.segments[j].waker_tid, b.segments[j].waker_tid);
      EXPECT_EQ(a.segments[j].generator_tid, b.segments[j].generator_tid);
    }
    ASSERT_EQ(a.interval_events.size(), b.interval_events.size());
    for (size_t j = 0; j < a.interval_events.size(); ++j) {
      EXPECT_EQ(a.interval_events[j].sid, b.interval_events[j].sid);
      EXPECT_EQ(a.interval_events[j].label, b.interval_events[j].label);
    }
  }
}

template <typename T>
void FillWithAB(std::vector<T>* records) {
  if (!records->empty()) {
    std::memset(static_cast<void*>(records->data()), 0xAB,
                records->size() * sizeof(T));
  }
}

// A copy of `clean` whose record storage was filled with 0xAB before each
// field was written back, so every padding byte in it holds 0xAB.
Trace WithDirtyPadding(const Trace& clean) {
  Trace dirty = clean;
  for (size_t t = 0; t < dirty.threads.size(); ++t) {
    const ThreadTrace& c = clean.threads[t];
    ThreadTrace& d = dirty.threads[t];
    FillWithAB(&d.invocations);
    for (size_t i = 0; i < c.invocations.size(); ++i) {
      d.invocations[i].start = c.invocations[i].start;
      d.invocations[i].end = c.invocations[i].end;
      d.invocations[i].func = c.invocations[i].func;
      d.invocations[i].parent = c.invocations[i].parent;
      d.invocations[i].sid = c.invocations[i].sid;
    }
    FillWithAB(&d.segments);
    for (size_t i = 0; i < c.segments.size(); ++i) {
      d.segments[i].start = c.segments[i].start;
      d.segments[i].end = c.segments[i].end;
      d.segments[i].sid = c.segments[i].sid;
      d.segments[i].state = c.segments[i].state;
      d.segments[i].edge_kind = c.segments[i].edge_kind;
      d.segments[i].waker_tid = c.segments[i].waker_tid;
      d.segments[i].waker_time = c.segments[i].waker_time;
      d.segments[i].generator_tid = c.segments[i].generator_tid;
      d.segments[i].generator_time = c.segments[i].generator_time;
    }
    FillWithAB(&d.interval_events);
    for (size_t i = 0; i < c.interval_events.size(); ++i) {
      d.interval_events[i].sid = c.interval_events[i].sid;
      d.interval_events[i].time = c.interval_events[i].time;
      d.interval_events[i].kind = c.interval_events[i].kind;
      d.interval_events[i].label = c.interval_events[i].label;
    }
  }
  return dirty;
}

TEST(TraceIoTest, PaddingBytesNeverReachTheFile) {
  const Trace clean = MakeSampleTrace();
  const Trace dirty = WithDirtyPadding(clean);
  // The records differ from the clean copy, but only in their padding.
  ASSERT_NE(std::memcmp(dirty.threads[0].segments.data(),
                        clean.threads[0].segments.data(),
                        clean.threads[0].segments.size() * sizeof(Segment)),
            0);
  ASSERT_NE(std::memcmp(dirty.threads[0].interval_events.data(),
                        clean.threads[0].interval_events.data(),
                        clean.threads[0].interval_events.size() *
                            sizeof(IntervalEvent)),
            0);

  const std::string clean_path = TempPath("padding_clean.bin");
  const std::string dirty_path = TempPath("padding_dirty.bin");
  ASSERT_TRUE(SaveTrace(clean, clean_path));
  ASSERT_TRUE(SaveTrace(dirty, dirty_path));
  EXPECT_EQ(ReadFile(clean_path), ReadFile(dirty_path));
  Trace loaded;
  ASSERT_EQ(LoadTraceChecked(dirty_path, &loaded), TraceLoadStatus::kOk);
  EXPECT_EQ(loaded.threads[0].segments[1].waker_time, 400);
}

TEST(TraceIoTest, LoadRejectsMissingFile) {
  Trace trace;
  EXPECT_FALSE(LoadTrace(TempPath("does_not_exist.bin"), &trace));
}

TEST(TraceIoTest, LoadRejectsGarbage) {
  const std::string path = TempPath("garbage.bin");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("not a trace", f);
  std::fclose(f);
  Trace trace;
  EXPECT_FALSE(LoadTrace(path, &trace));
}

TEST(TraceIoTest, EmptyTraceRoundTrips) {
  Trace empty;
  empty.duration = 7;
  const std::string path = TempPath("empty.bin");
  ASSERT_TRUE(SaveTrace(empty, path));
  Trace loaded;
  ASSERT_TRUE(LoadTrace(path, &loaded));
  EXPECT_EQ(loaded.duration, 7);
  EXPECT_TRUE(loaded.threads.empty());
}

TEST(TraceIoTest, CheckedLoadReportsOpenFailed) {
  Trace trace;
  EXPECT_EQ(LoadTraceChecked(TempPath("missing_checked.bin"), &trace),
            TraceLoadStatus::kOpenFailed);
}

TEST(TraceIoTest, CheckedLoadReportsBadMagicAndVersion) {
  const std::string path = TempPath("patched_header.bin");
  ASSERT_TRUE(SaveTrace(MakeSampleTrace(), path));
  std::vector<char> bytes = ReadFile(path);

  std::vector<char> bad_magic = bytes;
  bad_magic[0] ^= 0x5a;
  WriteFile(path, bad_magic, bad_magic.size());
  Trace trace;
  EXPECT_EQ(LoadTraceChecked(path, &trace), TraceLoadStatus::kBadMagic);

  std::vector<char> bad_version = bytes;
  bad_version[4] = 99;  // version field follows the 4-byte magic
  WriteFile(path, bad_version, bad_version.size());
  EXPECT_EQ(LoadTraceChecked(path, &trace), TraceLoadStatus::kBadVersion);
}

TEST(TraceIoTest, TruncationAtEveryOffsetIsTyped) {
  // Chop the file at every byte offset: each prefix must load as kTruncated
  // (never kOk, never a crash or partial result).
  const std::string full_path = TempPath("trunc_full.bin");
  ASSERT_TRUE(SaveTrace(MakeSampleTrace(), full_path));
  const std::vector<char> bytes = ReadFile(full_path);
  ASSERT_GT(bytes.size(), 16u);

  const std::string cut_path = TempPath("trunc_cut.bin");
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    WriteFile(cut_path, bytes, cut);
    Trace trace;
    trace.duration = 42;  // must be wiped on failure
    EXPECT_EQ(LoadTraceChecked(cut_path, &trace), TraceLoadStatus::kTruncated)
        << "at offset " << cut << " of " << bytes.size();
    EXPECT_EQ(trace.duration, 0) << "partial state leaked at offset " << cut;
    EXPECT_TRUE(trace.threads.empty());
  }
  // Sanity: the untruncated file still loads.
  Trace trace;
  EXPECT_EQ(LoadTraceChecked(full_path, &trace), TraceLoadStatus::kOk);
}

TEST(TraceIoTest, OversizedLengthFieldIsTruncatedNotOom) {
  // A corrupt vector-length field claiming more data than the file holds
  // must fail cleanly (bounded by file size) instead of allocating wildly.
  const std::string path = TempPath("huge_len.bin");
  ASSERT_TRUE(SaveTrace(MakeSampleTrace(), path));
  std::vector<char> bytes = ReadFile(path);
  // The function-name count sits after magic(4) + version(4) + duration(8).
  // Within the kMaxFunctions cap (which would be kCorrupt) but far more
  // entries than the file can hold.
  const uint64_t huge = 4000;
  std::memcpy(bytes.data() + 16, &huge, sizeof(huge));
  WriteFile(path, bytes, bytes.size());
  Trace trace;
  EXPECT_EQ(LoadTraceChecked(path, &trace), TraceLoadStatus::kTruncated);
}

TEST(TraceIoTest, CorruptInvocationFuncIsRejected) {
  TraceBuilder tb;
  tb.Begin(0, 1, 0).End(0, 1, 100);
  tb.Invoke(0, "corrupt_func_test", 0, 50, -1, 1);
  Trace trace = tb.Build();
  trace.threads[0].invocations[0].func =
      static_cast<FuncId>(trace.function_names.size() + 7);
  const std::string path = TempPath("bad_func.bin");
  ASSERT_TRUE(SaveTrace(trace, path));
  Trace loaded;
  EXPECT_EQ(LoadTraceChecked(path, &loaded), TraceLoadStatus::kCorrupt);
  EXPECT_FALSE(LoadTrace(path, &loaded));
}

TEST(TraceIoTest, ForwardOrSelfParentIsRejected) {
  TraceBuilder tb;
  tb.Begin(0, 1, 0).End(0, 1, 100);
  tb.Invoke(0, "corrupt_parent_test", 0, 50, -1, 1);
  Trace trace = tb.Build();
  trace.threads[0].invocations[0].parent = 0;  // self-parent: a cycle
  const std::string path = TempPath("bad_parent.bin");
  ASSERT_TRUE(SaveTrace(trace, path));
  Trace loaded;
  EXPECT_EQ(LoadTraceChecked(path, &loaded), TraceLoadStatus::kCorrupt);
}

TEST(TraceIoTest, InvalidSegmentStateIsRejected) {
  TraceBuilder tb;
  tb.Begin(0, 1, 0).End(0, 1, 100);
  tb.Exec(0, 1, 0, 100);
  Trace trace = tb.Build();
  trace.threads[0].segments[0].state = static_cast<SegmentState>(7);
  const std::string path = TempPath("bad_state.bin");
  ASSERT_TRUE(SaveTrace(trace, path));
  Trace loaded;
  EXPECT_EQ(LoadTraceChecked(path, &loaded), TraceLoadStatus::kCorrupt);
}

TEST(TraceIoTest, InvalidEdgeKindIsRejected) {
  TraceBuilder tb;
  tb.Begin(0, 1, 0).End(0, 1, 100);
  tb.Exec(0, 1, 0, 100);
  Trace trace = tb.Build();
  trace.threads[0].segments[0].edge_kind = static_cast<EdgeKind>(2);
  const std::string path = TempPath("bad_edge_kind.bin");
  ASSERT_TRUE(SaveTrace(trace, path));
  Trace loaded;
  EXPECT_EQ(LoadTraceChecked(path, &loaded), TraceLoadStatus::kCorrupt);
}

// A v2 file has the v3 layout, with padding where v3 keeps the edge kind:
// whatever that byte holds, every edge loads as created-by, and the trace
// analyses as it did before v3.
TEST(TraceIoTest, Version2FileLoadsAndAnalysesAsBefore) {
  const Trace original = MakeSampleTrace();
  Trace stray = original;
  for (ThreadTrace& thread : stray.threads) {
    for (Segment& seg : thread.segments) {
      seg.edge_kind = EdgeKind::kCompletion;  // a nonzero padding byte
    }
  }
  const std::string path = TempPath("trace_v2.bin");
  ASSERT_TRUE(SaveTrace(stray, path));
  std::vector<char> bytes = ReadFile(path);
  ASSERT_EQ(bytes[4], 3);  // the version follows the 4-byte magic
  bytes[4] = 2;
  WriteFile(path, bytes, bytes.size());

  Trace loaded;
  ASSERT_EQ(LoadTraceChecked(path, &loaded), TraceLoadStatus::kOk);
  ASSERT_EQ(loaded.threads.size(), original.threads.size());
  for (size_t t = 0; t < loaded.threads.size(); ++t) {
    ASSERT_EQ(loaded.threads[t].segments.size(),
              original.threads[t].segments.size());
    for (const Segment& seg : loaded.threads[t].segments) {
      EXPECT_EQ(seg.edge_kind, EdgeKind::kCreatedBy);
    }
  }
  const TraceIndex loaded_index(loaded);
  const TraceIndex original_index(original);
  const std::vector<IntervalBreakdown> a = BuildBreakdowns(loaded_index);
  const std::vector<IntervalBreakdown> b = BuildBreakdowns(original_index);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a[0].queue_wait_ns, b[0].queue_wait_ns);
  EXPECT_EQ(a[0].blocked_wait_ns, b[0].blocked_wait_ns);
  ASSERT_EQ(a[0].windows.size(), b[0].windows.size());
  for (size_t i = 0; i < a[0].windows.size(); ++i) {
    EXPECT_EQ(a[0].windows[i].tid, b[0].windows[i].tid);
    EXPECT_EQ(a[0].windows[i].lo, b[0].windows[i].lo);
    EXPECT_EQ(a[0].windows[i].hi, b[0].windows[i].hi);
  }
  const VarianceAnalysis va_loaded(loaded);
  const VarianceAnalysis va_original(original);
  ASSERT_EQ(va_loaded.node_count(), va_original.node_count());
  for (size_t n = 0; n < va_loaded.node_count(); ++n) {
    const NodeId id = static_cast<NodeId>(n);
    EXPECT_EQ(va_loaded.NodeLabel(id), va_original.NodeLabel(id));
    EXPECT_EQ(va_loaded.Series(id)[0], va_original.Series(id)[0]);
  }
}

TEST(TraceIoTest, InvalidIntervalEventKindIsRejected) {
  TraceBuilder tb;
  tb.Begin(0, 1, 0).End(0, 1, 100);
  Trace trace = tb.Build();
  trace.threads[0].interval_events[0].kind = static_cast<IntervalEventKind>(9);
  const std::string path = TempPath("bad_kind.bin");
  ASSERT_TRUE(SaveTrace(trace, path));
  Trace loaded;
  EXPECT_EQ(LoadTraceChecked(path, &loaded), TraceLoadStatus::kCorrupt);
}

// Threads 0..threads-1, each with one interval and `invocations` records,
// every record after the first linked to the first.
Trace MakeWideTrace(int threads, size_t invocations) {
  TraceBuilder tb;
  tb.Func("wide_root");
  const FuncId func = tb.Func("wide_leaf");
  for (ThreadId tid = 0; tid < threads; ++tid) {
    tb.Begin(tid, static_cast<IntervalId>(tid + 1), 0)
        .End(tid, static_cast<IntervalId>(tid + 1), 100);
    tb.Exec(tid, static_cast<IntervalId>(tid + 1), 0, 100);
    std::vector<Invocation>& records = tb.Thread(tid).invocations;
    for (size_t i = 0; i < invocations; ++i) {
      Invocation inv;
      inv.start = static_cast<TimeNs>(i);
      inv.end = static_cast<TimeNs>(i + 1);
      inv.func = func;
      inv.parent = i == 0 ? -1 : 0;
      records.push_back(inv);
    }
  }
  return tb.Build();
}

TEST(TraceIoTest, BadFieldInTheLastThreadIsCorruptAndClears) {
  // The first thread's records keep the caller busy while the pool's
  // workers take the later vectors, the last thread's among them.
  Trace trace = MakeWideTrace(4, 200000);
  trace.threads.back().invocations.back().parent = 1 << 30;  // forward link
  const std::string path = TempPath("bad_last_thread.bin");
  ASSERT_TRUE(SaveTrace(trace, path));
  const uint64_t worker_blocks = BlocksRunOnWorkers();
  for (int attempt = 0;
       attempt < 20 && BlocksRunOnWorkers() == worker_blocks; ++attempt) {
    Trace loaded;
    loaded.duration = 42;  // must be wiped on failure
    EXPECT_EQ(LoadTraceChecked(path, &loaded), TraceLoadStatus::kCorrupt);
    EXPECT_EQ(loaded.duration, 0);
    EXPECT_TRUE(loaded.threads.empty());
    EXPECT_TRUE(loaded.function_names.empty());
  }
  EXPECT_GT(BlocksRunOnWorkers(), worker_blocks);

  // Repaired, the same file loads in full.
  trace.threads.back().invocations.back().parent = 0;
  ASSERT_TRUE(SaveTrace(trace, path));
  Trace loaded;
  ASSERT_EQ(LoadTraceChecked(path, &loaded), TraceLoadStatus::kOk);
  ASSERT_EQ(loaded.threads.size(), 4u);
  EXPECT_EQ(loaded.threads.back().invocations.size(), 200000u);
  EXPECT_EQ(loaded.threads.back().invocations.back().end, 200000);
}

TEST(TraceIoTest, TruncationOutranksABadField) {
  // Every length is checked before any record's fields, so a bad field in
  // the first thread does not hide a file cut short in the last one.
  Trace trace = MakeWideTrace(2, 10);
  trace.threads[0].segments[0].state = static_cast<SegmentState>(7);
  const std::string path = TempPath("truncated_and_corrupt.bin");
  ASSERT_TRUE(SaveTrace(trace, path));
  const std::vector<char> bytes = ReadFile(path);
  WriteFile(path, bytes, bytes.size() - 1);
  Trace loaded;
  EXPECT_EQ(LoadTraceChecked(path, &loaded), TraceLoadStatus::kTruncated);
  EXPECT_TRUE(loaded.threads.empty());
  WriteFile(path, bytes, bytes.size());
  EXPECT_EQ(LoadTraceChecked(path, &loaded), TraceLoadStatus::kCorrupt);
}

TEST(TraceIoTest, StatusNamesAreStable) {
  EXPECT_STREQ(TraceLoadStatusName(TraceLoadStatus::kOk), "ok");
  EXPECT_STREQ(TraceLoadStatusName(TraceLoadStatus::kOpenFailed),
               "open_failed");
  EXPECT_STREQ(TraceLoadStatusName(TraceLoadStatus::kBadMagic), "bad_magic");
  EXPECT_STREQ(TraceLoadStatusName(TraceLoadStatus::kBadVersion),
               "bad_version");
  EXPECT_STREQ(TraceLoadStatusName(TraceLoadStatus::kTruncated), "truncated");
  EXPECT_STREQ(TraceLoadStatusName(TraceLoadStatus::kCorrupt), "corrupt");
}

TEST(TraceCountsTest, CountsSumAcrossThreads) {
  TraceBuilder tb;
  tb.Begin(0, 1, 0).End(0, 1, 10);
  tb.Begin(1, 2, 0).End(1, 2, 10);
  tb.Exec(0, 1, 0, 10).Exec(1, 2, 0, 10);
  tb.Invoke(0, "c_f", 0, 5);
  const Trace trace = tb.Build();
  EXPECT_EQ(trace.invocation_count(), 1u);
  EXPECT_EQ(trace.segment_count(), 2u);
  EXPECT_EQ(trace.interval_count(), 2u);
}

}  // namespace
}  // namespace vprof
