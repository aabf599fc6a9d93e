#include "src/vprof/full_tracer.h"

#include <memory>
#include <mutex>
#include <vector>

#include "src/vprof/fastclock.h"
#include "src/vprof/registry.h"

namespace vprof {

namespace {

// Per-thread event ring. 2^15 events * 24B ≈ 0.75 MiB per recording thread.
constexpr size_t kRingCapacity = 1u << 15;

struct alignas(kCacheLineSize) Ring {
  // Monotonic count of events ever pushed; slot = head % capacity. Only the
  // owner thread writes slots; collectors read `head` (and the seen-bitmap)
  // through atomics, and read slots only under external quiescence.
  std::atomic<uint64_t> head{0};
  // Bitmap of FuncIds recorded by this thread, for lock-free distinct-symbol
  // stats even while recording continues.
  std::atomic<uint64_t> seen[kMaxFunctions / 64]{};
  FullTraceEvent events[kRingCapacity];

  void Push(FuncId func, bool entry) {
    const uint64_t n = head.load(std::memory_order_relaxed);
    FullTraceEvent& slot = events[n % kRingCapacity];
    slot.name_hash = FunctionNameHash(func);
    slot.time = fastclock::NowNs();
    slot.func = func;
    slot.entry = entry;
    head.store(n + 1, std::memory_order_release);
    if (func < kMaxFunctions) {
      const uint64_t bit = 1ull << (func & 63);
      // Avoid the RMW when the bit is already set (the common case).
      if ((seen[func >> 6].load(std::memory_order_relaxed) & bit) == 0) {
        seen[func >> 6].fetch_or(bit, std::memory_order_relaxed);
      }
    }
  }
};

struct TracerState {
  std::mutex mu;  // guards `rings` growth only; never taken on the hot path
  std::vector<std::unique_ptr<Ring>> rings;
};

TracerState& State() {
  static TracerState* state = new TracerState();
  return *state;
}

thread_local Ring* tls_ring = nullptr;

Ring* CurrentRing() {
  if (tls_ring == nullptr) {
    TracerState& state = State();
    std::lock_guard<std::mutex> lock(state.mu);
    state.rings.push_back(std::make_unique<Ring>());
    tls_ring = state.rings.back().get();
  }
  return tls_ring;
}

}  // namespace

void FullTracerOnEntry(FuncId func) { CurrentRing()->Push(func, true); }
void FullTracerOnExit(FuncId func) { CurrentRing()->Push(func, false); }

FullTraceStats GetFullTracerStats() {
  TracerState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  FullTraceStats stats;
  uint64_t distinct[kMaxFunctions / 64] = {};
  for (const auto& ring : state.rings) {
    const uint64_t head = ring->head.load(std::memory_order_acquire);
    if (head == 0) {
      continue;
    }
    ++stats.threads;
    stats.events += head;
    stats.dropped += head > kRingCapacity ? head - kRingCapacity : 0;
    for (size_t w = 0; w < kMaxFunctions / 64; ++w) {
      distinct[w] |= ring->seen[w].load(std::memory_order_relaxed);
    }
  }
  for (const uint64_t word : distinct) {
    stats.distinct_functions += static_cast<uint64_t>(__builtin_popcountll(word));
  }
  return stats;
}

void ResetFullTracer() {
  TracerState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  for (auto& ring : state.rings) {
    ring->head.store(0, std::memory_order_relaxed);
    for (auto& word : ring->seen) {
      word.store(0, std::memory_order_relaxed);
    }
  }
}

}  // namespace vprof
