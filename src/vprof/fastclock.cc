#include "src/vprof/fastclock.h"

#include <atomic>
#include <chrono>

#if defined(__x86_64__) || defined(_M_X64)
#include <cpuid.h>
#include <x86intrin.h>
#define VPROF_HAVE_RDTSC 1
#endif

namespace vprof {
namespace fastclock {

namespace {

using Chrono = std::chrono::steady_clock;

// Ticks→ns conversion is a Q32.32 fixed-point multiply: at 1–5 GHz the
// multiplier is ~0.2–1.0 ns/tick, and the 128-bit product keeps full
// precision for deltas of many days.
constexpr int kFracBits = 32;

// ns_per_tick in Q32.32; 0 while uncalibrated (or on the chrono fallback,
// where ticks already are nanoseconds and the multiplier is exactly 1.0).
std::atomic<uint64_t> g_ns_per_tick_q32{0};
std::atomic<uint64_t> g_epoch_ticks{0};
std::atomic<bool> g_using_tsc{false};

// Chrono-fallback epoch, ns since steady_clock's own epoch.
std::atomic<int64_t> g_chrono_epoch_ns{0};

int64_t ChronoNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Chrono::now().time_since_epoch())
      .count();
}

#ifdef VPROF_HAVE_RDTSC
bool HasInvariantTsc() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(0x80000000u, &eax, &ebx, &ecx, &edx) == 0 ||
      eax < 0x80000007u) {
    return false;
  }
  __get_cpuid(0x80000007u, &eax, &ebx, &ecx, &edx);
  return (edx & (1u << 8)) != 0;  // "Invariant TSC" bit
}
#endif

// One-time calibration. Runs from a static initializer; InitOnce() also
// guards against Now() being reached from another TU's static init first.
void Calibrate() {
#ifdef VPROF_HAVE_RDTSC
  if (HasInvariantTsc()) {
    // Two (chrono, tsc) sample pairs ~10ms apart. The busy-wait keeps both
    // samples on-core and is short enough not to slow process startup.
    const int64_t c0 = ChronoNs();
    const uint64_t t0 = __rdtsc();
    const int64_t target = c0 + 10'000'000;
    int64_t c1 = c0;
    while (c1 < target) {
      c1 = ChronoNs();
    }
    const uint64_t t1 = __rdtsc();
    if (t1 > t0 && c1 > c0) {
      const double ns_per_tick =
          static_cast<double>(c1 - c0) / static_cast<double>(t1 - t0);
      g_using_tsc.store(true, std::memory_order_relaxed);
      g_epoch_ticks.store(t1, std::memory_order_relaxed);
      g_ns_per_tick_q32.store(
          static_cast<uint64_t>(ns_per_tick * (1ull << kFracBits)),
          std::memory_order_relaxed);
      return;
    }
  }
#endif
  g_chrono_epoch_ns.store(ChronoNs(), std::memory_order_relaxed);
  g_ns_per_tick_q32.store(1ull << kFracBits, std::memory_order_relaxed);
}

void InitOnce() {
  if (g_ns_per_tick_q32.load(std::memory_order_relaxed) == 0) {
    Calibrate();
  }
}

struct CalibrateAtStartup {
  CalibrateAtStartup() { InitOnce(); }
};
CalibrateAtStartup g_startup_calibration;

}  // namespace

TimeNs NowNs() {
  const uint64_t mult = g_ns_per_tick_q32.load(std::memory_order_relaxed);
  if (mult == 0) [[unlikely]] {
    InitOnce();
    return NowNs();
  }
#ifdef VPROF_HAVE_RDTSC
  if (g_using_tsc.load(std::memory_order_relaxed)) {
    const uint64_t delta =
        __rdtsc() - g_epoch_ticks.load(std::memory_order_relaxed);
    return static_cast<TimeNs>(
        (static_cast<unsigned __int128>(delta) * mult) >> kFracBits);
  }
#endif
  return ChronoNs() - g_chrono_epoch_ns.load(std::memory_order_relaxed);
}

void ResetEpoch() {
  InitOnce();
#ifdef VPROF_HAVE_RDTSC
  if (g_using_tsc.load(std::memory_order_relaxed)) {
    g_epoch_ticks.store(__rdtsc(), std::memory_order_relaxed);
    return;
  }
#endif
  g_chrono_epoch_ns.store(ChronoNs(), std::memory_order_relaxed);
}

}  // namespace fastclock
}  // namespace vprof
