// Calibrated TSC-based fast clock for the probe hot path.
//
// Reading std::chrono::steady_clock costs a vDSO call plus a division on
// every sample; a probe pays it twice. On x86-64 with an invariant TSC
// (constant_tsc + nonstop_tsc, standard on anything built this decade) the
// cycle counter is a monotonic clock already, so we read it directly with
// rdtsc and convert ticks to nanoseconds with a fixed-point multiplier
// calibrated once against steady_clock at startup. When the invariant TSC is
// unavailable (non-x86, or an exotic hypervisor that masks the CPUID bit) the
// same entry points transparently fall back to steady_clock, so callers never
// branch on the platform.
//
// All mutable state is relaxed atomics: plain loads/stores on x86, and clean
// under -fsanitize=thread. Cross-thread ordering of epoch resets is provided
// by the runtime's tracing handshake, not by this clock.
#ifndef SRC_VPROF_FASTCLOCK_H_
#define SRC_VPROF_FASTCLOCK_H_

#include <cstdint>

#include "src/vprof/types.h"

namespace vprof {
namespace fastclock {

// Nanoseconds since the last ResetEpoch() (or since startup calibration).
// Safe to call from any thread at any time, including before main().
TimeNs NowNs();

// Re-anchors NowNs() to zero. Called by StartTracing while all recording
// threads are quiescent, so runs report run-relative timestamps.
void ResetEpoch();

}  // namespace fastclock
}  // namespace vprof

#endif  // SRC_VPROF_FASTCLOCK_H_
