// Self-healing supervision for the always-on profiling service.
//
// vprofd must never make a sick system sicker. The Supervisor watches the
// service's own health gauges — rotation gaps, tracer arena drops, stuck
// threads, history append errors — one observation per epoch, and walks an
// escalation ladder when they stay bad:
//
//   Normal      full profiling: every knob at its configured value.
//   Degraded    profiling keeps running but sheds load: epochs lengthen
//               (fewer rotations per second) and the refinement controller
//               is frozen so the probe set stops growing.
//   Quarantined tracing is turned off entirely. The served workload runs
//               untouched; the harvester keeps rotating (empty epochs) so
//               health keeps being observed and the service can come back.
//
// Transitions use hysteresis in both directions: `escalate_after`
// consecutive unhealthy epochs move one level down the ladder,
// `restore_after` consecutive healthy epochs move one level back up. A
// quarantined service produces healthy (empty) epochs by construction, so
// restoration is automatic once the underlying pressure clears — the ladder
// then re-enters Degraded, and only re-reaches Normal if health holds.
//
// The Supervisor itself is engine-agnostic state machinery; Vprofd feeds it
// per-epoch deltas and applies its knobs to the harvester and controller
// (see vprofd.cc). State transitions are persisted to the history store as
// the "health:supervisor_state" series and exported as the
// vprofd_supervisor_state Prometheus gauge.
#ifndef SRC_VPROF_SERVICE_SUPERVISOR_H_
#define SRC_VPROF_SERVICE_SUPERVISOR_H_

#include <atomic>
#include <cstdint>
#include <mutex>

namespace vprof {

enum class SupervisorState : uint8_t {
  kNormal = 0,
  kDegraded = 1,
  kQuarantined = 2,
};

// Per-epoch health deltas (not cumulative counters): how much each gauge
// moved during the epoch being observed.
struct EpochHealth {
  uint64_t rotation_gap_ns = 0;        // tracing-off gap of this rotation
  uint64_t dropped_records = 0;        // tracer arena-cap drops this epoch
  uint64_t stuck_threads = 0;          // threads quarantined this epoch
  uint64_t history_append_errors = 0;  // failed history appends this epoch
};

struct SupervisorOptions {
  // An epoch is unhealthy when its rotation gap exceeds this, or when it
  // dropped any record, quarantined any thread or failed any history append.
  uint64_t max_rotation_gap_ns = 50'000'000;  // half the default epoch

  // Hysteresis: consecutive unhealthy epochs before stepping one level down
  // the ladder, and consecutive healthy epochs before stepping one back up.
  int escalate_after = 2;
  int restore_after = 4;

  // Degraded-state knob; it also applies in Quarantined (rotations are
  // cheap there, but there is no reason to hurry them). Off Normal, the
  // controller is always frozen.
  double degraded_epoch_multiplier = 4.0;
};

struct SupervisorStatus {
  SupervisorState state = SupervisorState::kNormal;
  uint64_t epochs_observed = 0;
  uint64_t unhealthy_epochs = 0;
  uint64_t escalations = 0;    // downward transitions
  uint64_t restorations = 0;   // upward transitions
  int unhealthy_streak = 0;
  int healthy_streak = 0;
};

class Supervisor {
 public:
  explicit Supervisor(SupervisorOptions options = {});

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  // Feeds one epoch's health deltas; returns true when the state changed.
  // Called once per epoch from the harvester sink.
  bool Observe(const EpochHealth& health);

  SupervisorState state() const {
    return state_.load(std::memory_order_acquire);
  }

  // Knobs under the current state, read by Vprofd after each Observe.
  bool tracing_enabled() const {
    return state() != SupervisorState::kQuarantined;
  }
  double epoch_multiplier() const {
    return state() == SupervisorState::kNormal
               ? 1.0
               : options_.degraded_epoch_multiplier;
  }
  bool controller_enabled() const {
    return state() == SupervisorState::kNormal;
  }

  SupervisorStatus status() const;
  const SupervisorOptions& options() const { return options_; }

 private:
  bool Unhealthy(const EpochHealth& health) const;

  const SupervisorOptions options_;
  std::atomic<SupervisorState> state_{SupervisorState::kNormal};

  mutable std::mutex mu_;
  SupervisorStatus status_;  // guarded by mu_ (state mirrored in state_)
};

}  // namespace vprof

#endif  // SRC_VPROF_SERVICE_SUPERVISOR_H_
