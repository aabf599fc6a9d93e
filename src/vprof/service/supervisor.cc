#include "src/vprof/service/supervisor.h"

namespace vprof {

Supervisor::Supervisor(SupervisorOptions options) : options_(options) {}

bool Supervisor::Unhealthy(const EpochHealth& health) const {
  return health.rotation_gap_ns > options_.max_rotation_gap_ns ||
         health.dropped_records > 0 || health.stuck_threads > 0 ||
         health.history_append_errors > 0;
}

bool Supervisor::Observe(const EpochHealth& health) {
  std::lock_guard<std::mutex> lock(mu_);
  ++status_.epochs_observed;
  const bool unhealthy = Unhealthy(health);
  if (unhealthy) {
    ++status_.unhealthy_epochs;
    ++status_.unhealthy_streak;
    status_.healthy_streak = 0;
  } else {
    ++status_.healthy_streak;
    status_.unhealthy_streak = 0;
  }

  SupervisorState next = status_.state;
  if (unhealthy && status_.unhealthy_streak >= options_.escalate_after &&
      status_.state != SupervisorState::kQuarantined) {
    next = status_.state == SupervisorState::kNormal
               ? SupervisorState::kDegraded
               : SupervisorState::kQuarantined;
    ++status_.escalations;
  } else if (!unhealthy && status_.healthy_streak >= options_.restore_after &&
             status_.state != SupervisorState::kNormal) {
    next = status_.state == SupervisorState::kQuarantined
               ? SupervisorState::kDegraded
               : SupervisorState::kNormal;
    ++status_.restorations;
  }

  if (next == status_.state) {
    return false;
  }
  // One level per trip of the hysteresis window: reset both streaks so the
  // next transition needs fresh evidence at the new level.
  status_.unhealthy_streak = 0;
  status_.healthy_streak = 0;
  status_.state = next;
  state_.store(next, std::memory_order_release);
  return true;
}

SupervisorStatus Supervisor::status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return status_;
}

}  // namespace vprof
