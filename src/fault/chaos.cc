#include "src/fault/chaos.h"

#include <algorithm>
#include <cstdio>

#include "src/statkit/rng.h"

namespace fault {

namespace {

// Probability-trigger intensity range for armed faults.
constexpr double kMinProbability = 0.02;
constexpr double kMaxProbability = 0.35;

// Whether a failpoint consumes a Trigger payload (byte offsets for torn /
// mid-batch sites); those get one-shot valued triggers so the value is spent
// on a single deterministic firing.
bool WantsValue(const std::string& name) {
  return name.find("mid_batch") != std::string::npos ||
         name.find("torn_write") != std::string::npos;
}

Trigger PickTrigger(statkit::Rng& rng, const ChaosOptions& options,
                    const std::string& failpoint) {
  if (options.value_bound > 0 && WantsValue(failpoint)) {
    return Trigger::OneShotWithValue(rng.NextBelow(options.value_bound),
                                     rng.NextBelow(4));
  }
  const uint64_t roll = rng.NextBelow(10);
  if (roll < 4) {
    return Trigger::EveryNth(2 + rng.NextBelow(7));
  }
  if (roll < 8) {
    const double span = kMaxProbability - kMinProbability;
    const double p = kMinProbability + span * rng.NextDouble();
    return Trigger::Probability(p, rng.Next());
  }
  if (roll < 9) {
    return Trigger::OneShot(rng.NextBelow(4));
  }
  return Trigger::Always();
}

std::string TriggerString(const Trigger& trigger) {
  char buf[96];
  switch (trigger.kind) {
    case Trigger::Kind::kAlways:
      if (trigger.value != Trigger::kNoValue) {
        std::snprintf(buf, sizeof(buf), "always(value=%llu)",
                      static_cast<unsigned long long>(trigger.value));
      } else {
        std::snprintf(buf, sizeof(buf), "always");
      }
      break;
    case Trigger::Kind::kOneShot:
      if (trigger.value != Trigger::kNoValue) {
        std::snprintf(buf, sizeof(buf), "one_shot(skip=%llu, value=%llu)",
                      static_cast<unsigned long long>(trigger.skip),
                      static_cast<unsigned long long>(trigger.value));
      } else {
        std::snprintf(buf, sizeof(buf), "one_shot(skip=%llu)",
                      static_cast<unsigned long long>(trigger.skip));
      }
      break;
    case Trigger::Kind::kEveryNth:
      std::snprintf(buf, sizeof(buf), "every_nth(%llu)",
                    static_cast<unsigned long long>(trigger.n));
      break;
    case Trigger::Kind::kProbability:
      std::snprintf(buf, sizeof(buf), "prob(%.4f, seed=%llu)", trigger.p,
                    static_cast<unsigned long long>(trigger.seed));
      break;
  }
  return buf;
}

}  // namespace

const char* ChaosEventKindName(ChaosEvent::Kind kind) {
  switch (kind) {
    case ChaosEvent::Kind::kArm:
      return "arm";
    case ChaosEvent::Kind::kDisarm:
      return "disarm";
    case ChaosEvent::Kind::kCrash:
      return "crash";
    case ChaosEvent::Kind::kRecover:
      return "recover";
  }
  return "?";
}

std::string ChaosEventString(const ChaosEvent& event) {
  std::string out = "@" + std::to_string(event.step) + " " +
                    ChaosEventKindName(event.kind) + " " + event.target;
  if (event.kind == ChaosEvent::Kind::kArm) {
    out += " " + TriggerString(event.trigger);
  }
  return out;
}

ChaosOrchestrator::ChaosOrchestrator(uint64_t seed, ChaosTargets targets,
                                     ChaosOptions options)
    : targets_(std::move(targets)), options_(options) {
  GeneratePlan(seed);
}

ChaosOrchestrator::~ChaosOrchestrator() { Finish(); }

void ChaosOrchestrator::GeneratePlan(uint64_t seed) {
  statkit::Rng rng(seed);
  const uint64_t horizon = std::max<uint64_t>(1, options_.horizon_steps);

  if (!targets_.faults.empty()) {
    const uint64_t overlap_bound = std::max<uint64_t>(1, options_.max_overlap);
    const uint64_t min_len = std::max<uint64_t>(1, options_.min_burst_steps);
    const uint64_t max_len = std::max(min_len, options_.max_burst_steps);
    for (uint64_t b = 0; b < options_.bursts; ++b) {
      const uint64_t start = rng.NextBelow(horizon);
      const uint64_t overlap = 1 + rng.NextBelow(overlap_bound);
      for (uint64_t i = 0; i < overlap; ++i) {
        const std::string& failpoint =
            targets_.faults[rng.NextBelow(targets_.faults.size())];
        // Faults of one burst start within a few steps of each other so
        // their active windows genuinely overlap.
        const uint64_t arm_step =
            std::min(horizon - 1, start + rng.NextBelow(8));
        const uint64_t length = static_cast<uint64_t>(rng.NextInRange(
            static_cast<int64_t>(min_len), static_cast<int64_t>(max_len)));
        const uint64_t disarm_step = std::min(horizon - 1, arm_step + length);
        ChaosEvent arm;
        arm.step = arm_step;
        arm.kind = ChaosEvent::Kind::kArm;
        arm.target = failpoint;
        arm.trigger = PickTrigger(rng, options_, failpoint);
        plan_.push_back(arm);
        ChaosEvent disarm;
        disarm.step = disarm_step;
        disarm.kind = ChaosEvent::Kind::kDisarm;
        disarm.target = failpoint;
        plan_.push_back(disarm);
      }
    }
  }

  // One kill/recover cycle per disjoint slice of the horizon, so a cycle
  // never crashes a system another cycle has not yet recovered.
  if (!targets_.crash_sites.empty() && options_.crash_cycles > 0) {
    const uint64_t slice = horizon / options_.crash_cycles;
    const uint64_t min_down = std::max<uint64_t>(1, options_.min_downtime_steps);
    for (uint64_t c = 0; c < options_.crash_cycles; ++c) {
      uint64_t down = static_cast<uint64_t>(
          rng.NextInRange(static_cast<int64_t>(min_down),
                          static_cast<int64_t>(
                              std::max(min_down, options_.max_downtime_steps))));
      if (down + 2 > slice) {
        // Slice too narrow for this cycle; a shorter storm simply gets
        // fewer crashes.
        continue;
      }
      const ChaosCrashSite& site =
          targets_.crash_sites[rng.NextBelow(targets_.crash_sites.size())];
      const uint64_t lo = c * slice;
      const uint64_t at = lo + rng.NextBelow(slice - down - 1);
      ChaosEvent crash;
      crash.step = at;
      crash.kind = ChaosEvent::Kind::kCrash;
      crash.target = site.name;
      plan_.push_back(crash);
      ChaosEvent recover;
      recover.step = at + down;
      recover.kind = ChaosEvent::Kind::kRecover;
      recover.target = site.name;
      plan_.push_back(recover);
    }
  }

  // Stable sort keeps generation order among same-step events, so the
  // applied sequence — not just the set — is seed-deterministic.
  std::stable_sort(plan_.begin(), plan_.end(),
                   [](const ChaosEvent& a, const ChaosEvent& b) {
                     return a.step < b.step;
                   });
}

void ChaosOrchestrator::Apply(const ChaosEvent& event) {
  switch (event.kind) {
    case ChaosEvent::Kind::kArm:
      Activate(event.target, event.trigger);
      armed_.push_back(event.target);
      break;
    case ChaosEvent::Kind::kDisarm: {
      Deactivate(event.target);
      auto it = std::find(armed_.begin(), armed_.end(), event.target);
      if (it != armed_.end()) {
        armed_.erase(it);
      }
      break;
    }
    case ChaosEvent::Kind::kCrash: {
      // A dead process takes its injectors with it.
      for (const std::string& name : armed_) {
        Deactivate(name);
      }
      armed_.clear();
      for (const ChaosCrashSite& site : targets_.crash_sites) {
        if (site.name == event.target) {
          if (site.crash) {
            site.crash();
          }
          break;
        }
      }
      ++crashes_injected_;
      break;
    }
    case ChaosEvent::Kind::kRecover: {
      for (const ChaosCrashSite& site : targets_.crash_sites) {
        if (site.name == event.target) {
          if (site.recover) {
            site.recover();
          }
          break;
        }
      }
      ++recoveries_;
      break;
    }
  }
}

void ChaosOrchestrator::Step(uint64_t steps) {
  if (finished_) {
    return;
  }
  current_step_ += steps;
  while (applied_ < plan_.size() && plan_[applied_].step <= current_step_) {
    Apply(plan_[applied_]);
    ++applied_;
  }
}

bool ChaosOrchestrator::done() const { return applied_ >= plan_.size(); }

void ChaosOrchestrator::Finish() {
  if (finished_) {
    return;
  }
  while (applied_ < plan_.size()) {
    Apply(plan_[applied_]);
    ++applied_;
  }
  if (current_step_ < options_.horizon_steps) {
    current_step_ = options_.horizon_steps;
  }
  for (const std::string& name : armed_) {
    Deactivate(name);
  }
  armed_.clear();
  finished_ = true;
}

std::string ChaosOrchestrator::TrailString() const {
  std::string out;
  for (size_t i = 0; i < applied_; ++i) {
    out += ChaosEventString(plan_[i]);
    out += '\n';
  }
  return out;
}

}  // namespace fault
