// Seeded chaos orchestration over the failpoint registry.
//
// A ChaosOrchestrator composes the repository's existing failpoints (disk
// write/fsync errors, stalls, torn writes, crash triggers) into a
// time-scheduled fault storm: overlapping bursts of armed failpoints plus
// kill-and-recover cycles. The whole storm is generated up front from one
// seed — same seed, same targets, same options ⇒ bit-identical event trail
// and bit-identical arming sequence — so any failure a storm uncovers is
// replayable by re-running the seed.
//
// Time is logical: the driver calls Step() once per unit of work (e.g. every
// K transactions), and the orchestrator applies every planned event whose
// step has arrived. Load threads never call Step(); one driver thread owns
// the clock while workers merely hit the armed failpoints, which keeps the
// *schedule* deterministic even when the *hits* are not (multi-threaded
// storms assert invariants; single-threaded sweeps assert bit-exact state).
//
// Faults are armed/disarmed by failpoint name. Crash/recover cycles go
// through named callback pairs supplied by the harness (e.g. "minidb" ⇒
// {engine kill via RedoLog::Crash, RedoLog::Recover}), because recovery is
// engine-specific while scheduling is not. A crash event first disarms every
// failpoint this orchestrator armed — a dead process takes its fault
// injectors with it — and the matching recover event re-opens the system;
// bursts scheduled after the recovery re-arm naturally. Cycles are placed in
// disjoint step ranges so a storm never crashes an already-crashed system.
#ifndef SRC_FAULT_CHAOS_H_
#define SRC_FAULT_CHAOS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/fault/failpoint.h"

namespace fault {

// A named kill/recover pair for one crashable component.
struct ChaosCrashSite {
  std::string name;              // rendered into the trail, e.g. "minidb"
  std::function<void()> crash;   // kill the component now
  std::function<void()> recover; // bring it back (replay/truncate/reopen)
};

// What the orchestrator may act on.
struct ChaosTargets {
  // Armable failpoint names, e.g. "redo-disk/fsync_error", "wal0/stall",
  // "statstore/write_error", "redo/crash_mid_batch".
  std::vector<std::string> faults;
  // Kill/recover cycles; may be empty (faults-only storm).
  std::vector<ChaosCrashSite> crash_sites;
};

struct ChaosOptions {
  // Logical length of the storm; events land on steps in [0, horizon_steps).
  uint64_t horizon_steps = 1000;

  // Fault bursts: each burst arms 1..max_overlap faults near a common start
  // step, each for its own seeded duration.
  uint64_t bursts = 6;
  uint64_t max_overlap = 3;
  uint64_t min_burst_steps = 20;
  uint64_t max_burst_steps = 200;

  // Kill-and-recover cycles, one per disjoint slice of the horizon. Ignored
  // when the targets carry no crash sites.
  uint64_t crash_cycles = 2;
  uint64_t min_downtime_steps = 10;
  uint64_t max_downtime_steps = 60;

  // Upper bound (exclusive) for valued triggers on failpoints that consume a
  // payload (e.g. the tear offset of */crash_mid_batch). 0 disables valued
  // triggers.
  uint64_t value_bound = 4096;
};

struct ChaosEvent {
  enum class Kind : uint8_t { kArm, kDisarm, kCrash, kRecover };

  uint64_t step = 0;
  Kind kind = Kind::kArm;
  std::string target;  // failpoint name, or crash-site name
  Trigger trigger;     // kArm only
};

const char* ChaosEventKindName(ChaosEvent::Kind kind);

// Renders one event as a stable single-line string (no pointers, no
// addresses): "@42 arm redo-disk/fsync_error every_nth(3)".
std::string ChaosEventString(const ChaosEvent& event);

class ChaosOrchestrator {
 public:
  // Generates the full storm plan immediately; nothing is armed until
  // Step() reaches the first event.
  ChaosOrchestrator(uint64_t seed, ChaosTargets targets, ChaosOptions options);

  // Finish() semantics without requiring an explicit call.
  ~ChaosOrchestrator();

  ChaosOrchestrator(const ChaosOrchestrator&) = delete;
  ChaosOrchestrator& operator=(const ChaosOrchestrator&) = delete;

  // Advances the logical clock by `steps` and applies every due event, in
  // plan order. Single driver thread only.
  void Step(uint64_t steps = 1);

  // True once the clock has passed the last planned event.
  bool done() const;

  // Fast-forwards through all remaining events (so every crash is followed
  // by its recover), then disarms anything still armed. The system is left
  // recovered and failpoint-free. Idempotent.
  void Finish();

  uint64_t current_step() const { return current_step_; }

  // The generated plan, in application order — identical for equal
  // (seed, targets-names, options).
  const std::vector<ChaosEvent>& plan() const { return plan_; }

  // Events applied so far.
  uint64_t applied() const { return applied_; }

  // Newline-separated ChaosEventString of the applied prefix of the plan;
  // the determinism tests compare this across runs byte for byte.
  std::string TrailString() const;

  uint64_t crashes_injected() const { return crashes_injected_; }
  uint64_t recoveries() const { return recoveries_; }

 private:
  void GeneratePlan(uint64_t seed);
  void Apply(const ChaosEvent& event);

  const ChaosTargets targets_;
  const ChaosOptions options_;

  std::vector<ChaosEvent> plan_;
  size_t applied_ = 0;
  uint64_t current_step_ = 0;
  bool finished_ = false;

  std::vector<std::string> armed_;  // failpoints this orchestrator armed
  uint64_t crashes_injected_ = 0;
  uint64_t recoveries_ = 0;
};

}  // namespace fault

#endif  // SRC_FAULT_CHAOS_H_
