#include "src/vprof/service/controller.h"

#include <algorithm>

#include "src/vprof/registry.h"

namespace vprof {

namespace {

// Contribution below which an expanded function counts toward retirement.
constexpr double kRetireContribution = 0.005;

}  // namespace

RefinementController::RefinementController(FuncId root, const CallGraph* graph,
                                           ControllerOptions options)
    : root_(root), graph_(graph), options_(options) {
  expanded_.insert(root_);
}

std::vector<FuncId> RefinementController::DesiredSet() const {
  std::set<FuncId> desired;
  desired.insert(root_);
  for (FuncId func : expanded_) {
    desired.insert(func);
    for (FuncId child : graph_->Children(func)) desired.insert(child);
  }
  return std::vector<FuncId>(desired.begin(), desired.end());
}

int RefinementController::ApplyLocked() {
  const std::vector<FuncId> desired = DesiredSet();
  int flips = 0;
  // Only touch bits the controller owns: functions declared in its graph.
  // Probes registered by other subsystems keep whatever state they had.
  for (FuncId func : graph_->Functions()) {
    const bool want =
        std::binary_search(desired.begin(), desired.end(), func);
    if (IsFunctionEnabled(func) != want) {
      SetFunctionEnabled(func, want);
      ++flips;
    }
  }
  status_.instrumented = desired;
  return flips;
}

int RefinementController::ApplyInstrumentation() {
  std::lock_guard<std::mutex> lock(mu_);
  return ApplyLocked();
}

int RefinementController::Step(const OnlineTreeSnapshot& snapshot) {
  std::lock_guard<std::mutex> lock(mu_);
  ++status_.steps;
  if (snapshot.weight < options_.min_weight) {
    ++status_.skipped;
    status_.last_changes = 0;
    return 0;
  }

  const std::vector<Factor> ranked = AggregateFactors(
      snapshot.View(), *graph_, root_, options_.specificity);

  FactorSelectionOptions select;
  select.top_k = options_.top_k;
  select.min_contribution = options_.min_contribution;
  select.specificity = options_.specificity;
  status_.selection =
      SelectFactors(snapshot.View(), *graph_, root_, select);

  // Expand: descend into every selected function that still has unexplored
  // callees. Body factors are terminal — the function is already expanded
  // and its own body dominates — so they never trigger descent.
  for (const Factor& factor : status_.selection) {
    const FuncId candidates[2] = {factor.body_a ? kInvalidFunc : factor.func_a,
                                  factor.body_b ? kInvalidFunc : factor.func_b};
    for (FuncId func : candidates) {
      if (func == kInvalidFunc || !graph_->HasChildren(func)) continue;
      if (expanded_.insert(func).second) {
        ++status_.expansions;
        low_streak_.erase(func);
      }
    }
  }

  // Retire: an expanded function (never the root) whose best factor has sat
  // below the retire floor for `retire_patience` consecutive steps gets its
  // callees' probes turned off again.
  std::map<FuncId, double> best_contribution;
  for (const Factor& factor : ranked) {
    for (FuncId func : {factor.func_a, factor.func_b}) {
      if (func == kInvalidFunc) continue;
      auto [it, inserted] = best_contribution.emplace(func, factor.contribution);
      if (!inserted) it->second = std::max(it->second, factor.contribution);
    }
  }
  std::vector<FuncId> to_retire;
  for (FuncId func : expanded_) {
    if (func == root_) continue;
    auto it = best_contribution.find(func);
    const double contribution = it == best_contribution.end() ? 0.0 : it->second;
    if (contribution < kRetireContribution) {
      if (++low_streak_[func] >= options_.retire_patience) {
        to_retire.push_back(func);
      }
    } else {
      low_streak_.erase(func);
    }
  }
  for (FuncId func : to_retire) {
    expanded_.erase(func);
    low_streak_.erase(func);
    ++status_.retirements;
  }

  const int flips = ApplyLocked();
  status_.last_changes = flips;
  status_.stable_steps = flips == 0 ? status_.stable_steps + 1 : 0;
  return flips;
}

bool RefinementController::Converged(int stable_needed) const {
  std::lock_guard<std::mutex> lock(mu_);
  return status_.stable_steps >= stable_needed;
}

ControllerStatus RefinementController::status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return status_;
}

}  // namespace vprof
