#include "src/dist/monitor.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "src/vprof/service/history.h"

namespace dist {

using vprof::TierSeriesName;

void DistMonitor::RegisterTier(const TierConfig& config) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Tier& tier : tiers_) {
    if (tier.config.name == config.name) {
      return;
    }
  }
  Tier tier;
  tier.config = config;
  tiers_.push_back(std::move(tier));
}

void DistMonitor::UpdateTier(const std::string& name,
                             const vprof::OnlineTreeSnapshot& snapshot) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Tier& tier : tiers_) {
    if (tier.config.name == name) {
      tier.snapshot = snapshot;
      tier.has_snapshot = true;
      return;
    }
  }
}

DistSnapshot DistMonitor::SnapshotLocked() const {
  DistSnapshot out;
  const Tier* front = nullptr;
  for (const Tier& tier : tiers_) {
    if (tier.config.is_front) {
      front = &tier;
      break;
    }
  }
  if (front != nullptr && front->has_snapshot) {
    out.end_to_end_mean_ns = front->snapshot.overall_mean();
    out.end_to_end_variance_ns2 = front->snapshot.overall_variance();
  }
  auto add = [&out](const Tier& tier) {
    if (!tier.has_snapshot) {
      return;
    }
    TierStats stats;
    stats.name = tier.config.name;
    stats.is_front = tier.config.is_front;
    stats.mean_ns = tier.snapshot.overall_mean();
    stats.variance_ns2 = tier.snapshot.overall_variance();
    stats.intervals = tier.snapshot.intervals;
    stats.share = tier.config.is_front
                      ? 1.0
                      : (out.end_to_end_variance_ns2 > 0.0
                             ? stats.variance_ns2 / out.end_to_end_variance_ns2
                             : 0.0);
    out.tiers.push_back(std::move(stats));
  };
  if (front != nullptr) {
    add(*front);
  }
  for (const Tier& tier : tiers_) {
    if (!tier.config.is_front) {
      add(tier);
    }
  }
  return out;
}

DistSnapshot DistMonitor::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return SnapshotLocked();
}

std::vector<DistFactor> DistMonitor::TopFactors(const vprof::CallGraph& graph,
                                                size_t top_k) const {
  std::lock_guard<std::mutex> lock(mu_);
  const DistSnapshot merged = SnapshotLocked();
  // The tiers whose factors enter the list, with their shares.
  std::vector<std::pair<const Tier*, double>> ranked;
  for (const Tier& tier : tiers_) {
    if (!tier.has_snapshot || tier.config.root == vprof::kInvalidFunc) {
      continue;
    }
    for (const TierStats& stats : merged.tiers) {
      if (stats.name == tier.config.name && stats.share > 0.0) {
        ranked.emplace_back(&tier, stats.share);
        break;
      }
    }
  }
  // True when `func` calls the root of a ranked tier other than `caller`:
  // the front's rpc:call into a registered backend.
  auto calls_ranked_tier = [&graph, &ranked](vprof::FuncId func,
                                             const Tier* caller) {
    if (func == vprof::kInvalidFunc) {
      return false;
    }
    for (const vprof::FuncId child : graph.Children(func)) {
      for (const auto& [callee, callee_share] : ranked) {
        if (callee != caller && callee->config.root == child) {
          return true;
        }
      }
    }
    return false;
  };
  std::vector<DistFactor> out;
  for (const auto& [tier, share] : ranked) {
    const std::vector<vprof::Factor> factors = vprof::AggregateFactors(
        tier->snapshot.View(), graph, tier->config.root,
        vprof::SpecificityKind::kQuadratic);
    for (const vprof::Factor& factor : factors) {
      if (calls_ranked_tier(factor.func_a, tier) ||
          calls_ranked_tier(factor.func_b, tier)) {
        continue;  // the callee tier's own factors stand in for the call
      }
      DistFactor df;
      df.tier = tier->config.name;
      df.factor = factor;
      df.tier_share = share;
      df.global_contribution = factor.contribution * share;
      df.global_score = factor.specificity * df.global_contribution;
      out.push_back(std::move(df));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const DistFactor& a, const DistFactor& b) {
              if (a.global_score != b.global_score) {
                return a.global_score > b.global_score;
              }
              if (a.tier != b.tier) {
                return a.tier < b.tier;
              }
              return a.factor.func_a < b.factor.func_a;
            });
  if (out.size() > top_k) {
    out.resize(top_k);
  }
  return out;
}

statstore::EpochSample DistMonitor::Sample(uint64_t epoch) const {
  const DistSnapshot merged = Snapshot();
  statstore::EpochSample sample;
  sample.epoch = epoch;
  sample.values.reserve(4 * merged.tiers.size());
  for (const TierStats& tier : merged.tiers) {
    sample.values.push_back(
        {TierSeriesName(tier.name, "latency_mean_ns"), tier.mean_ns});
    sample.values.push_back(
        {TierSeriesName(tier.name, "latency_variance_ns2"),
         tier.variance_ns2});
    sample.values.push_back({TierSeriesName(tier.name, "share"), tier.share});
    sample.values.push_back({TierSeriesName(tier.name, "intervals"),
                             static_cast<double>(tier.intervals)});
  }
  return sample;
}

std::string DistMonitor::ToText(const vprof::CallGraph& graph,
                                size_t top_k) const {
  const DistSnapshot merged = Snapshot();
  const std::vector<DistFactor> factors = TopFactors(graph, top_k);
  std::ostringstream os;
  os << "dist:request  mean=" << merged.end_to_end_mean_ns / 1e3
     << "us  var=" << merged.end_to_end_variance_ns2 / 1e6 << "us2\n";
  for (const TierStats& tier : merged.tiers) {
    os << "  tier " << tier.name << (tier.is_front ? " (front)" : "")
       << "  mean=" << tier.mean_ns / 1e3
       << "us  var=" << tier.variance_ns2 / 1e6
       << "us2  share=" << tier.share << "  intervals=" << tier.intervals
       << "\n";
  }
  os << "  top factors (tier-share weighted):\n";
  std::lock_guard<std::mutex> lock(mu_);
  for (const DistFactor& df : factors) {
    const Tier* tier = nullptr;
    for (const Tier& t : tiers_) {
      if (t.config.name == df.tier) {
        tier = &t;
        break;
      }
    }
    if (tier == nullptr) {
      continue;
    }
    os << "    [" << df.tier << "] "
       << df.factor.Label(tier->snapshot.function_names)
       << "  contribution=" << df.global_contribution
       << "  score=" << df.global_score << "\n";
  }
  return os.str();
}

}  // namespace dist
