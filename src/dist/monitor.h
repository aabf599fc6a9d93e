// DistMonitor: the cross-tier view of the always-on service.
//
// Each tier (the httpd front, each minidb/minipg backend) runs its own
// Vprofd whose OnlineVarianceTree decomposes that tier's root interval. The
// monitor takes the per-tier snapshots and merges them under a synthetic
// "dist:request" root: the front tier's root *is* the end-to-end latency
// (its intervals span the RPCs), so the front snapshot provides the overall
// mean/variance, and each backend tier hangs off the root with
//
//   tier_share = Var(backend root) / Var(front root)
//
// — an approximation (the backend's variance as observed at the backend,
// not the portion surviving to the caller's critical path; the exact
// decomposition is the offline TraceStitcher's job). It is the right online
// quantity: cheap, monotone in the backend's misbehavior, and comparable
// across tiers because all clocks are calibrated to nanoseconds.
//
// TopFactors re-ranks every tier's Eq. 4 factors in one list by scaling
// each factor's contribution by its tier's share, so "minidb lock waits"
// and "front allocator" compete directly. A caller's factors on the call
// into a ranked tier (the front's rpc:call, whose call-graph child is the
// backend's root) are left out: the caller's wait on that call contains the
// callee's whole interval, which the callee's own factors already rank, so
// keeping both would count the backend twice. Sample() flattens the merged
// view into statstore series:
//
//   tier:<name>:latency_mean_ns | :latency_variance_ns2 | :share
//   tier:<name>:intervals
//
// persisted next to the front daemon's node:* streams.
#ifndef SRC_DIST_MONITOR_H_
#define SRC_DIST_MONITOR_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/statstore/segment.h"
#include "src/vprof/analysis/call_graph.h"
#include "src/vprof/analysis/factor_selection.h"
#include "src/vprof/service/online_tree.h"

namespace dist {

struct TierConfig {
  std::string name;                         // "front", "minidb", ...
  bool is_front = false;                    // exactly one tier
  vprof::FuncId root = vprof::kInvalidFunc; // tier's interval root function
};

// One tier's row in the merged dist:request view.
struct TierStats {
  std::string name;
  bool is_front = false;
  double mean_ns = 0.0;
  double variance_ns2 = 0.0;
  double share = 0.0;  // Var(tier)/Var(front); 1.0 for the front itself
  uint64_t intervals = 0;
};

struct DistSnapshot {
  double end_to_end_mean_ns = 0.0;       // front root mean
  double end_to_end_variance_ns2 = 0.0;  // front root variance
  std::vector<TierStats> tiers;          // front first, then backends
};

// One tier's factor, re-ranked into the global list.
struct DistFactor {
  std::string tier;
  vprof::Factor factor;            // as aggregated within the tier
  double tier_share = 0.0;
  double global_contribution = 0.0;  // factor.contribution * tier_share
  double global_score = 0.0;         // specificity * global_contribution
};

class DistMonitor {
 public:
  // Tiers must be registered before their first Update; the first tier with
  // is_front set anchors the end-to-end axis.
  void RegisterTier(const TierConfig& config);

  // Replaces the tier's current snapshot (typically each vprofd epoch).
  void UpdateTier(const std::string& name,
                  const vprof::OnlineTreeSnapshot& snapshot);

  DistSnapshot Snapshot() const;

  // All tiers' factors in one list, sorted by global_score descending,
  // less the factors naming a function whose `graph` child is another
  // ranked tier's root. `graph` must contain every tier's functions
  // (RegisterDistCallGraph plus the engines' and httpd's graphs).
  std::vector<DistFactor> TopFactors(const vprof::CallGraph& graph,
                                     size_t top_k) const;

  // tier:* series for the current merged view, stamped with `epoch`.
  statstore::EpochSample Sample(uint64_t epoch) const;

  // Human-readable merged tree: the dist:request root, per-tier rows, and
  // each tier's top factors (used by examples/profile_dist).
  std::string ToText(const vprof::CallGraph& graph, size_t top_k) const;

 private:
  struct Tier {
    TierConfig config;
    vprof::OnlineTreeSnapshot snapshot;
    bool has_snapshot = false;
  };

  DistSnapshot SnapshotLocked() const;

  mutable std::mutex mu_;
  std::vector<Tier> tiers_;
};

}  // namespace dist

#endif  // SRC_DIST_MONITOR_H_
