// Bridge between the streaming variance tree and the statstore history.
//
// Flattens an OnlineTreeSnapshot into one statstore::EpochSample — per-node
// mean/variance/contribution-share streams plus the tree's aggregate and
// tracer-health counters — under a stable series-naming scheme, and feeds
// the per-node contribution shares to a RegressionDetector. Keeping the
// naming in one place means the persisted history, the regression flags,
// and the inspection CLI all agree on what a stream is called.
//
// Series names:
//   node:<root-to-node path>:mean_ns | :variance_ns2 | :share
//   stats:intervals | stats:weight | stats:latency_mean_ns |
//     stats:latency_variance_ns2
//   health:dropped_records | health:stuck_threads |
//     health:stuck_thread_epochs | health:rotation_gap_last_ns |
//     health:rotation_gap_max_ns | health:rotation_gap_total_ns
//   tier:<tier name>:latency_mean_ns | :latency_variance_ns2 | :share |
//     :intervals — per-tier rows of the distributed dist:request view
//     (dist::DistMonitor), persisted next to the front daemon's streams
//
// The sample's epoch id is the snapshot's folded-epoch count, which is
// strictly increasing across a daemon's life and resumes past the persisted
// history when a store is reopened by a fresh process (see Vprofd).
#ifndef SRC_VPROF_SERVICE_HISTORY_H_
#define SRC_VPROF_SERVICE_HISTORY_H_

#include <cstdint>
#include <string>

#include "src/statstore/regression.h"
#include "src/statstore/segment.h"
#include "src/vprof/service/online_tree.h"

namespace vprof {

// Harvester-side health folded into each persisted sample.
struct HarvestHealth {
  uint64_t rotation_gap_last_ns = 0;
  uint64_t rotation_gap_max_ns = 0;
  uint64_t rotation_gap_total_ns = 0;
};

// Series name of one node stream, e.g.
// NodeSeriesName("run_transaction/fil_flush", "share").
std::string NodeSeriesName(const std::string& path, const char* field);

// Series name of one distributed-tier stream (dist::DistMonitor), e.g.
// TierSeriesName("minidb", "share") -> "tier:minidb:share".
std::string TierSeriesName(const std::string& tier, const char* field);

// Flattens `snapshot` (at epoch id `epoch`) into a statstore sample.
statstore::EpochSample SampleFromSnapshot(const OnlineTreeSnapshot& snapshot,
                                          uint64_t epoch,
                                          const HarvestHealth& health);

// Feeds every node's contribution share at epoch `epoch` to `detector`;
// returns the number of flags raised.
int ObserveSnapshot(statstore::RegressionDetector* detector,
                    const OnlineTreeSnapshot& snapshot, uint64_t epoch);

}  // namespace vprof

#endif  // SRC_VPROF_SERVICE_HISTORY_H_
