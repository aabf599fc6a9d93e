#include "src/vprof/service/history.h"

namespace vprof {

std::string NodeSeriesName(const std::string& path, const char* field) {
  return "node:" + path + ":" + field;
}

std::string TierSeriesName(const std::string& tier, const char* field) {
  return "tier:" + tier + ":" + field;
}

statstore::EpochSample SampleFromSnapshot(const OnlineTreeSnapshot& snapshot,
                                          uint64_t epoch,
                                          const HarvestHealth& health) {
  statstore::EpochSample sample;
  sample.epoch = epoch;
  const double overall = snapshot.overall_variance();
  sample.values.reserve(3 * snapshot.nodes.size() + 10);
  for (size_t id = 1; id < snapshot.nodes.size(); ++id) {
    const std::string path = snapshot.NodePath(static_cast<NodeId>(id));
    sample.values.push_back({NodeSeriesName(path, "mean_ns"),
                             snapshot.node_mean[id]});
    sample.values.push_back({NodeSeriesName(path, "variance_ns2"),
                             snapshot.node_variance[id]});
    sample.values.push_back(
        {NodeSeriesName(path, "share"),
         overall > 0.0 ? snapshot.node_variance[id] / overall : 0.0});
  }
  sample.values.push_back(
      {"stats:intervals", static_cast<double>(snapshot.intervals)});
  sample.values.push_back({"stats:weight", snapshot.weight});
  sample.values.push_back(
      {"stats:latency_mean_ns", snapshot.overall_mean()});
  sample.values.push_back({"stats:latency_variance_ns2", overall});
  sample.values.push_back({"health:dropped_records",
                           static_cast<double>(snapshot.dropped_records)});
  sample.values.push_back({"health:stuck_threads",
                           static_cast<double>(snapshot.stuck_threads)});
  sample.values.push_back(
      {"health:stuck_thread_epochs",
       static_cast<double>(snapshot.stuck_thread_epochs)});
  sample.values.push_back(
      {"health:rotation_gap_last_ns",
       static_cast<double>(health.rotation_gap_last_ns)});
  sample.values.push_back({"health:rotation_gap_max_ns",
                           static_cast<double>(health.rotation_gap_max_ns)});
  sample.values.push_back(
      {"health:rotation_gap_total_ns",
       static_cast<double>(health.rotation_gap_total_ns)});
  return sample;
}

int ObserveSnapshot(statstore::RegressionDetector* detector,
                    const OnlineTreeSnapshot& snapshot, uint64_t epoch) {
  const double overall = snapshot.overall_variance();
  int flags = 0;
  for (size_t id = 1; id < snapshot.nodes.size(); ++id) {
    const double share =
        overall > 0.0 ? snapshot.node_variance[id] / overall : 0.0;
    const std::string series = NodeSeriesName(
        snapshot.NodePath(static_cast<NodeId>(id)), "share");
    if (detector->Observe(series, epoch, share)) {
      ++flags;
    }
  }
  return flags;
}

}  // namespace vprof
