#include "src/vprof/service/vprofd.h"

#include <utility>

#include "src/vprof/registry.h"
#include "src/vprof/service/prom.h"

namespace vprof {

namespace {

HarvesterOptions MakeHarvesterOptions(Vprofd* daemon, TimeNs epoch_ns,
                                      void (Vprofd::*handler)(Trace&&)) {
  HarvesterOptions options;
  options.epoch_ns = epoch_ns;
  options.sink = [daemon, handler](Trace&& trace) {
    (daemon->*handler)(std::move(trace));
  };
  return options;
}

}  // namespace

Vprofd::Vprofd(VprofdOptions options)
    : options_(std::move(options)),
      root_(RegisterFunction(options_.root_function)),
      tree_(options_.tree),
      controller_(root_, options_.graph.get(), options_.controller),
      detector_(options_.regression),
      supervisor_(options_.supervisor),
      harvester_(MakeHarvesterOptions(this, options_.epoch_ns,
                                      &Vprofd::HandleEpoch)) {
  // Without a call graph the controller has nothing to descend into; run
  // as a pure aggregator instead of crashing on the first step.
  if (!options_.graph) options_.enable_controller = false;
  if (!options_.history.dir.empty()) {
    store_ = std::make_unique<statstore::StatStore>(options_.history);
  }
}

Vprofd::~Vprofd() { Stop(); }

void Vprofd::Start() {
  if (harvester_.running()) return;
  if (store_ != nullptr && !store_opened_) {
    if (store_->Open()) {
      store_opened_ = true;
      // Resume epoch numbering past whatever a previous process persisted,
      // so the history stays one strictly-increasing stream.
      epoch_base_ = store_->last_epoch();
    } else {
      store_.reset();  // undurable history beats a crashing daemon
    }
  }
  if (options_.enable_controller) controller_.ApplyInstrumentation();
  harvester_.Start();
}

void Vprofd::Stop() {
  harvester_.Stop();
  if (store_ != nullptr) store_->Seal();
}

void Vprofd::HandleEpoch(Trace&& trace) {
  tree_.Fold(trace);
  const OnlineTreeSnapshot snapshot = tree_.Snapshot();
  const uint64_t epoch = epoch_base_ + snapshot.epochs;
  ObserveSnapshot(&detector_, snapshot, epoch);
  if (store_ != nullptr) {
    HarvestHealth health;
    health.rotation_gap_last_ns = static_cast<uint64_t>(last_gap_ns());
    health.rotation_gap_max_ns = static_cast<uint64_t>(max_gap_ns());
    health.rotation_gap_total_ns = static_cast<uint64_t>(total_gap_ns());
    statstore::EpochSample sample = SampleFromSnapshot(snapshot, epoch, health);
    // The supervisor state is persisted every epoch so transitions are
    // visible in the history.
    if (options_.enable_supervisor) {
      sample.values.push_back(
          {"health:supervisor_state",
           static_cast<double>(static_cast<uint8_t>(supervisor_.state()))});
    }
    store_->Append(sample);
  }
  if (options_.enable_supervisor) {
    // The epoch just folded ran under the previous knob settings; observe
    // its health deltas and apply the (possibly new) knobs for the next one.
    EpochHealth health;
    health.rotation_gap_ns = static_cast<uint64_t>(last_gap_ns());
    health.dropped_records = snapshot.dropped_records - prev_dropped_records_;
    prev_dropped_records_ = snapshot.dropped_records;
    health.stuck_threads = snapshot.stuck_threads - prev_stuck_threads_;
    prev_stuck_threads_ = snapshot.stuck_threads;
    if (store_ != nullptr) {
      const uint64_t errors = store_->stats().append_errors;
      health.history_append_errors = errors - prev_append_errors_;
      prev_append_errors_ = errors;
    }
    supervisor_.Observe(health);
    harvester_.set_tracing_enabled(supervisor_.tracing_enabled());
    harvester_.set_epoch_ns(static_cast<TimeNs>(
        static_cast<double>(options_.epoch_ns) *
        supervisor_.epoch_multiplier()));
  }
  if (options_.enable_controller &&
      (!options_.enable_supervisor || supervisor_.controller_enabled())) {
    controller_.Step(snapshot);
  }
}

std::string Vprofd::MetricsText() const {
  const OnlineTreeSnapshot snapshot = Snapshot();
  const ControllerStatus status = controller_status();
  // Every vprof_* family sorts before every vprofd_* family ('_' < 'd'), so
  // concatenating the two sorted blocks keeps the whole text sorted.
  PromWriter w;
  w.Family("vprofd_harvest_epochs_total", "counter",
           "Epochs rotated by the harvester.");
  w.Sample("vprofd_harvest_epochs_total", epochs());
  w.Family("vprofd_rotation_gap_ns", "gauge",
           "Tracing-off time of the latest epoch rotation.");
  w.Sample("vprofd_rotation_gap_ns", static_cast<uint64_t>(last_gap_ns()));
  w.Family("vprofd_rotation_gap_max_ns", "gauge",
           "Worst tracing-off rotation gap seen.");
  w.Sample("vprofd_rotation_gap_max_ns", static_cast<uint64_t>(max_gap_ns()));
  w.Family("vprofd_rotation_gap_total_ns", "counter",
           "Cumulative tracing-off time across all rotations.");
  w.Sample("vprofd_rotation_gap_total_ns",
           static_cast<uint64_t>(total_gap_ns()));
  w.Family("vprofd_controller_steps_total", "counter",
           "Refinement steps taken.");
  w.Sample("vprofd_controller_steps_total", status.steps);
  w.Family("vprofd_controller_expansions_total", "counter",
           "Factors expanded into their callees.");
  w.Sample("vprofd_controller_expansions_total", status.expansions);
  w.Family("vprofd_controller_retirements_total", "counter",
           "Expanded functions retired for low contribution.");
  w.Sample("vprofd_controller_retirements_total", status.retirements);
  w.Family("vprofd_controller_stable_steps", "gauge",
           "Consecutive steps with no instrumentation change.");
  w.Sample("vprofd_controller_stable_steps",
           static_cast<uint64_t>(status.stable_steps));
  w.Family("vprofd_instrumented_probes", "gauge",
           "Probes currently enabled by the controller.");
  w.Sample("vprofd_instrumented_probes",
           static_cast<uint64_t>(status.instrumented.size()));

  if (store_ != nullptr) {
    const statstore::StoreStats hs = store_->stats();
    w.Family("vprofd_history_appends_total", "counter",
             "Epoch samples persisted to the history store.");
    w.Sample("vprofd_history_appends_total", hs.appends);
    w.Family("vprofd_history_append_errors_total", "counter",
             "History appends that failed (IO error / wedged store).");
    w.Sample("vprofd_history_append_errors_total", hs.append_errors);
    w.Family("vprofd_history_bytes_total", "counter",
             "Compressed bytes written to the history store.");
    w.Sample("vprofd_history_bytes_total", hs.bytes_written);
    w.Family("vprofd_history_segments", "gauge",
             "Segment files currently on disk.");
    w.Sample("vprofd_history_segments", store_->segment_count());
    w.Family("vprofd_history_last_epoch", "gauge",
             "Most recent epoch id persisted.");
    w.Sample("vprofd_history_last_epoch", store_->last_epoch());
    w.Family("vprofd_history_persist_ns", "gauge",
             "Write-path latency of the latest epoch append.");
    w.Sample("vprofd_history_persist_ns", hs.last_append_ns);
    w.Family("vprofd_history_persist_max_ns", "gauge",
             "Worst write-path latency of an epoch append.");
    w.Sample("vprofd_history_persist_max_ns", hs.max_append_ns);
  }

  if (options_.enable_supervisor) {
    const SupervisorStatus ss = supervisor_.status();
    w.Family("vprofd_supervisor_state", "gauge",
             "Escalation-ladder state (0=normal, 1=degraded, "
             "2=quarantined).");
    w.Sample("vprofd_supervisor_state",
             static_cast<uint64_t>(static_cast<uint8_t>(ss.state)));
    w.Family("vprofd_supervisor_unhealthy_epochs_total", "counter",
             "Epochs whose health deltas exceeded a supervisor threshold.");
    w.Sample("vprofd_supervisor_unhealthy_epochs_total", ss.unhealthy_epochs);
    w.Family("vprofd_supervisor_escalations_total", "counter",
             "Downward ladder transitions (toward quarantine).");
    w.Sample("vprofd_supervisor_escalations_total", ss.escalations);
    w.Family("vprofd_supervisor_restorations_total", "counter",
             "Upward ladder transitions (toward normal).");
    w.Sample("vprofd_supervisor_restorations_total", ss.restorations);
  }

  w.Family("vprofd_regression_flags_total", "counter",
           "Contribution-shift regressions flagged.");
  w.Sample("vprofd_regression_flags_total", detector_.flag_count());
  w.Family("vprofd_regression_series", "gauge",
           "Series with an established regression baseline.");
  w.Sample("vprofd_regression_series",
           static_cast<uint64_t>(detector_.series_count()));
  w.Family("vprofd_regression_flag_epoch", "gauge",
           "Epoch of the latest flag per regressed series.");
  w.Family("vprofd_regression_flag_sigmas", "gauge",
           "Shift, in baseline sigmas, of the latest flag per series.");
  for (const statstore::RegressionFlag& flag : detector_.flags()) {
    const PromWriter::Labels labels{{"series", flag.series}};
    w.Sample("vprofd_regression_flag_epoch", labels, flag.epoch);
    w.Sample("vprofd_regression_flag_sigmas", labels, flag.sigmas);
  }
  return snapshot.ToPromText() + w.Text();
}

}  // namespace vprof
