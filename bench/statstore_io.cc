// statstore IO harness. Emits BENCH_statstore.json measuring, over a
// vprofd-shaped metric stream (per-node mean/variance/share plus stats and
// tracer-health series):
//   - compression vs the raw JSON an operator would otherwise retain
//     (acceptance: >= 5x over >= 1000 epochs),
//   - bounded write-path latency (per-epoch Append wall time percentiles),
//   - range-query decode throughput, verified bit-exact against the
//     appended values.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/statstore/gorilla.h"
#include "src/statstore/store.h"

namespace {

constexpr uint64_t kEpochs = 2000;
constexpr int kNodes = 12;  // tree nodes -> 3 series each

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One epoch of the stream vprofd persists (see src/vprof/service/history.h):
// slowly drifting node means, noisy variances, near-constant shares, and
// monotone health counters — the temporal redundancy the XOR codec exploits.
struct StreamState {
  std::mt19937_64 rng{20'17};
  std::vector<double> node_mean;
  std::vector<double> node_share;
  double dropped = 0.0;

  StreamState() {
    for (int n = 0; n < kNodes; ++n) {
      node_mean.push_back(50'000.0 + 10'000.0 * n);
      node_share.push_back(1.0 / kNodes);
    }
  }

  statstore::EpochSample Next(uint64_t epoch) {
    std::normal_distribution<double> drift(0.0, 200.0);
    std::normal_distribution<double> var_noise(1.0, 0.05);
    std::normal_distribution<double> share_noise(0.0, 0.002);
    statstore::EpochSample s;
    s.epoch = epoch;
    for (int n = 0; n < kNodes; ++n) {
      node_mean[n] += drift(rng);
      const std::string prefix = "node:run_transaction/factor_" +
                                 std::to_string(n) + ":";
      const double variance =
          node_mean[n] * node_mean[n] * 0.01 * var_noise(rng);
      s.values.push_back({prefix + "mean_ns", node_mean[n]});
      s.values.push_back({prefix + "variance_ns2", variance});
      s.values.push_back(
          {prefix + "share", node_share[n] + share_noise(rng)});
    }
    s.values.push_back({"stats:intervals", 1000.0 + double(epoch % 50)});
    s.values.push_back({"stats:weight", 950.0 + double(epoch % 50)});
    s.values.push_back({"stats:latency_mean_ns", node_mean[0] * kNodes});
    s.values.push_back({"stats:latency_variance_ns2", node_mean[0] * 1e3});
    if (epoch % 97 == 0) dropped += 1.0;
    s.values.push_back({"health:dropped_records", dropped});
    s.values.push_back({"health:stuck_threads", 0.0});
    s.values.push_back({"health:rotation_gap_last_ns", 150'000.0});
    s.values.push_back(
        {"health:rotation_gap_total_ns", 150'000.0 * double(epoch)});
    return s;
  }
};

// The baseline an operator would retain without statstore: one JSON object
// per epoch with full-precision values (%.17g round-trips doubles).
size_t RawJsonBytes(const statstore::EpochSample& s) {
  size_t bytes = 0;
  char buf[64];
  bytes += std::snprintf(buf, sizeof(buf), "{\"epoch\":%llu,\"series\":{",
                         static_cast<unsigned long long>(s.epoch));
  for (size_t i = 0; i < s.values.size(); ++i) {
    bytes += s.values[i].series.size() + 4;  // quotes, colon, comma
    bytes += std::snprintf(buf, sizeof(buf), "%.17g", s.values[i].value);
  }
  bytes += 3;  // }}\n
  return bytes;
}

}  // namespace

int main() {
  bench::PrintHeader("statstore_io — compressed history persistence");

  const std::string dir =
      std::filesystem::temp_directory_path().string() + "/bench_statstore";
  std::filesystem::remove_all(dir);

  statstore::StoreOptions options;
  options.dir = dir;
  options.max_segment_bytes = 256 * 1024;
  statstore::StatStore store(options);
  if (!store.Open()) {
    std::fprintf(stderr, "statstore_io: cannot open %s\n", dir.c_str());
    return 1;
  }

  // Append the full stream, keeping the appended values for verification
  // and timing every append individually.
  StreamState stream;
  std::vector<statstore::EpochSample> appended;
  appended.reserve(kEpochs);
  std::vector<double> append_ns;
  append_ns.reserve(kEpochs);
  size_t raw_json_bytes = 0;
  for (uint64_t epoch = 1; epoch <= kEpochs; ++epoch) {
    appended.push_back(stream.Next(epoch));
    raw_json_bytes += RawJsonBytes(appended.back());
    const int64_t t0 = NowNs();
    if (store.Append(appended.back()) != statstore::AppendStatus::kOk) {
      std::fprintf(stderr, "statstore_io: append failed at epoch %llu\n",
                   static_cast<unsigned long long>(epoch));
      return 1;
    }
    append_ns.push_back(static_cast<double>(NowNs() - t0));
  }
  store.Seal();

  const uint64_t store_bytes = store.disk_bytes();
  const double ratio =
      store_bytes > 0 ? double(raw_json_bytes) / double(store_bytes) : 0.0;
  const size_t values_per_epoch = appended.front().values.size();
  const double bytes_per_value =
      double(store_bytes) / double(kEpochs * values_per_epoch);

  // Verify every series decodes bit-exact, timing the full-range queries.
  uint64_t mismatches = 0;
  uint64_t points_read = 0;
  const int64_t q0 = NowNs();
  for (size_t si = 0; si < values_per_epoch; ++si) {
    const std::string& series = appended.front().values[si].series;
    const std::vector<statstore::SeriesPoint> points =
        store.Query(series, 0, UINT64_MAX);
    points_read += points.size();
    if (points.size() != kEpochs) {
      ++mismatches;
      continue;
    }
    for (size_t i = 0; i < points.size(); ++i) {
      if (statstore::DoubleBits(points[i].value) !=
          statstore::DoubleBits(appended[i].values[si].value)) {
        ++mismatches;
      }
    }
  }
  const double query_ms = double(NowNs() - q0) / 1e6;
  const double mpoints_per_s =
      query_ms > 0.0 ? double(points_read) / 1e3 / query_ms : 0.0;

  const statkit::Summary append = statkit::Summarize(append_ns);

  std::printf("  epochs                 %10llu\n",
              static_cast<unsigned long long>(kEpochs));
  std::printf("  series per epoch       %10zu\n", values_per_epoch);
  std::printf("  raw JSON               %10.1f KiB\n",
              double(raw_json_bytes) / 1024.0);
  std::printf("  statstore segments     %10.1f KiB (%zu segments)\n",
              double(store_bytes) / 1024.0,
              static_cast<size_t>(store.segment_count()));
  std::printf("  compression ratio      %10.1fx  (acceptance: >= 5x)\n",
              ratio);
  std::printf("  bytes per value        %10.2f\n", bytes_per_value);
  std::printf("  append mean / p99 / max  %6.1f / %6.1f / %6.1f us\n",
              append.mean / 1e3, append.p99 / 1e3, append.max / 1e3);
  std::printf("  full-range decode      %10.1f ms (%.1f Mpoints/s)\n",
              query_ms, mpoints_per_s);
  std::printf("  bit-exact mismatches   %10llu\n",
              static_cast<unsigned long long>(mismatches));

  std::filesystem::remove_all(dir);
  const bench::Json report =
      bench::Json::Object()
          .Set("epochs", kEpochs)
          .Set("series_per_epoch", values_per_epoch)
          .Set("raw_json_bytes", raw_json_bytes)
          .Set("store_bytes", store_bytes)
          .Set("compression_ratio", bench::Json(ratio, 2))
          .Set("bytes_per_value", bench::Json(bytes_per_value, 3))
          .Set("append_mean_us", bench::Json(append.mean / 1e3, 2))
          .Set("append_p99_us", bench::Json(append.p99 / 1e3, 2))
          .Set("append_max_us", bench::Json(append.max / 1e3, 2))
          .Set("query_full_ms", bench::Json(query_ms, 2))
          .Set("query_mpoints_per_s", bench::Json(mpoints_per_s, 2))
          .Set("bit_exact_mismatches", mismatches);
  if (!bench::WriteBenchJson("BENCH_statstore.json", report)) {
    return 1;
  }
  std::printf("  (acceptance: ratio >= 5, exact decode)\n");
  return ratio >= 5.0 && mismatches == 0 ? 0 : 1;
}
