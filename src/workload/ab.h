// ApacheBench-style closed-loop HTTP client driver (the paper's Section 4.7
// workload: N concurrent clients fetching a small static page).
#ifndef SRC_WORKLOAD_AB_H_
#define SRC_WORKLOAD_AB_H_

#include <cstdint>
#include <vector>

#include "src/httpd/server.h"

namespace workload {

struct AbOptions {
  int clients = 8;
  int requests_per_client = 250;
  uint64_t seed = 77;
};

struct AbResult {
  std::vector<double> latencies_ns;  // served (200) requests only
  uint64_t completed = 0;
  uint64_t rejected = 0;  // shed by the server with 503
  double duration_s = 0.0;
  double requests_per_s = 0.0;
};

class AbDriver {
 public:
  AbDriver(httpd::HttpServer* server, const AbOptions& options);

  AbResult Run();

 private:
  httpd::HttpServer* server_;
  AbOptions options_;
};

}  // namespace workload

#endif  // SRC_WORKLOAD_AB_H_
