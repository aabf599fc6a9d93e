// Position search over one thread's trace records (segments or invocations),
// which are ordered by start time. Shared by the critical-path walk and the
// variance tree's overlap search.
#ifndef SRC_VPROF_ANALYSIS_SEEK_H_
#define SRC_VPROF_ANALYSIS_SEEK_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "src/vprof/types.h"

namespace vprof {

// Index of the first record starting at or after `t`. The search gallops
// out from `*cursor`, the previous answer on the same thread, and leaves the
// new answer there: successive searches on one thread are close in time, so
// it touches a few records near the last answer instead of binary-searching
// the whole per-thread array from cold. Any cursor value is valid.
template <typename Record>
size_t SeekFirstAtOrAfter(const std::vector<Record>& records, TimeNs t,
                          size_t* cursor) {
  const auto before = [t](const Record& r) { return r.start < t; };
  const size_t n = records.size();
  const size_t pos = std::min(*cursor, n);
  size_t lo = 0;  // the answer lies in [lo, hi]
  size_t hi = n;
  if (pos < n && before(records[pos])) {
    lo = pos + 1;
    for (size_t step = 1; pos + step < n; step *= 2) {
      if (!before(records[pos + step])) {
        hi = pos + step;
        break;
      }
      lo = pos + step + 1;
    }
  } else {
    hi = pos;
    for (size_t step = 1; step <= pos; step *= 2) {
      if (before(records[pos - step])) {
        lo = pos - step + 1;
        break;
      }
      hi = pos - step;
    }
  }
  *cursor = static_cast<size_t>(
      std::partition_point(records.begin() + static_cast<ptrdiff_t>(lo),
                           records.begin() + static_cast<ptrdiff_t>(hi),
                           before) -
      records.begin());
  return *cursor;
}

}  // namespace vprof

#endif  // SRC_VPROF_ANALYSIS_SEEK_H_
