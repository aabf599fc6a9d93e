// The process-wide analysis pool: spreads the independent blocks of one
// analysis stage (trace vectors to load, interval ranges to walk, call-tree
// nodes to reduce) over every CPU the process may run on.
//
// There is one worker per CPU in the process's affinity mask, created on
// first use and bound to that CPU: a virtualized guest's scheduler does not
// wake a thread on an idle vCPU that the host has descheduled, so unbound
// workers can all queue on the caller's CPU and give no speedup. The caller
// runs blocks too, claiming them from the same atomic counter as the
// workers.
//
// The caller runs every block itself, in order, when there are fewer than
// two blocks, when the pool is already running another caller's blocks (a
// concurrent call, or a nested one from inside a block), in a child process
// after fork(), which has no workers, and while the calling thread holds an
// InlineBlocks. So a stage has one implementation: its per-block body, run
// wherever the block is claimed.
// Blocks must write disjoint outputs; a stage whose result is merged from
// blocks merges them in block order, so its output does not depend on which
// thread ran which block.
#ifndef SRC_VPROF_ANALYSIS_POOL_H_
#define SRC_VPROF_ANALYSIS_POOL_H_

#include <cstddef>
#include <cstdint>
#include <functional>

namespace vprof {

// Calls body(b) once for every b in [0, blocks) and returns when all have
// returned. An exception thrown by a block stops the blocks not yet claimed
// and is rethrown here once every running block has finished.
void RunBlocks(size_t blocks, const std::function<void(size_t block)>& body);

// Blocks run by pool workers (not by callers) since the process started.
uint64_t BlocksRunOnWorkers();

// While one is alive, every RunBlocks call this thread makes runs all its
// blocks on this thread. For analysis that runs inside the process being
// profiled, whose threads would lose their CPUs to the woken workers.
class InlineBlocks {
 public:
  InlineBlocks();
  ~InlineBlocks();
  InlineBlocks(const InlineBlocks&) = delete;
  InlineBlocks& operator=(const InlineBlocks&) = delete;
};

}  // namespace vprof

#endif  // SRC_VPROF_ANALYSIS_POOL_H_
