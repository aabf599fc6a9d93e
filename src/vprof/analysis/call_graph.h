// Static call graph of the instrumentable functions of an application.
//
// The paper's source-to-source tool extracts caller/callee relationships from
// the source; it uses them to (a) pick which functions to instrument when
// expanding a factor and (b) assign each function a height — the maximum
// depth of the call tree beneath it — which feeds the specificity metric
// (Equation 3). Applications in this repository declare the same information
// explicitly by registering edges at startup.
#ifndef SRC_VPROF_ANALYSIS_CALL_GRAPH_H_
#define SRC_VPROF_ANALYSIS_CALL_GRAPH_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/vprof/types.h"

namespace vprof {

class CallGraph {
 public:
  // Declares that `caller` may invoke `callee`; registers both names.
  void AddEdge(std::string_view caller, std::string_view callee);

  // Declares a function with no outgoing edges (a leaf).
  void AddFunction(std::string_view name);

  // Direct callees of `func` (empty if none declared).
  std::vector<FuncId> Children(FuncId func) const;

  bool HasChildren(FuncId func) const;

  // Maximum depth of the call tree beneath `func`; 0 for a leaf. Cycles
  // (recursion) do not add height beyond the first visit.
  int Height(FuncId func) const;

  // All declared functions.
  std::vector<FuncId> Functions() const;

 private:
  int HeightRecursive(FuncId func,
                      std::unordered_set<FuncId>& on_stack) const;

  std::unordered_map<FuncId, std::vector<FuncId>> children_;
  std::unordered_set<FuncId> functions_;
  mutable std::unordered_map<FuncId, int> height_cache_;
};

}  // namespace vprof

#endif  // SRC_VPROF_ANALYSIS_CALL_GRAPH_H_
