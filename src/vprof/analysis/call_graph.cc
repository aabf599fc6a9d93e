#include "src/vprof/analysis/call_graph.h"

#include <algorithm>

#include "src/vprof/registry.h"

namespace vprof {

void CallGraph::AddEdge(std::string_view caller, std::string_view callee) {
  const FuncId from = RegisterFunction(caller);
  const FuncId to = RegisterFunction(callee);
  functions_.insert(from);
  functions_.insert(to);
  std::vector<FuncId>& kids = children_[from];
  if (std::find(kids.begin(), kids.end(), to) == kids.end()) {
    kids.push_back(to);
  }
  height_cache_.clear();
}

void CallGraph::AddFunction(std::string_view name) {
  functions_.insert(RegisterFunction(name));
}

std::vector<FuncId> CallGraph::Children(FuncId func) const {
  auto it = children_.find(func);
  return it == children_.end() ? std::vector<FuncId>{} : it->second;
}

bool CallGraph::HasChildren(FuncId func) const {
  auto it = children_.find(func);
  return it != children_.end() && !it->second.empty();
}

int CallGraph::HeightRecursive(FuncId func,
                               std::unordered_set<FuncId>& on_stack) const {
  auto cached = height_cache_.find(func);
  if (cached != height_cache_.end()) {
    return cached->second;
  }
  if (!on_stack.insert(func).second) {
    return 0;  // recursion: do not grow height along a cycle
  }
  int height = 0;
  auto it = children_.find(func);
  if (it != children_.end()) {
    for (FuncId child : it->second) {
      height = std::max(height, 1 + HeightRecursive(child, on_stack));
    }
  }
  on_stack.erase(func);
  height_cache_[func] = height;
  return height;
}

int CallGraph::Height(FuncId func) const {
  std::unordered_set<FuncId> on_stack;
  return HeightRecursive(func, on_stack);
}

std::vector<FuncId> CallGraph::Functions() const {
  return std::vector<FuncId>(functions_.begin(), functions_.end());
}

}  // namespace vprof
