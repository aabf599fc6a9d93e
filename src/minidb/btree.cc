#include "src/minidb/btree.h"

#include <algorithm>
#include <mutex>

#include "src/vprof/probe.h"

namespace minidb {

struct BTree::Node {
  bool leaf = true;
  std::vector<int64_t> keys;
  std::vector<uint64_t> values;                // leaf only, parallel to keys
  std::vector<std::unique_ptr<Node>> children;  // internal only, keys.size()+1
};

BTree::BTree(int fanout) : fanout_(std::max(4, fanout)) {
  root_ = std::make_unique<Node>();
}

BTree::~BTree() = default;

int BTree::Height() const {
  int height = 1;
  const Node* node = root_.get();
  while (!node->leaf) {
    node = node->children[0].get();
    ++height;
  }
  return height;
}

BTree::Node* BTree::FindLeaf(int64_t key) const {
  Node* node = root_.get();
  while (!node->leaf) {
    const auto it = std::upper_bound(node->keys.begin(), node->keys.end(), key);
    node = node->children[static_cast<size_t>(it - node->keys.begin())].get();
    // Per-level page work (latch + header checks + binary-search cache
    // misses): the depth-dependent cost that makes
    // btr_cur_search_to_nth_level's variance *inherent* (paper Section 4.5).
    volatile uint64_t h = 1469598103934665603ull;
    for (int i = 0; i < 40; ++i) {
      h = (h ^ static_cast<uint64_t>(i)) * 1099511628211ull;
    }
  }
  return node;
}

std::optional<uint64_t> BTree::Search(int64_t key) const {
  VPROF_FUNC("btr_cur_search_to_nth_level");
  std::shared_lock<std::shared_mutex> latch(latch_);
  const Node* leaf = FindLeaf(key);
  const auto it = std::lower_bound(leaf->keys.begin(), leaf->keys.end(), key);
  if (it != leaf->keys.end() && *it == key) {
    return leaf->values[static_cast<size_t>(it - leaf->keys.begin())];
  }
  return std::nullopt;
}

void BTree::SplitChild(Node* parent, int index) {
  Node* child = parent->children[static_cast<size_t>(index)].get();
  auto right = std::make_unique<Node>();
  right->leaf = child->leaf;
  const size_t mid = child->keys.size() / 2;

  int64_t separator;
  if (child->leaf) {
    // Leaf split: right keeps [mid, end); separator is right's first key.
    right->keys.assign(child->keys.begin() + static_cast<long>(mid),
                       child->keys.end());
    right->values.assign(child->values.begin() + static_cast<long>(mid),
                         child->values.end());
    child->keys.resize(mid);
    child->values.resize(mid);
    separator = right->keys.front();
  } else {
    // Internal split: middle key moves up.
    separator = child->keys[mid];
    right->keys.assign(child->keys.begin() + static_cast<long>(mid) + 1,
                       child->keys.end());
    for (size_t i = mid + 1; i < child->children.size(); ++i) {
      right->children.push_back(std::move(child->children[i]));
    }
    child->keys.resize(mid);
    child->children.resize(mid + 1);
  }

  parent->keys.insert(parent->keys.begin() + index, separator);
  parent->children.insert(parent->children.begin() + index + 1, std::move(right));
}

bool BTree::InsertNonFull(Node* node, int64_t key, uint64_t value) {
  if (node->leaf) {
    const auto it = std::lower_bound(node->keys.begin(), node->keys.end(), key);
    const size_t pos = static_cast<size_t>(it - node->keys.begin());
    if (it != node->keys.end() && *it == key) {
      node->values[pos] = value;  // update in place
      return false;
    }
    node->keys.insert(it, key);
    node->values.insert(node->values.begin() + static_cast<long>(pos), value);
    return true;
  }
  auto it = std::upper_bound(node->keys.begin(), node->keys.end(), key);
  int index = static_cast<int>(it - node->keys.begin());
  if (node->children[static_cast<size_t>(index)]->keys.size() >=
      static_cast<size_t>(fanout_ - 1)) {
    SplitChild(node, index);
    if (key >= node->keys[static_cast<size_t>(index)]) {
      ++index;
    }
  }
  return InsertNonFull(node->children[static_cast<size_t>(index)].get(), key, value);
}

bool BTree::Insert(int64_t key, uint64_t value) {
  std::unique_lock<std::shared_mutex> latch(latch_);
  if (root_->keys.size() >= static_cast<size_t>(fanout_ - 1)) {
    auto new_root = std::make_unique<Node>();
    new_root->leaf = false;
    new_root->children.push_back(std::move(root_));
    root_ = std::move(new_root);
    SplitChild(root_.get(), 0);
  }
  const bool inserted = InsertNonFull(root_.get(), key, value);
  if (inserted) {
    ++size_;
  }
  return inserted;
}

bool BTree::Erase(int64_t key) {
  std::unique_lock<std::shared_mutex> latch(latch_);
  Node* leaf = FindLeaf(key);
  const auto it = std::lower_bound(leaf->keys.begin(), leaf->keys.end(), key);
  if (it == leaf->keys.end() || *it != key) {
    return false;
  }
  const size_t pos = static_cast<size_t>(it - leaf->keys.begin());
  leaf->keys.erase(it);
  leaf->values.erase(leaf->values.begin() + static_cast<long>(pos));
  --size_;
  return true;
}

std::vector<std::pair<int64_t, uint64_t>> BTree::Range(int64_t lo,
                                                       int64_t hi) const {
  std::vector<std::pair<int64_t, uint64_t>> out;
  // Iterative DFS collecting keys in [lo, hi].
  std::vector<const Node*> stack = {root_.get()};
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    if (node->leaf) {
      const auto first = std::lower_bound(node->keys.begin(), node->keys.end(), lo);
      for (auto it = first; it != node->keys.end() && *it <= hi; ++it) {
        out.emplace_back(*it,
                         node->values[static_cast<size_t>(it - node->keys.begin())]);
      }
      continue;
    }
    // Children overlapping [lo, hi], pushed in reverse for in-order output.
    const auto first =
        std::upper_bound(node->keys.begin(), node->keys.end(), lo) -
        node->keys.begin();
    auto last = static_cast<long>(
        std::upper_bound(node->keys.begin(), node->keys.end(), hi) -
        node->keys.begin());
    long begin_idx = std::max<long>(0, first - 1);
    // Ensure keys equal to lo in the left sibling subtree are included.
    for (long i = last; i >= begin_idx; --i) {
      stack.push_back(node->children[static_cast<size_t>(i)].get());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool BTree::CheckNode(const Node* node, int64_t lo, int64_t hi, int depth,
                      int* leaf_depth) const {
  if (!std::is_sorted(node->keys.begin(), node->keys.end())) {
    return false;
  }
  for (int64_t k : node->keys) {
    if (k < lo || k > hi) {
      return false;
    }
  }
  if (node->leaf) {
    if (node->values.size() != node->keys.size()) {
      return false;
    }
    if (*leaf_depth < 0) {
      *leaf_depth = depth;
    }
    return *leaf_depth == depth;
  }
  if (node->children.size() != node->keys.size() + 1) {
    return false;
  }
  for (size_t i = 0; i < node->children.size(); ++i) {
    const int64_t child_lo = i == 0 ? lo : node->keys[i - 1];
    const int64_t child_hi = i == node->keys.size() ? hi : node->keys[i];
    if (!CheckNode(node->children[i].get(), child_lo, child_hi, depth + 1,
                   leaf_depth)) {
      return false;
    }
  }
  return true;
}

bool BTree::CheckInvariants() const {
  int leaf_depth = -1;
  return CheckNode(root_.get(), INT64_MIN, INT64_MAX, 0, &leaf_depth);
}

}  // namespace minidb
