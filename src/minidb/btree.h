// In-memory B-tree used as minidb's clustered index.
//
// The traversal function is instrumented as `btr_cur_search_to_nth_level`:
// the paper identifies it as an *inherent* variance source in MySQL (runtime
// varies with the depth the traversal must reach, Table 4).
#ifndef SRC_MINIDB_BTREE_H_
#define SRC_MINIDB_BTREE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <vector>

namespace minidb {

// B-tree whose searches may run while a writer splits nodes: a shared
// latch per tree excludes them from Insert and Erase, matching InnoDB's
// index-level S/X latching at a coarse grain. minidb serializes the writers
// (and Range) on the table's index latch.
class BTree {
 public:
  explicit BTree(int fanout = 64);
  ~BTree();

  BTree(const BTree&) = delete;
  BTree& operator=(const BTree&) = delete;

  // Inserts or updates; returns true if a new key was inserted.
  bool Insert(int64_t key, uint64_t value);

  // Instrumented traversal (btr_cur_search_to_nth_level).
  std::optional<uint64_t> Search(int64_t key) const;

  // Removes a key; returns true if it was present. (Rebalancing is lazy:
  // underflowed nodes are tolerated, as in many production trees.)
  bool Erase(int64_t key);

  // Number of keys.
  size_t Size() const { return size_; }

  // Height of the tree (leaf = 1); the source of inherent search variance.
  int Height() const;

  // All keys in [lo, hi], ordered. Used by range queries (stock level).
  std::vector<std::pair<int64_t, uint64_t>> Range(int64_t lo, int64_t hi) const;

  // Validates B-tree invariants (ordering, key counts, uniform leaf depth);
  // returns false if violated. For tests.
  bool CheckInvariants() const;

 private:
  struct Node;

  Node* FindLeaf(int64_t key) const;
  void SplitChild(Node* parent, int index);
  bool InsertNonFull(Node* node, int64_t key, uint64_t value);
  bool CheckNode(const Node* node, int64_t lo, int64_t hi, int depth,
                 int* leaf_depth) const;

  mutable std::shared_mutex latch_;  // shared: Search; exclusive: writers
  int fanout_;
  size_t size_ = 0;
  std::unique_ptr<Node> root_;
};

}  // namespace minidb

#endif  // SRC_MINIDB_BTREE_H_
