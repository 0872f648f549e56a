// Slab/pool allocators for the placement hot path.
//
// The event loop used to pay one allocator round-trip per bin open (vector
// reallocation) and two per item lifetime (the active_/departures_
// vectors inside BinState). Both disappear here:
//
//  * StableVector<T>: a chunked slab. push_back never moves existing
//    elements, so pointers and references into it are stable for the life
//    of the container -- BinState addresses returned by open_bin_state(),
//    and Item addresses handed to policies, never dangle.
//    Indexing is two loads (chunk pointer, then element); chunks are
//    allocated geometrically like vector's growth but never copied.
//
//  * UsagePool: a free-listed slab of usage-interval nodes
//    {item, departure, next}. Every open bin's active set is a singly
//    linked list threaded through the pool; add/remove of an item is a
//    pointer splice plus a free-list push -- no per-event new/delete.
//    Nodes are uint32-indexed, so a bin's whole active set costs 16
//    bytes/item and the pool serves every bin of a Dispatcher from
//    the same few slabs (the MrWSI bin.c exemplar builds its packing
//    core on exactly this mempool shape).
//
// Neither container is thread-safe; each Dispatcher (one per shard in the
// sharded service) owns its own instances.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/types.hpp"

namespace dvbp {

/// Chunked slab vector: amortized O(1) push_back with STABLE addresses.
/// Supports exactly what the Dispatcher needs: emplace_back, operator[],
/// size, and forward iteration. Elements are destroyed only when the
/// container is destroyed or clear()ed -- there is no erase.
template <typename T>
class StableVector {
 public:
  /// Elements per chunk; 64 keeps a chunk of BinState around 8KiB and
  /// makes the chunk math a shift instead of a division.
  static constexpr std::size_t kChunkSize = 64;

  StableVector() = default;
  StableVector(const StableVector&) = delete;
  StableVector& operator=(const StableVector&) = delete;
  StableVector(StableVector&&) noexcept = default;
  StableVector& operator=(StableVector&&) noexcept = default;
  ~StableVector() { clear(); }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  T& operator[](std::size_t i) noexcept {
    return *ptr(chunks_[i / kChunkSize].get(), i % kChunkSize);
  }
  const T& operator[](std::size_t i) const noexcept {
    return *ptr(chunks_[i / kChunkSize].get(), i % kChunkSize);
  }

  T& back() noexcept { return (*this)[size_ - 1]; }
  const T& back() const noexcept { return (*this)[size_ - 1]; }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == chunks_.size() * kChunkSize) {
      chunks_.push_back(std::make_unique<Storage[]>(kChunkSize));
    }
    T* slot = ptr(chunks_[size_ / kChunkSize].get(), size_ % kChunkSize);
    ::new (static_cast<void*>(slot)) T(std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }

  /// Destroys every element; keeps the slabs for reuse.
  void clear() noexcept {
    for (std::size_t i = size_; i > 0; --i) (*this)[i - 1].~T();
    size_ = 0;
  }

  template <bool Const>
  class Iter {
   public:
    using Parent = std::conditional_t<Const, const StableVector, StableVector>;
    using Ref = std::conditional_t<Const, const T&, T&>;
    Iter(Parent* p, std::size_t i) : p_(p), i_(i) {}
    Ref operator*() const noexcept { return (*p_)[i_]; }
    Iter& operator++() noexcept {
      ++i_;
      return *this;
    }
    bool operator!=(const Iter& o) const noexcept { return i_ != o.i_; }

   private:
    Parent* p_;
    std::size_t i_;
  };

  Iter<false> begin() noexcept { return {this, 0}; }
  Iter<false> end() noexcept { return {this, size_}; }
  Iter<true> begin() const noexcept { return {this, 0}; }
  Iter<true> end() const noexcept { return {this, size_}; }

 private:
  struct alignas(T) Storage {
    unsigned char bytes[sizeof(T)];
  };
  static T* ptr(Storage* chunk, std::size_t i) noexcept {
    return std::launder(reinterpret_cast<T*>(chunk[i].bytes));
  }
  static const T* ptr(const Storage* chunk, std::size_t i) noexcept {
    return std::launder(reinterpret_cast<const T*>(chunk[i].bytes));
  }

  std::vector<std::unique_ptr<Storage[]>> chunks_;
  std::size_t size_ = 0;
};

/// One usage interval: item `item` occupies its bin until `departure`.
/// `next` threads the owning bin's active list through the pool.
struct UsageNode {
  ItemId item = kNoItem;
  Time departure = 0.0;
  std::uint32_t next = 0;
};

/// Free-listed slab of UsageNodes, shared by every bin of one
/// Dispatcher. Indices (not pointers) identify nodes, so the
/// backing slabs can be StableVector chunks and a node handle is 4 bytes.
class UsagePool {
 public:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  std::uint32_t alloc(ItemId item, Time departure) {
    std::uint32_t idx;
    if (free_head_ != kNil) {
      idx = free_head_;
      free_head_ = nodes_[idx].next;
    } else {
      idx = static_cast<std::uint32_t>(nodes_.size());
      nodes_.emplace_back();
    }
    nodes_[idx] = UsageNode{item, departure, kNil};
    return idx;
  }

  void release(std::uint32_t idx) noexcept {
    nodes_[idx].next = free_head_;
    free_head_ = idx;
  }

  UsageNode& operator[](std::uint32_t idx) noexcept { return nodes_[idx]; }
  const UsageNode& operator[](std::uint32_t idx) const noexcept {
    return nodes_[idx];
  }

  /// Nodes ever allocated (live + free-listed); capacity diagnostics.
  std::size_t slab_size() const noexcept { return nodes_.size(); }

 private:
  StableVector<UsageNode> nodes_;
  std::uint32_t free_head_ = kNil;
};

/// Free-listed doubly-linked list of BinIds over a chunked slab --
/// std::list's splice-to-front interface without its per-node heap
/// allocations. Node handles are uint32 slab indices (stable for the
/// node's lifetime), so a caller can keep a BinId -> node map and erase
/// or move-to-front in O(1) without searching. MoveToFront's MRU list is
/// the intended customer: one list per policy, nodes recycled through the
/// free list as bins open and close.
class IndexList {
 public:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  bool empty() const noexcept { return head_ == kNil; }
  std::size_t size() const noexcept { return size_; }
  std::uint32_t head() const noexcept { return head_; }

  BinId front() const noexcept { return nodes_[head_].value; }
  BinId value(std::uint32_t node) const noexcept {
    return nodes_[node].value;
  }
  std::uint32_t next(std::uint32_t node) const noexcept {
    return nodes_[node].next;
  }

  /// Inserts `value` at the front; returns its node handle.
  std::uint32_t push_front(BinId value) {
    const std::uint32_t idx = alloc(value);
    link_front(idx);
    ++size_;
    return idx;
  }

  /// Inserts `value` at the back; returns its node handle (restore path).
  std::uint32_t push_back(BinId value) {
    const std::uint32_t idx = alloc(value);
    Node& n = nodes_[idx];
    n.prev = tail_;
    n.next = kNil;
    if (tail_ != kNil) {
      nodes_[tail_].next = idx;
    } else {
      head_ = idx;
    }
    tail_ = idx;
    ++size_;
    return idx;
  }

  /// Unlinks `node` and recycles it through the free list.
  void erase(std::uint32_t node) noexcept {
    unlink(node);
    nodes_[node].next = free_head_;
    free_head_ = node;
    --size_;
  }

  /// Moves `node` to the front (no-op when already there).
  void move_to_front(std::uint32_t node) noexcept {
    if (head_ == node) return;
    unlink(node);
    link_front(node);
  }

  /// Empties the list; keeps the slab for reuse.
  void clear() noexcept {
    // Thread every live node onto the free list in one walk.
    std::uint32_t cur = head_;
    while (cur != kNil) {
      const std::uint32_t nxt = nodes_[cur].next;
      nodes_[cur].next = free_head_;
      free_head_ = cur;
      cur = nxt;
    }
    head_ = tail_ = kNil;
    size_ = 0;
  }

 private:
  struct Node {
    BinId value = kNoBin;
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;  ///< doubles as the free-list link
  };

  std::uint32_t alloc(BinId value) {
    std::uint32_t idx;
    if (free_head_ != kNil) {
      idx = free_head_;
      free_head_ = nodes_[idx].next;
    } else {
      idx = static_cast<std::uint32_t>(nodes_.size());
      nodes_.emplace_back();
    }
    nodes_[idx] = Node{value, kNil, kNil};
    return idx;
  }

  void link_front(std::uint32_t node) noexcept {
    Node& n = nodes_[node];
    n.prev = kNil;
    n.next = head_;
    if (head_ != kNil) {
      nodes_[head_].prev = node;
    } else {
      tail_ = node;
    }
    head_ = node;
  }

  void unlink(std::uint32_t node) noexcept {
    Node& n = nodes_[node];
    if (n.prev != kNil) {
      nodes_[n.prev].next = n.next;
    } else {
      head_ = n.next;
    }
    if (n.next != kNil) {
      nodes_[n.next].prev = n.prev;
    } else {
      tail_ = n.prev;
    }
  }

  StableVector<Node> nodes_;
  std::uint32_t head_ = kNil;
  std::uint32_t tail_ = kNil;
  std::uint32_t free_head_ = kNil;
  std::size_t size_ = 0;
};

}  // namespace dvbp
