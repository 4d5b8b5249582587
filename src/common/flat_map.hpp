// Sorted-vector map with deterministic iteration order.
//
// The simulator's per-structure bookkeeping (PAR-BS batch marks, page-policy
// counters, protocol shadow histories, ...) used to live in
// std::unordered_map. Keyed lookups there are deterministic, but any
// *iteration* observes hash-table order — a function of the libstdc++
// version, the allocator, and (for pointer keys) ASLR — which is exactly the
// kind of latent nondeterminism that would poison sharded simulation (one
// event queue per channel, merged by (when,seq)). FlatMap stores its entries
// as a vector sorted by key, so iteration order is the key order by
// construction: a walk over a FlatMap can feed reports, serialization, or
// scheduling decisions without an extra sort; a hash-ordered walk there is
// what ShardDifferentialGrid's restore-vs-cold checks catch.
//
// Shape: binary-searched sorted vector. O(log n) find, O(n) insert/erase
// (memmove). The simulator's maps are small (tens of batch marks, one entry
// per touched μbank) and lookup-dominated, where contiguous storage wins
// against node- or bucket-based maps; for large erase-heavy sets prefer
// std::map, which is equally deterministic.
//
// The interface is the subset of std::map the call sites use: find/count/
// at/operator[]/emplace/erase/clear/size/empty plus sorted begin()/end().
// ckpt::saveMapSorted accepts a FlatMap unchanged (key_type, iteration,
// at()), and writes the same bytes it wrote for the unordered original.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace mb {

template <typename K, typename V>
class FlatMap {
 public:
  using key_type = K;
  using mapped_type = V;
  using value_type = std::pair<K, V>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  iterator begin() { return entries_.begin(); }
  iterator end() { return entries_.end(); }
  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  void clear() { entries_.clear(); }
  void reserve(std::size_t n) { entries_.reserve(n); }

  iterator find(const K& key) {
    auto it = lower(key);
    return (it != entries_.end() && it->first == key) ? it : entries_.end();
  }
  const_iterator find(const K& key) const {
    auto it = lower(key);
    return (it != entries_.end() && it->first == key) ? it : entries_.end();
  }
  std::size_t count(const K& key) const { return find(key) != end() ? 1 : 0; }

  /// Keyed access; the key must be present (checked).
  V& at(const K& key) {
    auto it = find(key);
    MB_CHECK(it != end());
    return it->second;
  }
  const V& at(const K& key) const {
    auto it = find(key);
    MB_CHECK(it != end());
    return it->second;
  }

  /// Insert a default-constructed value when absent, as std::map does.
  V& operator[](const K& key) {
    auto it = lower(key);
    if (it == entries_.end() || it->first != key)
      it = entries_.insert(it, value_type(key, V()));
    return it->second;
  }

  /// Insert (key, value) when the key is absent; returns (position, inserted).
  template <typename... Args>
  std::pair<iterator, bool> emplace(const K& key, Args&&... args) {
    auto it = lower(key);
    if (it != entries_.end() && it->first == key) return {it, false};
    it = entries_.insert(it, value_type(key, V(std::forward<Args>(args)...)));
    return {it, true};
  }

  iterator erase(iterator pos) { return entries_.erase(pos); }
  std::size_t erase(const K& key) {
    auto it = find(key);
    if (it == end()) return 0;
    entries_.erase(it);
    return 1;
  }

 private:
  iterator lower(const K& key) {
    return std::lower_bound(
        entries_.begin(), entries_.end(), key,
        [](const value_type& e, const K& k) { return e.first < k; });
  }
  const_iterator lower(const K& key) const {
    return std::lower_bound(
        entries_.begin(), entries_.end(), key,
        [](const value_type& e, const K& k) { return e.first < k; });
  }

  std::vector<value_type> entries_;
};

}  // namespace mb
