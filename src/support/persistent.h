// Persistent (structurally-shared) containers for fork-heavy state.
//
// The reverse engine forks a hypothesis every time the backward search
// branches; anything the hypothesis owns by value is copied per fork. These
// containers make that copy O(delta) instead of O(total): an immutable,
// shared_ptr-shared spine holds the bulk of the data, and each copy carries
// only a small private tail/delta, one flat vector, so copying a container
// costs at most one allocation. They all follow the CowOverlay recipe
// (src/res/snapshot.h): writes land in the private part; once the private
// part grows past a threshold it is frozen into the shared spine.
//
// Thread-safety (same contract as CowOverlay): the frozen spine is immutable
// and reference-counted through std::shared_ptr, so any number of threads
// may concurrently copy containers that share a spine, read through them,
// and drop copies. The private tail/delta is NOT synchronized: mutating
// members require that the writing thread exclusively owns this particular
// copy — which the engine's ownership protocol guarantees (each engine step
// mutates only the hypothesis it owns).
#ifndef RES_SUPPORT_PERSISTENT_H_
#define RES_SUPPORT_PERSISTENT_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

namespace res {

// Append-only vector with O(delta) copies: a chain of immutable chunks plus
// a small private tail. Iteration is always in insertion order.
template <typename T>
class PersistentVector {
 public:
  size_t size() const {
    return (frozen_ ? frozen_->size_before + frozen_->items.size() : 0) +
           tail_.size();
  }
  bool empty() const { return size() == 0; }

  void push_back(T value) {
    tail_.push_back(std::move(value));
    if (tail_.size() >= kChunkSize) {
      Freeze();
    }
  }

  // Visits every element in insertion order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    std::vector<const Chunk*> chain;
    for (const Chunk* c = frozen_.get(); c != nullptr; c = c->prev.get()) {
      chain.push_back(c);
    }
    for (size_t i = chain.size(); i-- > 0;) {
      for (const T& v : chain[i]->items) {
        fn(v);
      }
    }
    for (const T& v : tail_) {
      fn(v);
    }
  }

  // Appends elements [from, size()) to `out` in insertion order. Cost is
  // O(size() - from): chunks entirely below `from` are skipped, which keeps
  // warm incremental solver checks (copy only the unabsorbed suffix)
  // proportional to the delta.
  void AppendSuffixTo(size_t from, std::vector<T>* out) const {
    std::vector<const Chunk*> chain;
    for (const Chunk* c = frozen_.get(); c != nullptr; c = c->prev.get()) {
      if (c->size_before + c->items.size() <= from) {
        break;  // this chunk and everything older lies below `from`
      }
      chain.push_back(c);
    }
    for (size_t i = chain.size(); i-- > 0;) {
      const Chunk* c = chain[i];
      size_t start = from > c->size_before ? from - c->size_before : 0;
      out->insert(out->end(), c->items.begin() + static_cast<ptrdiff_t>(start),
                  c->items.end());
    }
    size_t tail_base =
        frozen_ ? frozen_->size_before + frozen_->items.size() : 0;
    size_t start = from > tail_base ? from - tail_base : 0;
    if (start < tail_.size()) {
      out->insert(out->end(), tail_.begin() + static_cast<ptrdiff_t>(start),
                  tail_.end());
    }
  }

  void AppendTo(std::vector<T>* out) const { AppendSuffixTo(0, out); }

  std::vector<T> Materialize() const {
    std::vector<T> out;
    out.reserve(size());
    AppendTo(&out);
    return out;
  }

 private:
  struct Chunk {
    std::vector<T> items;
    std::shared_ptr<const Chunk> prev;  // older elements
    size_t size_before = 0;             // total elements in `prev` chain
  };

  static constexpr size_t kChunkSize = 32;

  void Freeze() {
    auto chunk = std::make_shared<Chunk>();
    chunk->size_before =
        frozen_ ? frozen_->size_before + frozen_->items.size() : 0;
    chunk->items = std::move(tail_);
    chunk->prev = frozen_;
    frozen_ = std::move(chunk);
    tail_.clear();
  }

  std::shared_ptr<const Chunk> frozen_;  // immutable, structure-shared
  std::vector<T> tail_;                  // private to this copy
};

// Last-write-wins map with O(delta) copies. This is the generic form of the
// snapshot memory overlay (CowOverlay is a thin wrapper around it), and the
// single home of the layer-chain/freeze/flatten recipe: PersistentSet and
// PersistentEraseSet below are thin wrappers too.
//
// Every part is a flat vector of (key, value) entries. The private delta
// holds at most kFreezeThreshold - 1 distinct keys in first-write order, so
// copying a map costs one allocation (none while the delta is empty), and a
// lookup scans it linearly. A freeze sorts the delta by key and moves it,
// buffer and all, into a new immutable layer; lookups binary-search each
// layer, newest first.
//
// `FlattenKeep` is a stateless predicate over values consulted ONLY when a
// too-deep chain is flattened into a single parentless layer: entries it
// rejects are dropped instead of copied, and a dropped key reads as absent —
// which is exactly the last-write-wins meaning of a tombstone once no older
// layer remains to shadow. The default keeps everything.
template <typename V>
struct FlattenKeepAll {
  bool operator()(const V&) const { return true; }
};

template <typename K, typename V, typename FlattenKeep = FlattenKeepAll<V>>
class PersistentMap {
 public:
  // Pointer to the value stored for `key`, or nullptr when absent. The
  // pointer is invalidated by the next Set on this copy.
  const V* Find(const K& key) const {
    for (const Entry& e : delta_) {
      if (e.first == key) {
        return &e.second;
      }
    }
    for (const Layer* l = frozen_.get(); l != nullptr; l = l->parent.get()) {
      auto it = std::lower_bound(l->entries.begin(), l->entries.end(), key,
                                 [](const Entry& e, const K& k) {
                                   return std::less<K>()(e.first, k);
                                 });
      if (it != l->entries.end() && it->first == key) {
        return &it->second;
      }
    }
    return nullptr;
  }

  void Set(K key, V value) {
    for (Entry& e : delta_) {
      if (e.first == key) {
        e.second = std::move(value);
        return;
      }
    }
    delta_.emplace_back(std::move(key), std::move(value));
    if (delta_.size() >= kFreezeThreshold) {
      Freeze();
    }
  }

  // Visits every live (key, value) pair exactly once, with its newest value,
  // in ascending key order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    std::vector<const Entry*> all;  // newest first
    all.reserve(delta_.size() +
                (frozen_ ? frozen_->depth * kFreezeThreshold : 0));
    for (const Entry& e : delta_) {
      all.push_back(&e);
    }
    for (const Layer* l = frozen_.get(); l != nullptr; l = l->parent.get()) {
      for (const Entry& e : l->entries) {
        all.push_back(&e);
      }
    }
    // Stable: among equal keys the newest stays first.
    std::stable_sort(all.begin(), all.end(), [](const Entry* a, const Entry* b) {
      return std::less<K>()(a->first, b->first);
    });
    for (size_t i = 0; i < all.size(); ++i) {
      if (i == 0 || all[i]->first != all[i - 1]->first) {
        fn(all[i]->first, all[i]->second);
      }
    }
  }

  // Number of distinct keys (counts shadowed writes once).
  size_t DistinctCount() const {
    size_t n = 0;
    ForEach([&n](const K&, const V&) { ++n; });
    return n;
  }

 private:
  using Entry = std::pair<K, V>;
  struct Layer {
    std::vector<Entry> entries;  // sorted by key, keys unique
    std::shared_ptr<const Layer> parent;
    size_t depth = 1;  // chain length including this layer
  };

  static constexpr size_t kFreezeThreshold = 16;
  static constexpr size_t kMaxChainDepth = 32;

  void Freeze() {
    const size_t depth = frozen_ ? frozen_->depth : 0;
    auto layer = std::make_shared<Layer>();
    if (depth + 1 > kMaxChainDepth) {
      // Chain too deep for fast lookups: flatten everything into one layer,
      // dropping entries FlattenKeep rejects (e.g. tombstones — absent and
      // rejected read identically once no parent layer remains). ForEach
      // visits in key order, so the layer comes out sorted.
      layer->entries.reserve(delta_.size() + kFreezeThreshold * depth);
      ForEach([&layer](const K& key, const V& value) {
        if (FlattenKeep()(value)) {
          layer->entries.emplace_back(key, value);
        }
      });
    } else {
      std::sort(delta_.begin(), delta_.end(),
                [](const Entry& a, const Entry& b) {
                  return std::less<K>()(a.first, b.first);
                });
      layer->entries = std::move(delta_);
      layer->parent = std::move(frozen_);
      layer->depth = depth + 1;
    }
    frozen_ = std::move(layer);
    delta_.clear();
  }

  std::shared_ptr<const Layer> frozen_;  // immutable, structure-shared
  std::vector<Entry> delta_;             // private to this copy
};

// Insert-only set with O(delta) copies: a PersistentMap whose values carry
// no information. The per-copy size counter rides along with each copy
// (layers are disjoint because insert() checks membership first), so size()
// never walks the chain.
template <typename T>
class PersistentSet {
 public:
  bool contains(const T& v) const { return map_.Find(v) != nullptr; }

  // Returns true when `v` was newly inserted (mirrors std::set::insert).
  bool insert(const T& v) {
    if (contains(v)) {
      return false;
    }
    map_.Set(v, Unit{});
    ++size_;
    return true;
  }

  size_t size() const { return size_; }

 private:
  struct Unit {};

  PersistentMap<T, Unit> map_;
  size_t size_ = 0;
};

// Set supporting erase, with O(delta) copies: membership is a
// last-write-wins boolean over the PersistentMap layer chain (erase writes a
// tombstone), plus a per-copy live count so emptiness checks stay O(1). Used
// for fold state that both grows and shrinks along a hypothesis chain (e.g.
// the origin fold's live def-use frontier), where a plain std::set would be
// value-copied in full at every fork.
template <typename T>
class PersistentEraseSet {
 public:
  bool contains(const T& v) const {
    const bool* present = map_.Find(v);
    return present != nullptr && *present;
  }

  // Returns true when `v` was newly inserted (mirrors std::set::insert).
  bool insert(const T& v) {
    if (contains(v)) {
      return false;
    }
    map_.Set(v, true);
    ++live_;
    return true;
  }

  // Returns true when `v` was present (mirrors std::set::erase).
  bool erase(const T& v) {
    if (!contains(v)) {
      return false;
    }
    map_.Set(v, false);
    --live_;
    return true;
  }

  size_t size() const { return live_; }
  bool empty() const { return live_ == 0; }

 private:
  // Flatten filter: keep live members only, so erase-heavy folds do not
  // accumulate one retained tombstone per ever-inserted key.
  struct KeepLive {
    bool operator()(const bool& present) const { return present; }
  };

  PersistentMap<T, bool, KeepLive> map_;
  size_t live_ = 0;  // live membership count
};

}  // namespace res

#endif  // RES_SUPPORT_PERSISTENT_H_
