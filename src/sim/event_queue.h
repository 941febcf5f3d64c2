#ifndef CRAYFISH_SIM_EVENT_QUEUE_H_
#define CRAYFISH_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "sim/inline_action.h"

namespace crayfish::sim {

/// Simulated time in seconds since experiment start.
using SimTime = double;

/// A scheduled callback. Events with equal times fire in scheduling order
/// (the sequence number breaks ties), which keeps simulations deterministic.
struct Event {
  SimTime time = 0.0;
  uint64_t seq = 0;
  InlineAction action;
};

/// Handle of a pending event, returned by EventQueue::Push. It names the
/// event by its slot and sequence number; once the event has run or been
/// cancelled the handle is stale, and Cancel ignores it. A
/// default-constructed id is always stale.
struct EventId {
  uint64_t seq = std::numeric_limits<uint64_t>::max();
  uint32_t slot = 0;
};

/// Min-queue of events ordered by (time, seq).
///
/// The implicit 4-ary heap orders only 24-byte {time, seq, slot} keys; each
/// event's InlineAction is parked once in a reused slot array and never
/// moves while the event is pending. Sifting a key is a plain copy, where
/// sifting a whole Event would relocate its action through an indirect
/// call at every heap level.
///
/// Cancel removes a pending event in O(log n): each slot records its key's
/// heap index, kept current by every sift. Components cancel a timeout the
/// moment its guard settles (a poll answered by data, a long-poll woken by
/// an append), so the heap holds only events that will still do work.
///
/// Pop() moves the action out of its slot before the caller runs it: a
/// running action may Push enough events to grow the slot array, so it
/// must not execute from inside that array.
class EventQueue {
 public:
  EventQueue() = default;

  /// Enqueues an action at an absolute time. Returns the event's handle.
  EventId Push(SimTime time, InlineAction action);

  /// Removes a pending event and destroys its action without running it.
  /// Returns false, touching nothing, when `id` is stale: the event already
  /// ran (including the one running now) or was cancelled. The order of
  /// every other event is unchanged.
  bool Cancel(EventId id);

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  SimTime next_time() const;

  /// Removes and returns the earliest event; its slot is free for reuse.
  Event Pop();

  /// Pre-sizes the key heap and the slot array (both are reused for the
  /// whole run; this only avoids the first few growths of a large run).
  void Reserve(size_t n) {
    heap_.reserve(n);
    slots_.reserve(n);
  }

 private:
  static constexpr size_t kArity = 4;

  struct Key {
    SimTime time;
    uint64_t seq;
    uint32_t slot;
  };

  static bool Before(const Key& a, const Key& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  /// A parked action and the heap index of its key. The index sits in
  /// the action's tail padding (64 bytes together), so it costs no array
  /// and no allocation of its own. A free slot holds an empty action and a
  /// stale index.
  struct Slot {
    [[no_unique_address]] InlineAction action;
    uint32_t pos = 0;
  };

  /// Stores `key` at heap index `i` and records the index in its slot.
  void Place(size_t i, const Key& key) {
    heap_[i] = key;
    slots_[key.slot].pos = static_cast<uint32_t>(i);
  }
  /// Fills the hole at heap index `i` with `key`, sifting toward the root.
  void SiftUp(size_t i, const Key& key);
  /// Fills the hole at heap index `i` with `key`, sifting toward the leaves.
  void SiftDown(size_t i, const Key& key);

  /// heap_[0, size_) is the heap. heap_[size_, end) is the LIFO free
  /// list: each entry's `slot` is a free slot, the most recently freed
  /// first. So heap_ and slots_ always have the same length.
  std::vector<Key> heap_;
  size_t size_ = 0;
  /// Parked actions, indexed by Key::slot.
  std::vector<Slot> slots_;
  uint64_t next_seq_ = 0;
};

}  // namespace crayfish::sim

#endif  // CRAYFISH_SIM_EVENT_QUEUE_H_
