#ifndef CRAYFISH_SIM_EVENT_QUEUE_H_
#define CRAYFISH_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <cstddef>
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

/// Min-queue of events ordered by (time, seq).
///
/// The implicit 4-ary heap orders only 24-byte {time, seq, slot} keys; each
/// event's InlineAction is parked once in a reused slot array and never
/// moves while the event is pending. Sifting a key is a plain copy, where
/// sifting a whole Event would relocate its action through an indirect
/// call at every heap level. Real runs keep deep queues (about 1,400
/// pending in the Table 4 overload cell, almost all parked poll and fetch
/// timeouts), so each pop would otherwise drag several actions.
///
/// Pop() moves the action out of its slot before the caller runs it: a
/// running action may Push enough events to grow the slot array, so it
/// must not execute from inside that array.
class EventQueue {
 public:
  EventQueue() = default;

  /// Enqueues an action at an absolute time. Returns the event's sequence
  /// number (usable for debugging; cancellation is handled by guards at the
  /// call sites, not by the queue).
  uint64_t Push(SimTime time, InlineAction action);

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

  /// heap_[0, size_) is the heap. heap_[size_, end) is the LIFO free
  /// list: each entry's `slot` is a free slot, the most recently freed
  /// first. So heap_ and slots_ always have the same length.
  std::vector<Key> heap_;
  size_t size_ = 0;
  /// Parked actions, indexed by Key::slot. A free slot holds an empty
  /// action.
  std::vector<InlineAction> slots_;
  uint64_t next_seq_ = 0;
};

}  // namespace crayfish::sim

#endif  // CRAYFISH_SIM_EVENT_QUEUE_H_
