#include "sim/event_queue.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/logging.h"

namespace crayfish::sim {

EventId EventQueue::Push(SimTime time, InlineAction action) {
  const uint64_t seq = next_seq_++;
  if (size_ == slots_.size()) {
    // No free slot: add one, with its free-list entry just past the heap.
    CRAYFISH_CHECK_LT(slots_.size(), std::numeric_limits<uint32_t>::max());
    heap_.push_back(Key{0.0, 0, static_cast<uint32_t>(slots_.size())});
    slots_.emplace_back();
  }
  const Key key{time, seq, heap_[size_].slot};
  slots_[key.slot].action = std::move(action);
  // Most events are scheduled later than their parent (DES schedules into
  // the future), so the common case is zero moves.
  SiftUp(size_++, key);
  return EventId{seq, key.slot};
}

void EventQueue::SiftUp(size_t i, const Key& key) {
  while (i > 0) {
    const size_t parent = (i - 1) / kArity;
    if (!Before(key, heap_[parent])) break;
    Place(i, heap_[parent]);
    i = parent;
  }
  Place(i, key);
}

void EventQueue::SiftDown(size_t i, const Key& key) {
  const size_t n = size_;
  for (;;) {
    const size_t first_child = kArity * i + 1;
    if (first_child >= n) break;
    size_t best = first_child;
    const size_t end = std::min(first_child + kArity, n);
    for (size_t c = first_child + 1; c < end; ++c) {
      if (Before(heap_[c], heap_[best])) best = c;
    }
    if (!Before(heap_[best], key)) break;
    Place(i, heap_[best]);
    i = best;
  }
  Place(i, key);
}

SimTime EventQueue::next_time() const {
  CRAYFISH_CHECK(size_ > 0);
  return heap_.front().time;
}

Event EventQueue::Pop() {
  CRAYFISH_CHECK(size_ > 0);
  const Key top = heap_.front();
  const Key last = heap_[--size_];
  if (size_ > 0) SiftDown(0, last);
  // The popped slot heads the free list; its action leaves before it runs.
  heap_[size_] = top;
  return Event{top.time, top.seq, std::move(slots_[top.slot].action)};
}

bool EventQueue::Cancel(EventId id) {
  if (id.slot >= slots_.size()) return false;
  const size_t i = slots_[id.slot].pos;
  // A free slot's index is stale: it points past the heap or at a key with
  // another seq (seqs are never reused).
  if (i >= size_ || heap_[i].seq != id.seq) return false;
  const Key dead = heap_[i];
  const Key last = heap_[--size_];
  if (i < size_) {
    // `last` fills the hole; it may belong above or below it.
    if (i > 0 && Before(last, heap_[(i - 1) / kArity])) {
      SiftUp(i, last);
    } else {
      SiftDown(i, last);
    }
  }
  heap_[size_] = dead;
  // Destroyed on return, once the queue is consistent again: a capture's
  // destructor may itself schedule or cancel.
  InlineAction action = std::move(slots_[dead.slot].action);
  return true;
}

}  // namespace crayfish::sim
