#include "sim/event_queue.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/logging.h"

namespace crayfish::sim {

uint64_t EventQueue::Push(SimTime time, InlineAction action) {
  const uint64_t seq = next_seq_++;
  if (size_ == slots_.size()) {
    // No free slot: add one, with its free-list entry just past the heap.
    CRAYFISH_CHECK_LT(slots_.size(), std::numeric_limits<uint32_t>::max());
    heap_.push_back(Key{0.0, 0, static_cast<uint32_t>(slots_.size())});
    slots_.emplace_back();
  }
  const Key key{time, seq, heap_[size_].slot};
  slots_[key.slot] = std::move(action);
  // Sift up with a hole: most events are scheduled later than their parent
  // (DES schedules into the future), so the common case is zero moves.
  size_t i = size_++;
  while (i > 0) {
    const size_t parent = (i - 1) / kArity;
    if (!Before(key, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = key;
  return seq;
}

SimTime EventQueue::next_time() const {
  CRAYFISH_CHECK(size_ > 0);
  return heap_.front().time;
}

Event EventQueue::Pop() {
  CRAYFISH_CHECK(size_ > 0);
  const Key top = heap_.front();
  const Key last = heap_[--size_];
  const size_t n = size_;
  if (n > 0) {
    // Sift `last` down from the root with a hole.
    size_t i = 0;
    for (;;) {
      const size_t first_child = kArity * i + 1;
      if (first_child >= n) break;
      size_t best = first_child;
      const size_t end = std::min(first_child + kArity, n);
      for (size_t c = first_child + 1; c < end; ++c) {
        if (Before(heap_[c], heap_[best])) best = c;
      }
      if (!Before(heap_[best], last)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = last;
  }
  // The popped slot heads the free list; its action leaves before it runs.
  heap_[n] = top;
  return Event{top.time, top.seq, std::move(slots_[top.slot])};
}

}  // namespace crayfish::sim
