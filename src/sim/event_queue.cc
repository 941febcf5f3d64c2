#include "sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace crayfish::sim {

uint64_t EventQueue::Push(SimTime time, InlineAction action) {
  const uint64_t seq = next_seq_++;
  heap_.push_back(Event{time, seq, std::move(action)});
  // Sift up with a hole: most events are scheduled later than their parent
  // (DES schedules into the future), so the common case is zero moves.
  size_t i = heap_.size() - 1;
  if (i > 0 && Before(heap_[i], heap_[(i - 1) / kArity])) {
    Event v = std::move(heap_[i]);
    do {
      const size_t parent = (i - 1) / kArity;
      if (!Before(v, heap_[parent])) break;
      heap_[i] = std::move(heap_[parent]);
      i = parent;
    } while (i > 0);
    heap_[i] = std::move(v);
  }
  return seq;
}

SimTime EventQueue::next_time() const {
  CRAYFISH_CHECK(!heap_.empty());
  return heap_.front().time;
}

Event EventQueue::Pop() {
  CRAYFISH_CHECK(!heap_.empty());
  Event top = std::move(heap_.front());
  Event last = std::move(heap_.back());
  heap_.pop_back();
  if (!heap_.empty()) {
    // Sift `last` down from the root with a hole; the vector keeps its
    // capacity, so the heap's storage is reused for the whole run.
    const size_t n = heap_.size();
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
      heap_[i] = std::move(heap_[best]);
      i = best;
    }
    heap_[i] = std::move(last);
  }
  return top;
}

}  // namespace crayfish::sim
