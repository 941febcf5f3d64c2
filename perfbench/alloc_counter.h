#ifndef PERFBENCH_ALLOC_COUNTER_H_
#define PERFBENCH_ALLOC_COUNTER_H_

#include <cstdint>

namespace perfbench {

/// Heap allocations made through global operator new while counting was
/// on. The benchmark binary replaces operator new/delete (alloc_counter.cc);
/// the simulator itself is untouched, so counting cannot change a run.
struct AllocCounts {
  uint64_t calls = 0;
  uint64_t bytes = 0;
};

/// Zeroes the counters and starts counting (all threads).
void StartAllocCounting();
/// Stops counting and returns what was counted since the last start.
AllocCounts StopAllocCounting();

}  // namespace perfbench

#endif  // PERFBENCH_ALLOC_COUNTER_H_
