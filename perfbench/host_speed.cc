#include "host_speed.h"

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <vector>

namespace perfbench {
namespace {

volatile uint64_t sink = 0;

struct Event {
  double time = 0.0;
  std::function<void()> action;
  bool operator<(const Event& other) const { return time > other.time; }
};

}  // namespace

double CalibrationKernelSeconds() {
  const auto start = std::chrono::steady_clock::now();
  std::priority_queue<Event> queue;
  std::map<uint64_t, uint64_t> table;
  uint64_t state = 1;
  uint64_t work = 0;
  for (int i = 0; i < 1000; ++i) {
    queue.push(Event{static_cast<double>(i), [&work]() { ++work; }});
  }
  for (int i = 0; i < 100000; ++i) {
    Event e = queue.top();
    queue.pop();
    e.action();
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    table[state >> 40] += 1;
    if (table.size() > 2000) table.erase(table.begin());
    std::vector<char> buffer(64 + (state >> 58), 1);
    queue.push(Event{e.time + static_cast<double>(state >> 50),
                     [&work, buffer]() { work += buffer.size(); }});
  }
  sink = work + table.size();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace perfbench
