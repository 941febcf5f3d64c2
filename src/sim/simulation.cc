#include "sim/simulation.h"

#include <cmath>

#include "common/logging.h"
#include "obs/timeline.h"  // lint: layering-ok instrumentation hook; obs reads state, never feeds it back

namespace crayfish::sim {

Simulation::Simulation(uint64_t seed) : seed_(seed), rng_(seed) {}

EventId Simulation::Schedule(SimTime delay, InlineAction action) {
  // A NaN key is unordered against every other key and would silently
  // break the heap invariant; fail at the call site instead.
  CRAYFISH_CHECK(!std::isnan(delay)) << "Schedule: delay is " << delay;
  if (delay < 0.0) delay = 0.0;
  return queue_.Push(now_ + delay, std::move(action));
}

EventId Simulation::ScheduleAt(SimTime time, InlineAction action) {
  CRAYFISH_CHECK(!std::isnan(time)) << "ScheduleAt: time is " << time;
  if (time < now_) time = now_;
  return queue_.Push(time, std::move(action));
}

int Simulation::RegisterHost(const std::string& name) {
  const int id = static_cast<int>(host_ids_.size());
  return host_ids_.emplace(name, id).first->second;
}

void Simulation::ScheduleOnHost(int host_id, SimTime delay,
                                InlineAction action) {
  CRAYFISH_CHECK_GE(host_id, 0) << "unregistered host";
  CRAYFISH_CHECK_LT(static_cast<size_t>(host_id), host_ids_.size());
  Schedule(delay, std::move(action));
}

void Simulation::ScheduleOnHost(const std::string& host, SimTime delay,
                                InlineAction action) {
  CRAYFISH_CHECK(host_ids_.count(host) > 0) << "unregistered host " << host;
  Schedule(delay, std::move(action));
}

void Simulation::SetLookahead(SimTime lookahead_s) {
  CRAYFISH_CHECK_GE(lookahead_s, 0.0);
}

uint64_t Simulation::Run(SimTime until) {
  // Log lines emitted by events carry the simulated timestamp; restore the
  // previous clock on every exit path.
  LogSimClock prev_clock =
      SetLogSimClock([this]() { return static_cast<double>(now_); });
  struct ClockRestorer {
    LogSimClock prev;
    ~ClockRestorer() { SetLogSimClock(std::move(prev)); }
  } restorer{std::move(prev_clock)};

  uint64_t executed = 0;
  stop_requested_ = false;
  while (!stop_requested_ && !queue_.empty()) {
    const SimTime t = queue_.next_time();
    if (t > until) break;
    CRAYFISH_CHECK_GE(t, now_);
    now_ = t;
    // Close timeline windows whose boundary this event crosses *before*
    // it leaves the queue: probes observe the state as of the boundary,
    // with the event still pending, no sampler events are scheduled, and
    // the event interleaving is untouched — enabling the timeline cannot
    // perturb the run.
    if (timeline_ != nullptr) timeline_->AdvanceTo(t);
    Event e = queue_.Pop();
    if (e.action) e.action();
    ++executed;
    ++events_executed_;
  }
  if (!stop_requested_ && now_ < until &&
      until != std::numeric_limits<SimTime>::infinity()) {
    // Advance the clock to the horizon so repeated Run(until) calls observe
    // monotonically increasing time even when events remain beyond it.
    now_ = until;
  }
  return executed;
}

}  // namespace crayfish::sim
