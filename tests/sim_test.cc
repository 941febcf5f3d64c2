#include <cstdint>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "sim/event_queue.h"
#include "sim/network.h"
#include "sim/resource.h"
#include "sim/simulation.h"

namespace crayfish::sim {
namespace {

TEST(EventQueueTest, OrdersByTimeThenSequence) {
  EventQueue q;
  std::vector<int> order;
  q.Push(2.0, [&] { order.push_back(2); });
  q.Push(1.0, [&] { order.push_back(1); });
  q.Push(1.0, [&] { order.push_back(11); });  // same time, later seq
  while (!q.empty()) q.Pop().action();
  EXPECT_EQ(order, (std::vector<int>{1, 11, 2}));
}

// Differential check of the kernel's ordering against a reference
// (time, seq) sort. Rounds interleave outside scheduling with partial
// Run(until) drains, and fired actions schedule children, so pushes and
// pops interleave the way real runs do and freed slots are reused. Times
// sit on a 1/8 s grid (many exact ties), and some requests lie in the
// past (ScheduleAt) or have negative delays (Schedule): both clamp to now.
// Both outside the run and from inside running actions, random Cancels
// hit pending events (any heap position, so the moved-in last key sifts
// up or down), ids that already ran or were cancelled (their slots are
// usually reused by then), and the running action's own id. A cancel
// succeeds exactly when the reference still holds the event; a cancelled
// action never runs and its captures are released at once.
TEST(EventQueueTest, MatchesReferenceSortUnderInterleavedPushPop) {
  Simulation sim;
  Rng rng(20240917);
  // (time, seq, id) — the seq mirrors the kernel's scheduling counter.
  using RefKey = std::tuple<SimTime, uint64_t, int>;
  std::set<RefKey> pending;
  std::map<int, RefKey> pending_by_id;
  std::vector<EventId> handles;  // by id; stale once the event is settled
  std::vector<std::weak_ptr<int>> captures;  // by id
  uint64_t next_seq = 0;
  int fired = 0;
  int cancelled = 0;
  int stale_rejected = 0;

  const auto cancel = [&](int id) {
    auto it = pending_by_id.find(id);
    const bool expected = it != pending_by_id.end();
    EXPECT_EQ(sim.Cancel(handles[static_cast<size_t>(id)]), expected)
        << "id " << id;
    if (!expected) {
      ++stale_rejected;
      return;
    }
    pending.erase(it->second);
    pending_by_id.erase(it);
    EXPECT_TRUE(captures[static_cast<size_t>(id)].expired()) << "id " << id;
    ++cancelled;
  };
  // Cancels a random id: half the time a pending one, otherwise any id
  // scheduled so far (most of those are stale).
  const auto cancel_random = [&] {
    if (!pending_by_id.empty() && rng.Bernoulli(0.5)) {
      auto it = pending_by_id.begin();
      std::advance(it, rng.NextUint64(pending_by_id.size()));
      cancel(it->first);
    } else if (!handles.empty()) {
      cancel(static_cast<int>(rng.NextUint64(handles.size())));
    }
  };

  std::function<void()> schedule_random = [&] {
    const int id = static_cast<int>(handles.size());
    const SimTime grid = 0.125 * static_cast<double>(rng.NextUint64(16));
    auto token = std::make_shared<int>(id);
    captures.push_back(token);
    auto action = [&, id, token] {
      ASSERT_FALSE(pending.empty());
      const auto& [time, seq, expected_id] = *pending.begin();
      EXPECT_EQ(id, expected_id);
      EXPECT_EQ(*token, id);
      EXPECT_EQ(sim.Now(), time);
      pending_by_id.erase(expected_id);
      pending.erase(pending.begin());
      ++fired;
      // The running event is no longer pending: cancelling it is stale.
      if (rng.Bernoulli(0.2)) cancel(id);
      for (uint64_t k = rng.NextUint64(5) / 2; k > 0; --k) schedule_random();
      if (rng.Bernoulli(0.3)) cancel_random();
    };
    SimTime at;
    EventId handle;
    if (rng.Bernoulli(0.5)) {
      const SimTime delay = rng.Bernoulli(0.2) ? -grid : grid;
      at = sim.Now() + (delay < 0.0 ? 0.0 : delay);
      handle = sim.Schedule(delay, std::move(action));
    } else {
      const SimTime time = sim.Now() + grid - 1.0;  // past when grid < 1
      at = time < sim.Now() ? sim.Now() : time;
      handle = sim.ScheduleAt(time, std::move(action));
    }
    token.reset();
    handles.push_back(handle);
    const RefKey key{at, next_seq++, id};
    pending.insert(key);
    pending_by_id.emplace(id, key);
  };

  for (int round = 0; round < 400; ++round) {
    for (uint64_t k = rng.NextUint64(6); k > 0; --k) schedule_random();
    for (uint64_t k = rng.NextUint64(3); k > 0; --k) cancel_random();
    const SimTime until = sim.Now() + 0.125 * rng.NextUint64(6);
    sim.Run(until);
    ASSERT_EQ(sim.pending_events(), pending.size());
    if (!pending.empty()) {
      EXPECT_GT(std::get<0>(*pending.begin()), until);
    }
  }
  sim.RunUntilIdle();
  EXPECT_TRUE(pending.empty());
  EXPECT_EQ(fired + cancelled, static_cast<int>(handles.size()));
  EXPECT_GT(fired, 1000);
  EXPECT_GT(cancelled, 100);
  EXPECT_GT(stale_rejected, 100);
  // A default id names no event.
  EXPECT_FALSE(sim.Cancel(EventId{}));
}

// Cancelling an interior key moves the heap's last key into the hole. In
// a 4-ary heap built in push order as {0 | 10 1 1 1 | 11 11 11 11 | 2},
// the last key (2, a grandchild of the root via index 2) lands under the
// 10 at index 1 when the 11 at index 5 is cancelled, so it must sift up.
TEST(EventQueueTest, CancelSiftsTheMovedKeyUp) {
  EventQueue q;
  std::vector<double> order;
  std::vector<EventId> ids;
  for (double t : {0.0, 10.0, 1.0, 1.0, 1.0, 11.0, 11.0, 11.0, 11.0, 2.0}) {
    ids.push_back(q.Push(t, [&order, t] { order.push_back(t); }));
  }
  ASSERT_TRUE(q.Cancel(ids[5]));
  EXPECT_EQ(q.size(), 9u);
  while (!q.empty()) q.Pop().action();
  EXPECT_EQ(order, (std::vector<double>{0, 1, 1, 1, 2, 10, 11, 11, 11}));
}

// An id whose event ran is stale even after its slot is reused, and
// Cancel releases the parked action's captures without running it.
TEST(EventQueueTest, CancelRejectsStaleIdsAndReleasesCaptures) {
  EventQueue q;
  auto token = std::make_shared<int>(7);
  bool ran = false;
  const EventId first = q.Push(1.0, [&ran] { ran = true; });
  q.Pop().action();
  EXPECT_TRUE(ran);
  EXPECT_FALSE(q.Cancel(first));  // already ran
  const EventId reused = q.Push(2.0, [token, &ran] { ran = false; });
  EXPECT_EQ(reused.slot, first.slot);
  EXPECT_FALSE(q.Cancel(first));  // same slot, other seq
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(token.use_count(), 2);
  EXPECT_TRUE(q.Cancel(reused));
  EXPECT_EQ(token.use_count(), 1);  // the capture went with the event
  EXPECT_FALSE(q.Cancel(reused));   // already cancelled
  EXPECT_TRUE(q.empty());
  EXPECT_TRUE(ran);  // the cancelled action never ran
  // The cancelled slot is reused first, like a popped one.
  EXPECT_EQ(q.Push(3.0, [] {}).slot, reused.slot);
}

// A running action schedules enough events to grow the slot array many
// times over. The action reads its own captures afterwards, which is only
// sound because the queue moved it out of its slot before it ran (under
// ASan, running it in place is a heap-use-after-free).
TEST(EventQueueTest, ActionMayGrowSlotArrayWhileRunning) {
  Simulation sim;
  std::vector<int> order;
  const uint64_t marker = 0xC0FFEE;
  sim.Schedule(1.0, [&sim, &order, marker] {
    for (int i = 0; i < 1000; ++i) {
      sim.Schedule(1.0 + 0.001 * (i % 7), [&order, i] { order.push_back(i); });
    }
    EXPECT_EQ(marker, 0xC0FFEEu);
    order.push_back(-1);
  });
  EXPECT_EQ(sim.RunUntilIdle(), 1001u);
  ASSERT_EQ(order.size(), 1001u);
  EXPECT_EQ(order.front(), -1);
  // Children fire by (time, seq): offset class i % 7, then scheduling order.
  std::vector<int> expected;
  for (int offset = 0; offset < 7; ++offset) {
    for (int i = offset; i < 1000; i += 7) expected.push_back(i);
  }
  EXPECT_EQ(std::vector<int>(order.begin() + 1, order.end()), expected);
}

// A callable that counts how often the queue relocates it.
struct MoveCounter {
  static inline uint64_t moves = 0;
  MoveCounter() = default;
  MoveCounter(MoveCounter&&) noexcept { ++moves; }
  MoveCounter& operator=(MoveCounter&&) = delete;
  void operator()() {}
};

// Relocations per event in a steady state of one pop and one push per
// event, with `depth` events pending throughout.
uint64_t MovesForSteadyState(size_t depth, int events) {
  EventQueue q;
  Rng rng(99);
  for (size_t i = 0; i < depth; ++i) q.Push(rng.NextDouble(), MoveCounter{});
  MoveCounter::moves = 0;
  for (int k = 0; k < events; ++k) {
    Event e = q.Pop();
    e.action();
    q.Push(e.time + rng.NextDouble(), MoveCounter{});
  }
  return MoveCounter::moves;
}

// Actions are parked once and only keys are sifted, so the number of
// relocations per event must not grow with queue depth.
TEST(EventQueueTest, ActionMovesPerEventIndependentOfDepth) {
  constexpr int kEvents = 4096;
  const uint64_t shallow = MovesForSteadyState(64, kEvents);
  const uint64_t deep = MovesForSteadyState(65536, kEvents);
  EXPECT_GT(shallow, 0u);
  EXPECT_EQ(shallow, deep) << "moves/event: shallow "
                           << static_cast<double>(shallow) / kEvents
                           << ", deep " << static_cast<double>(deep) / kEvents;
}

TEST(SimulationTest, ClockAdvancesMonotonically) {
  Simulation sim;
  std::vector<double> times;
  sim.Schedule(0.5, [&] { times.push_back(sim.Now()); });
  sim.Schedule(0.1, [&] { times.push_back(sim.Now()); });
  sim.Schedule(0.1, [&] {
    times.push_back(sim.Now());
    sim.Schedule(0.05, [&] { times.push_back(sim.Now()); });
  });
  sim.RunUntilIdle();
  ASSERT_EQ(times.size(), 4u);
  EXPECT_DOUBLE_EQ(times[0], 0.1);
  EXPECT_DOUBLE_EQ(times[1], 0.1);
  EXPECT_DOUBLE_EQ(times[2], 0.15);
  EXPECT_DOUBLE_EQ(times[3], 0.5);
}

TEST(SimulationTest, RunHonorsHorizon) {
  Simulation sim;
  int fired = 0;
  sim.Schedule(1.0, [&] { ++fired; });
  sim.Schedule(3.0, [&] { ++fired; });
  sim.Run(2.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.Now(), 2.0);  // clock advances to horizon
  sim.Run(4.0);
  EXPECT_EQ(fired, 2);
}

TEST(SimulationTest, NegativeDelayClampsToNow) {
  Simulation sim;
  sim.Schedule(1.0, [&] {
    sim.Schedule(-5.0, [&] { EXPECT_DOUBLE_EQ(sim.Now(), 1.0); });
  });
  sim.RunUntilIdle();
}

TEST(SimulationDeathTest, NaNDelayOrTimeIsRejected) {
  Simulation sim;
  const SimTime nan = std::numeric_limits<SimTime>::quiet_NaN();
  EXPECT_DEATH(sim.Schedule(nan, [] {}), "Schedule: delay is -?nan");
  EXPECT_DEATH(sim.ScheduleAt(nan, [] {}), "ScheduleAt: time is -?nan");
}

TEST(SimulationTest, StopInterruptsRun) {
  Simulation sim;
  int fired = 0;
  sim.Schedule(1.0, [&] {
    ++fired;
    sim.Stop();
  });
  sim.Schedule(2.0, [&] { ++fired; });
  sim.Run(10.0);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(SimulationTest, DeterministicRngForks) {
  Simulation a(7);
  Simulation b(7);
  EXPECT_EQ(a.ForkRng().NextUint64(), b.ForkRng().NextUint64());
}

TEST(SimulationTest, TimeHelpers) {
  EXPECT_DOUBLE_EQ(FromMillis(250.0), 0.25);
  EXPECT_DOUBLE_EQ(ToMillis(0.25), 250.0);
  EXPECT_DOUBLE_EQ(FromMicros(500.0), 0.0005);
}

// ----------------------------------------------------------- server pool --

TEST(ServerPoolTest, SingleServerSerializesJobs) {
  Simulation sim;
  ServerPool pool(&sim, "p", 1);
  std::vector<double> done_at;
  for (int i = 0; i < 3; ++i) {
    pool.Submit(1.0, [&](SimTime) { done_at.push_back(sim.Now()); });
  }
  sim.RunUntilIdle();
  ASSERT_EQ(done_at.size(), 3u);
  EXPECT_DOUBLE_EQ(done_at[0], 1.0);
  EXPECT_DOUBLE_EQ(done_at[1], 2.0);
  EXPECT_DOUBLE_EQ(done_at[2], 3.0);
  EXPECT_EQ(pool.completed(), 3u);
}

TEST(ServerPoolTest, MultipleServersRunConcurrently) {
  Simulation sim;
  ServerPool pool(&sim, "p", 3);
  std::vector<double> done_at;
  for (int i = 0; i < 3; ++i) {
    pool.Submit(1.0, [&](SimTime) { done_at.push_back(sim.Now()); });
  }
  sim.RunUntilIdle();
  for (double t : done_at) EXPECT_DOUBLE_EQ(t, 1.0);
}

TEST(ServerPoolTest, ReportsQueueWaitTime) {
  Simulation sim;
  ServerPool pool(&sim, "p", 1);
  std::vector<double> waits;
  pool.Submit(2.0, [&](SimTime w) { waits.push_back(w); });
  pool.Submit(1.0, [&](SimTime w) { waits.push_back(w); });
  sim.RunUntilIdle();
  ASSERT_EQ(waits.size(), 2u);
  EXPECT_DOUBLE_EQ(waits[0], 0.0);
  EXPECT_DOUBLE_EQ(waits[1], 2.0);
}

TEST(ServerPoolTest, ResizeGrowDispatchesQueuedJobs) {
  Simulation sim;
  ServerPool pool(&sim, "p", 1);
  std::vector<double> done_at;
  for (int i = 0; i < 4; ++i) {
    pool.Submit(1.0, [&](SimTime) { done_at.push_back(sim.Now()); });
  }
  sim.Schedule(0.5, [&] { pool.Resize(4); });
  sim.RunUntilIdle();
  ASSERT_EQ(done_at.size(), 4u);
  // First at t=1 (started immediately), the rest dispatched at 0.5.
  EXPECT_DOUBLE_EQ(done_at[0], 1.0);
  EXPECT_DOUBLE_EQ(done_at[3], 1.5);
}

TEST(ServerPoolTest, UtilizationReflectsBusyTime) {
  Simulation sim;
  ServerPool pool(&sim, "p", 2);
  pool.Submit(1.0, nullptr);
  pool.Submit(1.0, nullptr);
  sim.Schedule(4.0, [] {});  // extend the run window to 4s
  sim.RunUntilIdle();
  EXPECT_NEAR(pool.Utilization(), 2.0 / 8.0, 1e-9);
}

TEST(ServerPoolTest, UtilizationReportAddsQueueWaitStats) {
  Simulation sim;
  ServerPool pool(&sim, "p", 1);
  pool.Submit(2.0, nullptr);  // runs immediately, wait 0
  pool.Submit(1.0, nullptr);  // waits 2s behind the first
  sim.RunUntilIdle();
  UtilizationStats stats = pool.UtilizationReport();
  EXPECT_DOUBLE_EQ(stats.span_s, 3.0);
  EXPECT_NEAR(stats.busy_ratio, 3.0 / 3.0, 1e-9);
  EXPECT_EQ(stats.wait_count, 2u);
  EXPECT_DOUBLE_EQ(stats.wait_mean_s, 1.0);
  EXPECT_DOUBLE_EQ(stats.wait_max_s, 2.0);
}

TEST(ServerPoolTest, UtilizationReportZeroSpanIsAllZero) {
  Simulation sim;
  ServerPool pool(&sim, "p", 2);
  // No simulated time has elapsed since construction: the span<=0 early
  // return must yield a zero ratio, not NaN.
  UtilizationStats stats = pool.UtilizationReport();
  EXPECT_DOUBLE_EQ(stats.busy_ratio, 0.0);
  EXPECT_DOUBLE_EQ(stats.span_s, 0.0);
  EXPECT_EQ(stats.wait_count, 0u);
  EXPECT_DOUBLE_EQ(pool.Utilization(), 0.0);
}

// -------------------------------------------------------- serial executor --

TEST(SerialExecutorTest, RunsItemsBackToBack) {
  Simulation sim;
  SerialExecutor exec(&sim, "e");
  std::vector<double> done_at;
  exec.Post(1.0, [&] { done_at.push_back(sim.Now()); });
  exec.Post(0.5, [&] { done_at.push_back(sim.Now()); });
  sim.RunUntilIdle();
  ASSERT_EQ(done_at.size(), 2u);
  EXPECT_DOUBLE_EQ(done_at[0], 1.0);
  EXPECT_DOUBLE_EQ(done_at[1], 1.5);
  EXPECT_DOUBLE_EQ(exec.busy_time(), 1.5);
}

TEST(SerialExecutorTest, DeferredDurationComputedAtStart) {
  Simulation sim;
  SerialExecutor exec(&sim, "e");
  double measured = -1.0;
  exec.Post(2.0, nullptr);
  exec.PostDeferred([&] { return sim.Now(); },  // 2.0 when started
                    [&] { measured = sim.Now(); });
  sim.RunUntilIdle();
  EXPECT_DOUBLE_EQ(measured, 4.0);  // started at 2, took 2
}

TEST(SerialExecutorTest, UtilizationReportTracksWaits) {
  Simulation sim;
  SerialExecutor exec(&sim, "e");
  exec.Post(1.0, nullptr);  // starts at 0, wait 0
  exec.Post(0.5, nullptr);  // starts at 1, wait 1
  sim.Schedule(2.0, [] {});  // pad the span to 2s
  sim.RunUntilIdle();
  UtilizationStats stats = exec.UtilizationReport();
  EXPECT_DOUBLE_EQ(stats.span_s, 2.0);
  EXPECT_NEAR(stats.busy_ratio, 1.5 / 2.0, 1e-9);
  EXPECT_EQ(stats.wait_count, 2u);
  EXPECT_DOUBLE_EQ(stats.wait_mean_s, 0.5);
  EXPECT_DOUBLE_EQ(stats.wait_max_s, 1.0);
}

TEST(SerialExecutorTest, UtilizationReportZeroSpanIsAllZero) {
  Simulation sim;
  SerialExecutor exec(&sim, "e");
  UtilizationStats stats = exec.UtilizationReport();
  EXPECT_DOUBLE_EQ(stats.busy_ratio, 0.0);
  EXPECT_DOUBLE_EQ(stats.span_s, 0.0);
}

// ----------------------------------------------------------------- network --

TEST(NetworkTest, TransferTimeIsLatencyPlusSerialization) {
  Simulation sim;
  Network net(&sim);
  ASSERT_TRUE(net.AddHost(Host{"a", 4, 1 << 30, false}).ok());
  ASSERT_TRUE(net.AddHost(Host{"b", 4, 1 << 30, false}).ok());
  LinkSpec spec;
  spec.latency_s = 0.01;
  spec.bandwidth_bytes_per_s = 1000.0;
  net.SetLinkSpec("a", "b", spec);
  double delivered = -1.0;
  net.Send("a", "b", 500, [&] { delivered = sim.Now(); });
  sim.RunUntilIdle();
  EXPECT_NEAR(delivered, 0.01 + 0.5, 1e-9);
}

TEST(NetworkTest, BandwidthSerializesLatencyOverlaps) {
  Simulation sim;
  Network net(&sim);
  ASSERT_TRUE(net.AddHost(Host{"a", 4, 1 << 30, false}).ok());
  ASSERT_TRUE(net.AddHost(Host{"b", 4, 1 << 30, false}).ok());
  LinkSpec spec;
  spec.latency_s = 0.1;
  spec.bandwidth_bytes_per_s = 1000.0;
  net.SetLinkSpec("a", "b", spec);
  std::vector<double> delivered;
  net.Send("a", "b", 1000, [&] { delivered.push_back(sim.Now()); });
  net.Send("a", "b", 1000, [&] { delivered.push_back(sim.Now()); });
  sim.RunUntilIdle();
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_NEAR(delivered[0], 1.1, 1e-9);   // tx [0,1] + latency
  EXPECT_NEAR(delivered[1], 2.1, 1e-9);   // tx [1,2] + latency
}

TEST(NetworkTest, LoopbackIsInstant) {
  Simulation sim;
  Network net(&sim);
  ASSERT_TRUE(net.AddHost(Host{"a", 4, 1 << 30, false}).ok());
  double delivered = -1.0;
  net.Send("a", "a", 1 << 20, [&] { delivered = sim.Now(); });
  sim.RunUntilIdle();
  EXPECT_DOUBLE_EQ(delivered, 0.0);
}

TEST(NetworkTest, DuplicateHostRejected) {
  Simulation sim;
  Network net(&sim);
  ASSERT_TRUE(net.AddHost(Host{"a", 4, 1 << 30, false}).ok());
  EXPECT_TRUE(net.AddHost(Host{"a", 4, 1 << 30, false})
                  .code() == crayfish::StatusCode::kAlreadyExists);
}

// Send skips the host checks only for a pair that already has a live link;
// a link out of the same source, or into the same destination, must not
// let an unknown host through.
TEST(NetworkDeathTest, SendToUnknownHostFailsEvenWithLinkFromSource) {
  Simulation sim;
  Network net(&sim);
  ASSERT_TRUE(net.AddHost(Host{"a", 4, 1 << 30, false}).ok());
  ASSERT_TRUE(net.AddHost(Host{"b", 4, 1 << 30, false}).ok());
  net.Send("a", "b", 100, nullptr);
  ASSERT_EQ(net.live_link_count(), 1u);
  EXPECT_DEATH(net.Send("a", "ghost", 100, nullptr), "unknown host ghost");
}

TEST(NetworkDeathTest, SendFromUnknownHostFailsWhenDestinationIsKnown) {
  Simulation sim;
  Network net(&sim);
  ASSERT_TRUE(net.AddHost(Host{"a", 4, 1 << 30, false}).ok());
  ASSERT_TRUE(net.AddHost(Host{"b", 4, 1 << 30, false}).ok());
  net.Send("a", "b", 100, nullptr);
  EXPECT_DEATH(net.Send("ghost", "b", 100, nullptr), "unknown host ghost");
  EXPECT_DEATH(net.Send("ghost", "ghost", 100, nullptr),
               "unknown host ghost");
}

TEST(NetworkTest, TotalBytesAccounting) {
  Simulation sim;
  Network net(&sim);
  ASSERT_TRUE(net.AddHost(Host{"a", 4, 1 << 30, false}).ok());
  ASSERT_TRUE(net.AddHost(Host{"b", 4, 1 << 30, false}).ok());
  net.Send("a", "b", 100, nullptr);
  net.Send("b", "a", 50, nullptr);
  sim.RunUntilIdle();
  EXPECT_EQ(net.total_bytes_sent(), 150u);
}

TEST(NetworkTest, IdleTransferTimeMatchesDefaults) {
  Simulation sim;
  Network net(&sim);
  ASSERT_TRUE(net.AddHost(Host{"a", 4, 1 << 30, false}).ok());
  ASSERT_TRUE(net.AddHost(Host{"b", 4, 1 << 30, false}).ok());
  const LinkSpec& d = net.default_spec();
  EXPECT_NEAR(net.IdleTransferTime("a", "b", 0), d.latency_s, 1e-12);
  EXPECT_DOUBLE_EQ(net.IdleTransferTime("a", "a", 12345), 0.0);
}

TEST(NetworkTest, PaperPingCalibration) {
  // §4.2: ping (echo) of 3 KB ~= 0.945 ms; 64 KB ~= 1.565 ms. An echo is
  // two transfers and two propagation delays.
  Simulation sim;
  Network net(&sim);
  ASSERT_TRUE(net.AddHost(Host{"a", 4, 1 << 30, false}).ok());
  ASSERT_TRUE(net.AddHost(Host{"b", 4, 1 << 30, false}).ok());
  const double rtt_3k = 2.0 * net.IdleTransferTime("a", "b", 3 * 1024);
  const double rtt_64k = 2.0 * net.IdleTransferTime("a", "b", 64 * 1024);
  EXPECT_NEAR(rtt_3k, 0.000945, 0.0002);
  EXPECT_NEAR(rtt_64k, 0.001565, 0.0003);
}

}  // namespace
}  // namespace crayfish::sim
