// Performance harness for the simulator's host-side hot paths. Four
// measurements, each against an in-binary baseline that reproduces the
// pre-optimization implementation:
//
//  1. DES micro — events/sec through the event queue. Baseline: the old
//     std::function action + std::priority_queue design. Optimized: the
//     real sim::EventQueue (InlineAction SBO + implicit 4-ary min-heap
//     with a reused backing store).
//  2. Records — records/sec through a producer → log → fan-out-consumer
//     delivery chain. Baseline: payload bytes copied per delivery (the
//     old Bytes-by-value Record). Optimized: the real broker::Record,
//     whose payload is a shared immutable buffer.
//  3. Sweep — wall-clock for a small figure-style sweep, --jobs=1 vs all
//     hardware threads through core::SweepRunner.
//  4. Cluster construct — standing up a 1000-host fleet with a
//     256-partition topic; asserts no link state materializes.
//
// Emits BENCH_perf.json (in --out, default the working directory) so the
// numbers are tracked per commit. Wall-clock reads are fine here: this
// binary measures the host, it never runs inside a simulation.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <queue>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "broker/cluster.h"
#include "broker/record.h"
#include "core/experiment.h"
#include "core/sweep.h"
#include "sim/event_queue.h"
#include "sim/network.h"
#include "sim/simulation.h"

namespace crayfish::bench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// 1. DES micro
// ---------------------------------------------------------------------------

/// The pre-optimization event-queue design, kept verbatim as the baseline:
/// type-erased std::function actions (heap-allocating for captures beyond
/// ~16 bytes) ordered by a binary std::priority_queue that cannot reuse its
/// storage across pops.
struct LegacyEvent {
  double time = 0.0;
  uint64_t seq = 0;
  std::function<void()> action;
};

struct LegacyAfter {
  bool operator()(const LegacyEvent& a, const LegacyEvent& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

// The workload both queues execute: a self-rescheduling event mesh. Each
// handler captures 32 bytes (context pointer, two doubles, one counter —
// the shape of the simulator's timer closures: above std::function's
// 16-byte inline buffer, inside InlineAction's 48-byte one) and
// reschedules itself until kMicroEvents have run, with kMicroWidth events
// in flight so the heap stays populated.
constexpr uint64_t kMicroEvents = 2'000'000;
constexpr int kMicroWidth = 256;

struct LegacyCtx {
  std::priority_queue<LegacyEvent, std::vector<LegacyEvent>, LegacyAfter>
      queue;
  uint64_t executed = 0;
  uint64_t sum = 0;
  uint64_t seq = 0;

  void Schedule(double time, uint64_t payload) {
    LegacyCtx* self = this;
    const double a = time * 1.5;
    const double b = time + 0.25;
    const uint64_t c = payload;
    queue.push({time, seq++, [self, a, b, c]() {
                  self->sum += c + static_cast<uint64_t>(a < b);
                  ++self->executed;
                  if (self->executed + self->queue.size() < kMicroEvents) {
                    self->Schedule(a + b, c + 1);
                  }
                }});
  }
};

double LegacyEventsPerSec(uint64_t* checksum) {
  LegacyCtx ctx;
  const auto start = Clock::now();
  for (int i = 0; i < kMicroWidth; ++i) {
    ctx.Schedule(1.0 + 0.001 * i, static_cast<uint64_t>(i));
  }
  while (!ctx.queue.empty()) {
    // priority_queue::top() is const — the pre-optimization code paid a
    // copy of the std::function here, exactly as reproduced.
    LegacyEvent e = ctx.queue.top();
    ctx.queue.pop();
    e.action();
  }
  const double elapsed = SecondsSince(start);
  *checksum = ctx.sum;
  return static_cast<double>(ctx.executed) / elapsed;
}

struct OptimizedCtx {
  sim::EventQueue queue;
  uint64_t executed = 0;
  uint64_t sum = 0;

  void Schedule(double time, uint64_t payload) {
    OptimizedCtx* self = this;
    const double a = time * 1.5;
    const double b = time + 0.25;
    const uint64_t c = payload;
    queue.Push(time, sim::InlineAction([self, a, b, c]() {
                 self->sum += c + static_cast<uint64_t>(a < b);
                 ++self->executed;
                 if (self->executed + self->queue.size() < kMicroEvents) {
                   self->Schedule(a + b, c + 1);
                 }
               }));
  }
};

double OptimizedEventsPerSec(uint64_t* checksum) {
  OptimizedCtx ctx;
  ctx.queue.Reserve(kMicroWidth + 1);
  const auto start = Clock::now();
  for (int i = 0; i < kMicroWidth; ++i) {
    ctx.Schedule(1.0 + 0.001 * i, static_cast<uint64_t>(i));
  }
  while (!ctx.queue.empty()) {
    sim::Event e = ctx.queue.Pop();
    e.action();
  }
  const double elapsed = SecondsSince(start);
  *checksum = ctx.sum;
  return static_cast<double>(ctx.executed) / elapsed;
}

// ---------------------------------------------------------------------------
// 2. Record fan-out
// ---------------------------------------------------------------------------

constexpr int kRecordCount = 200'000;
constexpr int kFanOut = 4;
constexpr size_t kPayloadBytes = 512;

/// The old ownership model: every delivery materializes its own copy of
/// the payload bytes (producer → log append, then log → each consumer).
struct CopyRecord {
  uint64_t batch_id = 0;
  Bytes payload;
};

double CopyRecordsPerSec(uint64_t* checksum) {
  const Bytes payload(kPayloadBytes, 0x5a);
  std::vector<CopyRecord> log;
  log.reserve(kRecordCount);
  uint64_t sum = 0;
  const auto start = Clock::now();
  for (int i = 0; i < kRecordCount; ++i) {
    CopyRecord produced{static_cast<uint64_t>(i), payload};  // producer copy
    log.push_back({produced.batch_id, produced.payload});    // append copy
    for (int c = 0; c < kFanOut; ++c) {
      CopyRecord delivered{log.back().batch_id, log.back().payload};
      sum += delivered.payload[static_cast<size_t>(c)];
    }
  }
  const double elapsed = SecondsSince(start);
  *checksum = sum;
  return static_cast<double>(kRecordCount) / elapsed;
}

double SharedRecordsPerSec(uint64_t* checksum) {
  std::vector<broker::Record> log;
  log.reserve(kRecordCount);
  uint64_t sum = 0;
  const auto start = Clock::now();
  for (int i = 0; i < kRecordCount; ++i) {
    broker::Record produced;
    produced.batch_id = static_cast<uint64_t>(i);
    produced.SetPayload(Bytes(kPayloadBytes, 0x5a));  // materialized once
    log.push_back(produced);                          // refcount bump
    for (int c = 0; c < kFanOut; ++c) {
      broker::Record delivered = log.back();  // refcount bump per consumer
      sum += (*delivered.payload)[static_cast<size_t>(c)];
    }
  }
  const double elapsed = SecondsSince(start);
  *checksum = sum;
  return static_cast<double>(kRecordCount) / elapsed;
}

// ---------------------------------------------------------------------------
// 3. Sweep wall-clock
// ---------------------------------------------------------------------------

std::vector<core::ExperimentConfig> SweepConfigs() {
  // A Fig. 6-style slice: one engine/tool, parallelism swept, two repeats
  // per point — eight independent simulations.
  std::vector<core::ExperimentConfig> configs;
  for (int mp : {1, 2, 4, 8}) {
    core::ExperimentConfig cfg = ThroughputConfig("flink", "onnx", "ffnn");
    cfg.parallelism = mp;
    cfg.duration_s = 6.0;
    for (core::ExperimentConfig& rep : core::MakeRepeatedConfigs(cfg, 2)) {
      configs.push_back(std::move(rep));
    }
  }
  return configs;
}

double SweepWallClock(const std::vector<core::ExperimentConfig>& configs,
                      int jobs) {
  const auto start = Clock::now();
  auto results = core::RunExperiments(configs, jobs);
  CRAYFISH_CHECK(results.ok()) << results.status().ToString();
  CRAYFISH_CHECK(results->size() == configs.size());
  return SecondsSince(start);
}

// --- section 4: lean cluster construction ----------------------------------
// Cost of standing up the autoscaler's cluster-scale topology: a 1000-host
// fleet with a 256-partition topic. With lazy per-partition bookkeeping and
// lazily created links this is linear in hosts + partitions; the
// live-link count doubles as evidence that nothing quadratic materialized.

constexpr int kClusterHosts = 1000;
constexpr int kClusterPartitions = 256;

struct ClusterConstructResult {
  double wall_s = 0.0;
  size_t live_links = 0;
};

ClusterConstructResult ClusterConstruct() {
  const auto start = Clock::now();
  sim::Simulation sim(7);
  sim::Network network(&sim);
  for (int i = 0; i < kClusterHosts; ++i) {
    char name[32];
    std::snprintf(name, sizeof(name), "fleet-%04d", i);
    const auto s = network.AddHost(sim::Host{name, /*vcpus=*/4,
                                             /*memory_bytes=*/15ULL << 30,
                                             /*has_gpu=*/false});
    CRAYFISH_CHECK(s.ok()) << s.ToString();
  }
  broker::KafkaCluster cluster(&sim, &network, broker::ClusterConfig{});
  const auto created = cluster.CreateTopic("wide", kClusterPartitions);
  CRAYFISH_CHECK(created.ok()) << created.ToString();
  ClusterConstructResult r;
  r.wall_s = SecondsSince(start);
  r.live_links = network.live_link_count();
  CRAYFISH_CHECK(r.live_links == 0)
      << "lean construction materialized " << r.live_links << " links";
  return r;
}

// ---------------------------------------------------------------------------

void RunHarness() {
  std::printf("bench_perf_harness: DES micro (%llu events, width %d)...\n",
              static_cast<unsigned long long>(kMicroEvents), kMicroWidth);
  uint64_t legacy_sum = 0;
  uint64_t optimized_sum = 0;
  // Warm-up pass each, then the measured pass.
  (void)LegacyEventsPerSec(&legacy_sum);
  (void)OptimizedEventsPerSec(&optimized_sum);
  const double legacy_eps = LegacyEventsPerSec(&legacy_sum);
  const double optimized_eps = OptimizedEventsPerSec(&optimized_sum);
  CRAYFISH_CHECK(legacy_sum == optimized_sum)
      << "baseline and optimized queues executed different workloads";
  const double micro_speedup = optimized_eps / legacy_eps;
  std::printf("  legacy    %12.0f events/s\n", legacy_eps);
  std::printf("  optimized %12.0f events/s   (%.2fx)\n", optimized_eps,
              micro_speedup);

  std::printf("bench_perf_harness: record fan-out (%d records x %d "
              "consumers, %zu B payload)...\n",
              kRecordCount, kFanOut, kPayloadBytes);
  uint64_t copy_sum = 0;
  uint64_t shared_sum = 0;
  (void)CopyRecordsPerSec(&copy_sum);
  (void)SharedRecordsPerSec(&shared_sum);
  const double copy_rps = CopyRecordsPerSec(&copy_sum);
  const double shared_rps = SharedRecordsPerSec(&shared_sum);
  CRAYFISH_CHECK(copy_sum == shared_sum);
  const double record_speedup = shared_rps / copy_rps;
  std::printf("  copy      %12.0f records/s\n", copy_rps);
  std::printf("  shared    %12.0f records/s   (%.2fx)\n", shared_rps,
              record_speedup);

  const unsigned hw = std::thread::hardware_concurrency();
  const int parallel_jobs = core::ResolveSweepJobs(0);
  const std::vector<core::ExperimentConfig> configs = SweepConfigs();
  std::printf("bench_perf_harness: sweep wall-clock (%zu sims, jobs=1 vs "
              "jobs=%d, %u hardware threads)...\n",
              configs.size(), parallel_jobs, hw);
  const double serial_s = SweepWallClock(configs, 1);
  const double parallel_s = SweepWallClock(configs, parallel_jobs);
  const double sweep_speedup = serial_s / parallel_s;
  std::printf("  jobs=1    %8.2f s\n", serial_s);
  std::printf("  jobs=%-4d %8.2f s   (%.2fx)\n", parallel_jobs, parallel_s,
              sweep_speedup);

  std::printf("bench_perf_harness: cluster construct (%d hosts, "
              "%d partitions, lazy broker state)...\n",
              kClusterHosts, kClusterPartitions);
  (void)ClusterConstruct();
  const ClusterConstructResult cluster = ClusterConstruct();
  std::printf("  construct  %8.3f s  %zu live links\n", cluster.wall_s,
              cluster.live_links);

  // The JSON lands in the working directory, not out_dir: unlike the
  // generated CSVs it is committed, so the perf trajectory is diffable
  // per PR.
  const std::string path = "BENCH_perf.json";
  std::ofstream out(path, std::ios::trunc);
  CRAYFISH_CHECK(static_cast<bool>(out)) << "cannot open " << path;
  char buf[4096];
  std::snprintf(
      buf, sizeof(buf),
      "{\n"
      "  \"hardware_concurrency\": %u,\n"
      "  \"des_micro\": {\n"
      "    \"events\": %llu,\n"
      "    \"legacy_events_per_s\": %.0f,\n"
      "    \"optimized_events_per_s\": %.0f,\n"
      "    \"speedup\": %.3f\n"
      "  },\n"
      "  \"record_fanout\": {\n"
      "    \"records\": %d,\n"
      "    \"fan_out\": %d,\n"
      "    \"payload_bytes\": %zu,\n"
      "    \"copy_records_per_s\": %.0f,\n"
      "    \"shared_records_per_s\": %.0f,\n"
      "    \"speedup\": %.3f\n"
      "  },\n"
      "  \"sweep\": {\n"
      "    \"simulations\": %zu,\n"
      "    \"parallel_jobs\": %d,\n"
      "    \"serial_wall_s\": %.3f,\n"
      "    \"parallel_wall_s\": %.3f,\n"
      "    \"speedup\": %.3f\n"
      "  },\n"
      "  \"cluster_construct\": {\n"
      "    \"hosts\": %d,\n"
      "    \"partitions\": %d,\n"
      "    \"wall_s\": %.3f,\n"
      "    \"live_links\": %zu,\n"
      "    \"note\": \"lazy links and null partition slots: "
      "construction is linear in hosts + partitions, no host-pair links or "
      "eager partition state\"\n"
      "  }\n"
      "}\n",
      hw, static_cast<unsigned long long>(kMicroEvents), legacy_eps,
      optimized_eps, micro_speedup, kRecordCount, kFanOut, kPayloadBytes,
      copy_rps, shared_rps, record_speedup, configs.size(), parallel_jobs,
      serial_s, parallel_s, sweep_speedup, kClusterHosts, kClusterPartitions,
      cluster.wall_s, cluster.live_links);
  out << buf;
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace
}  // namespace crayfish::bench

int main(int argc, char** argv) {
  crayfish::SetLogLevel(crayfish::LogLevel::kWarning);
  crayfish::bench::Init(argc, argv);
  crayfish::bench::RunHarness();
  return 0;
}
