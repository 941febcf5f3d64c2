#include "drivers.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <utility>
#include <vector>

#include "broker/cluster.h"
#include "broker/consumer.h"
#include "broker/producer.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/data_batch.h"
#include "core/generator.h"
#include "model/executor.h"
#include "model/graph.h"
#include "serving/external_server.h"
#include "serving/model_profile.h"
#include "sim/network.h"
#include "sim/simulation.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
namespace sim = crayfish::sim;
namespace broker = crayfish::broker;

/// Keeps results of timed calls observable so they cannot be elided.
volatile uint64_t sink = 0;

double NsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start)
      .count();
}

struct ChunkCost {
  double ns = 0.0;
  double units = 0.0;
  uint64_t kernel_events = 0;  ///< sim events the chunk executed
};

/// Repeats `chunk` for about `budget_s` (at least three times) and returns
/// the median of (chunk ns - kernel events x kernel_ns) / units.
double MedianNsPerUnit(double budget_s, double kernel_ns_per_event,
                       const std::function<ChunkCost()>& chunk) {
  std::vector<double> per_unit;
  const Clock::time_point start = Clock::now();
  while (per_unit.size() < 3 || NsSince(start) < budget_s * 1e9) {
    const ChunkCost c = chunk();
    const double own =
        c.ns - static_cast<double>(c.kernel_events) * kernel_ns_per_event;
    per_unit.push_back(std::max(0.0, own) / std::max(1.0, c.units));
  }
  std::sort(per_unit.begin(), per_unit.end());
  const size_t n = per_unit.size();
  return n % 2 == 1 ? per_unit[n / 2]
                    : 0.5 * (per_unit[n / 2 - 1] + per_unit[n / 2]);
}

sim::Host MakeHost(const std::string& name) {
  return sim::Host{name, /*vcpus=*/4, /*memory_bytes=*/15ULL << 30,
                   /*has_gpu=*/false};
}

/// Arms host-confined scheduling the way core::RunExperiment does, so
/// every component takes the path real runs take.
void FreezeLikeRunExperiment(sim::Simulation* s, sim::Network* network) {
  network->FreezeTopology();
  s->SetLookahead(network->MinLinkLatency());
}

/// Hold model for the kernel driver: every event schedules its successor
/// at a random delay, so the pending set stays at its initial depth.
struct HoldState {
  sim::Simulation* sim = nullptr;
  crayfish::Rng rng{1};
  uint64_t left = 0;
  int host = 0;
};

struct Hold {
  HoldState* state;
  void operator()() const {
    if (state->left == 0) return;
    --state->left;
    state->sim->ScheduleOnHost(state->host,
                               state->rng.Uniform(0.0, 2e-3), Hold{state});
  }
};

/// The FFNN's dense layers (model::BuildFfnn): in -> out features.
constexpr int64_t kFfnnLayers[][2] = {{784, 32}, {32, 32}, {32, 32}, {32, 10}};

}  // namespace

double SimNsPerEvent(size_t queue_depth, double budget_s) {
  const size_t depth = std::max<size_t>(queue_depth, 1);
  const uint64_t events = std::max<uint64_t>(20000, 4 * depth);
  return MedianNsPerUnit(budget_s, 0.0, [&]() {
    sim::Simulation s(7);
    HoldState state;
    state.sim = &s;
    state.host = s.RegisterHost("host");
    state.left = events;
    s.SetLookahead(sim::FromMicros(420));
    for (size_t i = 0; i < depth; ++i) {
      s.ScheduleOnHost(state.host, state.rng.Uniform(0.0, 2e-3),
                       Hold{&state});
    }
    const Clock::time_point start = Clock::now();
    s.Run();
    ChunkCost c;
    c.ns = NsSince(start);
    c.units = static_cast<double>(s.events_executed());
    return c;
  });
}

double NetworkNsPerSend(uint64_t bytes, double kernel_ns_per_event,
                        double budget_s) {
  constexpr int kSends = 4000;
  return MedianNsPerUnit(budget_s, kernel_ns_per_event, [&]() {
    sim::Simulation s(7);
    sim::Network network(&s);
    CRAYFISH_CHECK_OK(network.AddHost(MakeHost("a")));
    CRAYFISH_CHECK_OK(network.AddHost(MakeHost("b")));
    FreezeLikeRunExperiment(&s, &network);
    uint64_t delivered = 0;
    s.ScheduleOnHost("a", 0.0, [&network, &delivered, bytes]() {
      for (int i = 0; i < kSends; ++i) {
        network.Send("a", "b", bytes, [&delivered]() { ++delivered; });
      }
    });
    const Clock::time_point start = Clock::now();
    s.Run();
    ChunkCost c;
    c.ns = NsSince(start);
    c.units = kSends;
    c.kernel_events = s.events_executed();
    CRAYFISH_CHECK_EQ(delivered, static_cast<uint64_t>(kSends));
    return c;
  });
}

double BrokerNsPerProduce(uint64_t record_bytes, int partitions,
                          size_t retention_records, double rate_eps,
                          double kernel_ns_per_event, double budget_s) {
  constexpr uint64_t kRecords = 4000;
  // Paced at the workload's input rate, so batching and flush scheduling
  // follow the path its producer takes.
  const double gap_s = 1.0 / rate_eps;
  return MedianNsPerUnit(budget_s, kernel_ns_per_event, [&]() {
    sim::Simulation s(7);
    sim::Network network(&s);
    broker::KafkaCluster cluster(&s, &network, broker::ClusterConfig{});
    CRAYFISH_CHECK_OK(cluster.CreateTopic("in", partitions));
    CRAYFISH_CHECK_OK(cluster.SetTopicRetention("in", retention_records));
    CRAYFISH_CHECK_OK(network.AddHost(MakeHost("producer")));
    FreezeLikeRunExperiment(&s, &network);
    broker::KafkaProducer producer(&cluster, "producer");
    uint64_t sent = 0;
    uint64_t acked = 0;
    std::function<void()> emit = [&]() {
      broker::Record r;
      r.batch_id = sent;
      r.create_time = s.Now();
      r.wire_size = record_bytes;
      CRAYFISH_CHECK_OK(producer.Send("in", std::move(r),
                                      [&acked](crayfish::Status st) {
                                        if (st.ok()) ++acked;
                                      }));
      if (++sent < kRecords) s.ScheduleOnHost("producer", gap_s, emit);
    };
    s.ScheduleOnHost("producer", 0.0, emit);
    const Clock::time_point start = Clock::now();
    s.Run();
    ChunkCost c;
    c.ns = NsSince(start);
    c.units = static_cast<double>(kRecords);
    c.kernel_events = s.events_executed();
    CRAYFISH_CHECK_EQ(acked, kRecords);
    return c;
  });
}

double BrokerNsPerFetchedRecord(uint64_t record_bytes, int partitions,
                                double kernel_ns_per_event,
                                double budget_s) {
  const uint64_t records = 200ULL * static_cast<uint64_t>(partitions);
  return MedianNsPerUnit(budget_s, kernel_ns_per_event, [&]() {
    sim::Simulation s(7);
    sim::Network network(&s);
    broker::KafkaCluster cluster(&s, &network, broker::ClusterConfig{});
    CRAYFISH_CHECK_OK(cluster.CreateTopic("in", partitions));
    CRAYFISH_CHECK_OK(network.AddHost(MakeHost("producer")));
    CRAYFISH_CHECK_OK(network.AddHost(MakeHost("consumer")));
    FreezeLikeRunExperiment(&s, &network);
    {
      // Fill the log first; only the poll loop below is timed.
      broker::KafkaProducer producer(&cluster, "producer");
      s.ScheduleOnHost("producer", 0.0, [&]() {
        for (uint64_t i = 0; i < records; ++i) {
          broker::Record r;
          r.batch_id = i;
          r.wire_size = record_bytes;
          CRAYFISH_CHECK_OK(producer.Send("in", std::move(r)));
        }
      });
      s.Run();
    }
    const uint64_t before = s.events_executed();
    broker::KafkaConsumer consumer(&cluster, "consumer", "perfbench");
    std::vector<int> all(static_cast<size_t>(partitions));
    for (int p = 0; p < partitions; ++p) all[static_cast<size_t>(p)] = p;
    CRAYFISH_CHECK_OK(consumer.Assign("in", all, 0));
    uint64_t fetched = 0;
    std::function<void()> poll = [&]() {
      consumer.Poll(0.5, [&](std::vector<broker::Record> batch) {
        fetched += batch.size();
        if (fetched >= records) {
          s.Stop();
          return;
        }
        poll();
      });
    };
    poll();
    const Clock::time_point start = Clock::now();
    s.Run();
    ChunkCost c;
    c.ns = NsSince(start);
    c.units = static_cast<double>(records);
    c.kernel_events = s.events_executed() - before;
    CRAYFISH_CHECK_EQ(fetched, records);
    return c;
  });
}

double ServingNsPerRequest(const std::string& tool, int workers,
                           int batch_size, double kernel_ns_per_event,
                           double budget_s) {
  constexpr uint64_t kRequests = 2000;
  return MedianNsPerUnit(budget_s, kernel_ns_per_event, [&]() {
    sim::Simulation s(7);
    sim::Network network(&s);
    CRAYFISH_CHECK_OK(network.AddHost(MakeHost("client")));
    crayfish::serving::ExternalServerOptions opts;
    opts.workers = std::max(1, workers);
    opts.model = crayfish::serving::ModelProfile::ByName("ffnn");
    auto server_or =
        crayfish::serving::CreateExternalServer(&s, &network, tool, opts);
    CRAYFISH_CHECK_OK(server_or.status());
    crayfish::serving::ExternalServingServer* server = server_or->get();
    FreezeLikeRunExperiment(&s, &network);
    server->Start();
    uint64_t issued = 0;
    uint64_t done = 0;
    // Closed loop: one client per worker, each issuing its next request
    // when the previous one returns.
    std::function<void()> issue = [&]() {
      ++issued;
      server->Invoke("client", batch_size, [&]() {
        if (++done == kRequests) s.Stop();
        if (issued < kRequests) issue();
      });
    };
    for (int i = 0; i < opts.workers; ++i) {
      s.ScheduleOnHost("client", 0.0, [&]() {
        if (issued < kRequests) issue();
      });
    }
    const Clock::time_point start = Clock::now();
    s.Run();
    ChunkCost c;
    c.ns = NsSince(start);
    c.units = static_cast<double>(kRequests);
    c.kernel_events = s.events_executed();
    CRAYFISH_CHECK_EQ(done, kRequests);
    return c;
  });
}

double GeneratorNsPerRecord(const std::vector<int64_t>& sample_shape,
                            int batch_size, bool materialized,
                            double budget_s) {
  const int records = materialized ? 200 : 20000;
  crayfish::core::DataGenerator generator(sample_shape, batch_size,
                                          crayfish::Rng(11));
  return MedianNsPerUnit(budget_s, 0.0, [&]() {
    uint64_t acc = 0;
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < records; ++i) {
      const crayfish::core::CrayfishDataBatch b =
          materialized ? generator.NextMaterialized(i * 1e-3)
                       : generator.NextMetadataOnly(i * 1e-3);
      acc += b.id + b.data.size();
    }
    ChunkCost c;
    c.ns = NsSince(start);
    c.units = records;
    sink = sink + acc;
    return c;
  });
}

PayloadCost PayloadNsPerSample(const std::vector<int64_t>& sample_shape,
                               int batch_size, double budget_s) {
  constexpr int kBatches = 16;
  crayfish::core::DataGenerator generator(sample_shape, batch_size,
                                          crayfish::Rng(13));
  std::vector<crayfish::core::CrayfishDataBatch> batches;
  std::vector<std::string> encoded;
  for (int i = 0; i < kBatches; ++i) {
    batches.push_back(generator.NextMaterialized(i * 1e-3));
    encoded.push_back(batches.back().ToJson());
  }
  const double samples = static_cast<double>(kBatches) * batch_size;
  PayloadCost cost;
  cost.encode_ns_per_sample = MedianNsPerUnit(budget_s / 2, 0.0, [&]() {
    uint64_t acc = 0;
    const Clock::time_point start = Clock::now();
    for (const crayfish::core::CrayfishDataBatch& b : batches) {
      acc += b.ToJson().size();
    }
    ChunkCost c;
    c.ns = NsSince(start);
    c.units = samples;
    sink = sink + acc;
    return c;
  });
  cost.decode_ns_per_sample = MedianNsPerUnit(budget_s / 2, 0.0, [&]() {
    uint64_t acc = 0;
    const Clock::time_point start = Clock::now();
    for (const std::string& text : encoded) {
      auto doc = crayfish::JsonValue::Parse(text);
      CRAYFISH_CHECK_OK(doc.status());
      acc += doc->size();
    }
    ChunkCost c;
    c.ns = NsSince(start);
    c.units = samples;
    sink = sink + acc;
    return c;
  });
  return cost;
}

double ModelNsPerSampleForward(int batch_size, double budget_s) {
  constexpr int kPasses = 64;
  crayfish::model::ModelGraph graph = crayfish::model::BuildFfnn();
  crayfish::Rng rng(17);
  graph.InitializeWeights(&rng);
  const crayfish::model::Executor executor(&graph);
  const crayfish::tensor::Tensor input = crayfish::tensor::Tensor::Random(
      crayfish::tensor::Shape{batch_size, 28, 28}, &rng);
  return MedianNsPerUnit(budget_s, 0.0, [&]() {
    uint64_t acc = 0;
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < kPasses; ++i) {
      auto out = executor.Run(input);
      CRAYFISH_CHECK_OK(out.status());
      acc += static_cast<uint64_t>(out->NumElements());
    }
    ChunkCost c;
    c.ns = NsSince(start);
    c.units = static_cast<double>(kPasses) * batch_size;
    sink = sink + acc;
    return c;
  });
}

double TensorGemmGflops(int batch_size, double budget_s) {
  constexpr int kRounds = 64;
  crayfish::Rng rng(19);
  std::vector<std::pair<crayfish::tensor::Tensor, crayfish::tensor::Tensor>>
      operands;
  double flops_per_round = 0.0;
  for (const auto& layer : kFfnnLayers) {
    operands.emplace_back(
        crayfish::tensor::Tensor::Random(
            crayfish::tensor::Shape{batch_size, layer[0]}, &rng),
        crayfish::tensor::Tensor::Random(
            crayfish::tensor::Shape{layer[0], layer[1]}, &rng));
    flops_per_round += 2.0 * batch_size * layer[0] * layer[1];
  }
  // Median ns per floating-point operation, inverted to GFLOP/s.
  const double ns_per_flop = MedianNsPerUnit(budget_s, 0.0, [&]() {
    uint64_t acc = 0;
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < kRounds; ++i) {
      for (const auto& [a, b] : operands) {
        auto out = crayfish::tensor::MatMul(a, b);
        CRAYFISH_CHECK_OK(out.status());
        acc += static_cast<uint64_t>(out->NumElements());
      }
    }
    ChunkCost c;
    c.ns = NsSince(start);
    c.units = flops_per_round * kRounds;
    sink = sink + acc;
    return c;
  });
  return ns_per_flop > 0.0 ? 1.0 / ns_per_flop : 0.0;
}

}  // namespace perfbench
