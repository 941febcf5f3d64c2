#ifndef CRAYFISH_SPS_KAFKA_STREAMS_ENGINE_H_
#define CRAYFISH_SPS_KAFKA_STREAMS_ENGINE_H_

#include <memory>
#include <vector>

#include "broker/consumer.h"
#include "broker/producer.h"
#include "sps/engine.h"

namespace crayfish::sps {

/// Calibrated per-event costs of the Kafka Streams adapter. Its tight
/// integration with the message broker makes the framework overhead lower
/// than Flink's (~0.33 ms vs ~0.58 ms per event; Table 5: 2054 ev/s with
/// ONNX vs Flink's 1373).
struct KafkaStreamsCosts {
  double record_fixed_s = 150e-6;
  double record_per_byte_s = 30e-9;
  double transform_wrapper_s = 40e-6;
  double produce_fixed_s = 60e-6;
  double produce_per_byte_s = 8e-9;
  /// Offset-commit cost charged once per commit interval.
  double commit_s = 2e-3;
  double commit_interval_s = 30.0;
  double poll_timeout_s = 0.1;
  /// Wake-up cost when a stream thread resumes after idling (task
  /// re-initialization, rebalance checks, buffer replenishment). Charged
  /// once per idle->active transition, so it dominates closed-loop
  /// latency (Fig. 10: KS above Flink at small batches) and vanishes at
  /// sustained rates (§5.3.1: 16.25 ms/event at ir=512).
  double idle_pickup_s = 80e-3;
};

/// Kafka Streams adapter: a pull-based library where every record travels
/// depth-first through the whole DAG before the thread requests the next
/// one (Fig. 4). Vertical scaling = one stream thread per input
/// partition share.
class KafkaStreamsEngine : public StreamEngine {
 public:
  KafkaStreamsEngine(sim::Simulation* sim, sim::Network* network,
                     broker::KafkaCluster* cluster, EngineConfig config,
                     ScoringConfig scoring);
  ~KafkaStreamsEngine() override;

  const char* name() const override { return "kafka-streams"; }
  crayfish::Status ApplyOverrides() override;
  crayfish::Status Start() override;
  void Stop() override;

  /// Aggregates lag and prefetch-buffer depth over the stream threads'
  /// consumers (pull model: no operator queues, no backpressure stalls).
  EngineTelemetry Telemetry() const override;

  const KafkaStreamsCosts& costs() const { return costs_; }

 protected:
  /// §5.3.3 credits KS's pull model with distributing work across threads
  /// more efficiently than Flink's push model: fetching from partitions
  /// on demand halves the effective core contention (Fig. 11: KS peaks
  /// ~23k ev/s at mp=16 where Flink stops at 13k).
  double EffectiveContentionParallelism() const override {
    return 1.0 + 0.5 * (static_cast<double>(config_.parallelism) - 1.0);
  }

 private:
  struct StreamThread {
    std::unique_ptr<broker::KafkaConsumer> consumer;
    std::unique_ptr<broker::KafkaProducer> producer;
    double last_commit = 0.0;
    bool was_idle = true;
  };

  void PollLoop(int thread);
  void ProcessRecords(int thread,
                      std::shared_ptr<std::vector<broker::Record>> records,
                      size_t index);

  KafkaStreamsCosts costs_;
  std::vector<StreamThread> threads_;
};

}  // namespace crayfish::sps

#endif  // CRAYFISH_SPS_KAFKA_STREAMS_ENGINE_H_
