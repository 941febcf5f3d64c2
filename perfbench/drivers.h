#ifndef PERFBENCH_DRIVERS_H_
#define PERFBENCH_DRIVERS_H_

// Layer drivers: each times calls into one layer's public functions, with
// the work shaped by a workload's own traced counts (queue depth, record
// size, partition count, batch size), and returns host nanoseconds per
// unit of that layer's work. Every driver runs for about `budget_s` and
// reports the median over repeated chunks of work.
//
// Drivers that run on the simulator (network, broker, serving) subtract
// the kernel cost of the events their own chunk executed, priced at
// `kernel_ns_per_event`, so their cost is the layer's own share and does
// not count the DES kernel twice.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// sim::Simulation: one ScheduleOnHost + its execution, with `queue_depth`
/// events pending (a hold model: each event schedules its successor).
double SimNsPerEvent(size_t queue_depth, double budget_s);

/// sim::Network::Send of `bytes` between two hosts, delivery included.
double NetworkNsPerSend(uint64_t bytes, double kernel_ns_per_event,
                        double budget_s);

/// KafkaProducer::Send into a KafkaCluster topic of `partitions`
/// partitions with retention on, one record per 1/`rate_eps` seconds,
/// until acknowledged.
double BrokerNsPerProduce(uint64_t record_bytes, int partitions,
                          size_t retention_records, double rate_eps,
                          double kernel_ns_per_event, double budget_s);

/// KafkaConsumer poll loop over records already in the log.
double BrokerNsPerFetchedRecord(uint64_t record_bytes, int partitions,
                                double kernel_ns_per_event,
                                double budget_s);

/// ExternalServingServer::Invoke round trip over the network, with
/// `workers` closed-loop clients keeping the pool busy.
double ServingNsPerRequest(const std::string& tool, int workers,
                           int batch_size, double kernel_ns_per_event,
                           double budget_s);

/// core::DataGenerator, one record (materialized payload or metadata only,
/// as the workload's producer makes it).
double GeneratorNsPerRecord(const std::vector<int64_t>& sample_shape,
                            int batch_size, bool materialized,
                            double budget_s);

struct PayloadCost {
  double encode_ns_per_sample = 0.0;  ///< CrayfishDataBatch::ToJson
  double decode_ns_per_sample = 0.0;  ///< JsonValue::Parse
};
PayloadCost PayloadNsPerSample(const std::vector<int64_t>& sample_shape,
                               int batch_size, double budget_s);

/// model::Executor FFNN forward pass at `batch_size`, per sample.
double ModelNsPerSampleForward(int batch_size, double budget_s);

/// tensor::MatMul over the FFNN's dense-layer shapes at `batch_size`.
double TensorGemmGflops(int batch_size, double budget_s);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVERS_H_
