#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "scale/workload.h"

namespace perfbench {
namespace {

using crayfish::core::ExperimentConfig;
using crayfish::core::ExperimentResult;

// The paper's Table 4 cell (examples/configs/table4_flink_onnx.properties):
// 30k ev/s into one Flink task scoring ~1.4k ev/s. Host time goes to the
// DES kernel and the broker write path; SPS and serving do little.
ExperimentConfig Table4Overload() {
  ExperimentConfig c;
  c.engine = "flink";
  c.serving = "onnx";
  c.model = "ffnn";
  c.batch_size = 1;
  c.input_rate = 30000.0;
  c.parallelism = 1;
  c.duration_s = 12.0;
  c.drain_s = 1.0;
  return c;
}

// Below the pipeline's capacity, so every record crosses every layer:
// produce, broker, Flink, gRPC to TF-Serving over sim::Network, the worker
// pool, sink produce and the output consumer. Broker reads equal writes.
ExperimentConfig SustainedRpc() {
  ExperimentConfig c;
  c.engine = "flink";
  c.serving = "tf-serving";
  c.model = "ffnn";
  c.batch_size = 1;
  c.input_rate = 500.0;
  c.parallelism = 1;
  c.duration_s = 120.0;
  c.drain_s = 2.0;
  c.timeline_interval_s = 1.0;
  return c;
}

// The cluster-scale acceptance topology: a reactive autoscaler riding a
// flash crowd over 32 background tenants and a 950-host idle fleet: a
// >1000-host, 320-partition working set. Timed on the serial engine; see
// Workload::parallel_threads for the parallel one.
ExperimentConfig FlashCrowdFleet() {
  ExperimentConfig c;
  c.engine = "flink";
  c.serving = "torchserve";
  c.model = "ffnn";
  c.batch_size = 1;
  c.input_rate = 150.0;
  c.parallelism = 6;
  // 45 s covers the crowd (spike at 20 s, gone by 38 s) and the
  // autoscaler's scale-in after it (at 42 s); the drain lets it settle.
  c.duration_s = 45.0;
  c.drain_s = 5.0;
  c.timeline_interval_s = 1.0;

  crayfish::scale::WorkloadSpec& w = c.workload;
  w.enabled = true;
  w.shape.kind = crayfish::scale::ShapeKind::kFlashCrowd;
  w.shape.base_rate = 150.0;
  w.shape.spike_at_s = 20.0;
  w.shape.ramp_up_s = 2.0;
  w.shape.hold_s = 12.0;
  w.shape.decay_s = 4.0;
  w.shape.spike_mult = 6.0;
  w.tenants = 32;
  w.tenant_partitions = 8;
  w.tenant_rate_factor = 0.02;
  w.fleet_hosts = 950;

  crayfish::scale::PolicyConfig& a = c.autoscaler;
  a.enabled = true;
  a.kind = "reactive";
  a.interval_s = 2.0;
  a.min_replicas = 1;
  a.max_replicas = 6;
  a.step = 2;
  a.cooldown_s = 4.0;
  a.scale_in_hysteresis = 3;
  a.scale_up_lag = 60.0;
  a.scale_down_lag = 5.0;
  a.scale_up_utilization = 0.85;
  a.scale_down_utilization = 0.35;
  return c;
}

// Validation mode: every batch is JSON-encoded at the producer, parsed in
// the scoring operator and run through a real FFNN forward pass, so the
// payload, model and tensor layers do real work.
ExperimentConfig RealInference() {
  ExperimentConfig c;
  c.engine = "kafka-streams";
  c.serving = "onnx";
  c.model = "ffnn";
  c.batch_size = 8;
  c.input_rate = 100.0;
  c.parallelism = 1;
  c.duration_s = 3.0;
  c.drain_s = 1.0;
  c.validate_real_inference = true;
  return c;
}

void Mix(uint64_t* h, const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    *h ^= p[i];
    *h *= 1099511628211ULL;
  }
}

template <typename T>
void MixValue(uint64_t* h, T v) {
  Mix(h, &v, sizeof(v));
}

void MixString(uint64_t* h, const std::string& s) {
  MixValue(h, s.size());
  Mix(h, s.data(), s.size());
}

}  // namespace

crayfish::StatusOr<Workload> MakeWorkload(const std::string& name,
                                          uint64_t seed, int hw_threads) {
  Workload w;
  w.name = name;
  if (name == "table4_overload") {
    w.config = Table4Overload();
  } else if (name == "sustained_rpc") {
    w.config = SustainedRpc();
  } else if (name == "flash_crowd_fleet") {
    w.config = FlashCrowdFleet();
    w.parallel_threads = std::clamp(hw_threads, 1, 4);
  } else if (name == "real_inference") {
    w.config = RealInference();
  } else {
    return crayfish::Status::InvalidArgument("unknown workload: " + name);
  }
  w.config.seed = seed;
  return w;
}

ExperimentConfig SetupOnly(ExperimentConfig config) {
  config.duration_s = 0.0;
  config.drain_s = 0.0;
  return config;
}

uint64_t Digest(const ExperimentResult& r) {
  uint64_t h = 14695981039346656037ULL;
  MixString(&h, r.summary.ToJson());
  MixValue(&h, r.events_sent);
  MixValue(&h, r.events_scored);
  MixValue(&h, r.real_inferences);
  MixValue(&h, r.sim_events_executed);
  MixValue(&h, r.sim_end_s);  // the double's bits
  MixValue(&h, r.measurements.size());
  for (const crayfish::core::Measurement& m : r.measurements) {
    MixValue(&h, m.batch_id);
    MixValue(&h, m.create_time);
    MixValue(&h, m.append_time);
    MixValue(&h, m.batch_size);
  }
  if (r.has_autoscale) {
    MixValue(&h, r.autoscale.ticks);
    for (const crayfish::scale::ScalingAction& a : r.autoscale.actions) {
      MixValue(&h, a.t_s);
      MixValue(&h, a.from);
      MixValue(&h, a.to);
      MixString(&h, a.reason);
    }
  }
  if (r.has_fault_metrics) {
    MixValue(&h, r.fault_metrics.losses);
    MixValue(&h, r.fault_metrics.duplicates);
  }
  return h;
}

std::string DigestHex(uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

double TimelineGaugeMax(const ExperimentResult& result,
                        const std::string& name, double from_s,
                        double to_s) {
  double max = 0.0;
  if (result.timeline == nullptr) return max;
  for (const crayfish::obs::TimelineWindow& w : result.timeline->windows()) {
    if (w.start_s < from_s || w.start_s >= to_s) continue;
    auto it = w.gauges.find(name);
    if (it != w.gauges.end()) max = std::max(max, it->second);
  }
  return max;
}

std::string CheckOutput(const Workload& workload, const ExperimentConfig& ran,
                        const ExperimentResult& r) {
  std::ostringstream why;
  if (r.events_sent == 0 || r.events_scored == 0 ||
      r.measurements.empty()) {
    why << "empty run: sent=" << r.events_sent
        << " scored=" << r.events_scored
        << " measurements=" << r.measurements.size();
    return why.str();
  }
  const ExperimentConfig& c = workload.config;
  if (workload.name == "table4_overload") {
    // 30k ev/s for 12 s, plus the record at t = 0.
    if (r.events_sent != 360001) {
      why << "events_sent=" << r.events_sent << ", want 360001";
    }
  } else if (workload.name == "sustained_rpc") {
    // Below capacity nothing may be left behind, and the consumer's
    // backlog in the second half of the run may not exceed its start-up
    // peak in the first half (a growing backlog would).
    const double half = c.duration_s / 2.0;
    const double early = TimelineGaugeMax(r, "consumer_lag", 0.0, half);
    const double late =
        TimelineGaugeMax(r, "consumer_lag", half, c.duration_s);
    if (r.events_scored != r.events_sent) {
      why << "events_scored=" << r.events_scored
          << " != events_sent=" << r.events_sent;
    } else if (ran.timeline_interval_s > 0.0 && r.timeline == nullptr) {
      why << "no timeline";
    } else if (late > early) {
      why << "consumer lag grew: late max " << late << " > early max "
          << early;
    }
  } else if (workload.name == "flash_crowd_fleet") {
    if (!r.has_autoscale || !r.has_fault_metrics) {
      why << "missing autoscale or loss scorecard";
    } else if (r.fault_metrics.losses != 0) {
      why << "losses=" << r.fault_metrics.losses << ", want 0";
    } else if (r.autoscale.scale_ups < 1 || r.autoscale.scale_downs < 1) {
      why << "scale_ups=" << r.autoscale.scale_ups
          << " scale_downs=" << r.autoscale.scale_downs
          << ", want >= 1 each";
    }
  } else if (workload.name == "real_inference") {
    if (r.real_inferences != r.events_scored) {
      why << "real_inferences=" << r.real_inferences
          << " != events_scored=" << r.events_scored;
    }
  }
  return why.str();
}

}  // namespace perfbench
