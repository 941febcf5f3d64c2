// The one `.properties` -> ExperimentConfig mapping (crayfish_run and
// crayfish_sweep both call ExperimentConfig::FromConfig), driven by one
// table of declared keys.

#include <algorithm>
#include <string>
#include <vector>

#include "core/experiment.h"

namespace crayfish::core {
namespace {

using Setter = crayfish::Status (*)(const std::string& key,
                                    const std::string& value,
                                    ExperimentConfig* out);

struct ConfigKey {
  const char* name;
  Setter set;
  const char* doc;
};

template <auto kField>
crayfish::Status SetField(const std::string& key, const std::string& value,
                          ExperimentConfig* out) {
  return crayfish::ParseScalar(key, value, &(out->*kField));
}

/// A key naming a JSON document; an empty path keeps the default.
template <auto kField, auto kLoad>
crayfish::Status LoadFile(const std::string& key, const std::string& path,
                          ExperimentConfig* out) {
  if (path.empty()) return crayfish::Status::Ok();
  auto doc = kLoad(path);
  if (!doc.ok()) return doc.status().Prefixed(key + ": ");
  out->*kField = *std::move(doc);
  return crayfish::Status::Ok();
}

using C = ExperimentConfig;

/// Every undotted key a config file may hold.
constexpr ConfigKey kKeys[] = {
    {"engine", SetField<&C::engine>, "flink | kafka-streams | spark | ray"},
    {"serving", SetField<&C::serving>,
     "dl4j | onnx | savedmodel | tf-serving | torchserve | ray-serve"},
    {"model", SetField<&C::model>, "ffnn | resnet50"},
    {"bsz", SetField<&C::batch_size>, "data points per event (Table 1 bsz)"},
    {"ir", SetField<&C::input_rate>, "input rate, events/s (Table 1 ir)"},
    {"mp", SetField<&C::parallelism>, "scoring parallelism (Table 1 mp)"},
    {"gpu", SetField<&C::use_gpu>, "score on a GPU (true | false)"},
    {"bursty", SetField<&C::bursty>, "add periodic bursts to ir"},
    {"burst_rate", SetField<&C::burst_rate>, "events/s during a burst"},
    {"bd", SetField<&C::burst_duration_s>, "burst duration, s (Table 1 bd)"},
    {"tbb", SetField<&C::time_between_bursts_s>,
     "time between bursts, s (Table 1 tbb)"},
    {"first_burst_at_s", SetField<&C::first_burst_at_s>,
     "start of the first burst, s"},
    {"source_parallelism", SetField<&C::source_parallelism>,
     "Flink source parallelism; 0 = chained"},
    {"sink_parallelism", SetField<&C::sink_parallelism>,
     "Flink sink parallelism; 0 = chained"},
    {"partitions", SetField<&C::topic_partitions>,
     "partitions per Kafka topic"},
    {"duration_s", SetField<&C::duration_s>,
     "producer generation window, simulated s; with drain_s <= 1e6"},
    {"drain_s", SetField<&C::drain_s>,
     "extra simulated s for in-flight work; with duration_s <= 1e6"},
    {"max_events", SetField<&C::max_events>,
     "cap on generated input events; 0 = none"},
    {"max_measurements", SetField<&C::max_measurements>,
     "cap on recorded measurements; 0 = none"},
    {"seed", SetField<&C::seed>, "RNG seed"},
    {"dataset", SetField<&C::dataset_path>,
     "JSON-lines CrayfishDataBatch file to replay"},
    {"trace", SetField<&C::enable_tracing>,
     "record stage traces (as --breakdown does)"},
    {"timeline_interval_s", SetField<&C::timeline_interval_s>,
     "timeline window, s; 0 = off (--timeline_interval)"},
    {"slo", LoadFile<&C::slo, &obs::SloConfig::FromFile>,
     "SLO spec JSON (--slo)"},
    {"faults", LoadFile<&C::fault_plan, &fault::FaultPlan::FromFile>,
     "fault plan JSON (--faults)"},
    {"workload", LoadFile<&C::workload, &scale::WorkloadSpec::FromFile>,
     "workload shape JSON (--workload)"},
    {"autoscaler", LoadFile<&C::autoscaler, &scale::PolicyConfig::FromFile>,
     "autoscaler policy JSON (--autoscaler)"},
};

/// Dotted keys whose prefix names an engine pass through to
/// engine_overrides verbatim; the engine reads what it knows.
constexpr const char* kEnginePrefixes[] = {"flink", "spark", "ray",
                                           "kafka_streams"};

size_t EditDistance(const std::string& a, const std::string& b) {
  std::vector<size_t> row(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    size_t diagonal = row[0];
    row[0] = i;
    for (size_t j = 1; j <= b.size(); ++j) {
      const size_t above = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                         diagonal + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diagonal = above;
    }
  }
  return row[b.size()];
}

/// " (did you mean "x"?)" for the nearest candidate within two edits.
std::string DidYouMean(const std::string& name,
                       const std::vector<std::string>& candidates) {
  const std::string* best = nullptr;
  size_t best_distance = 3;
  for (const std::string& candidate : candidates) {
    const size_t d = EditDistance(name, candidate);
    if (d < best_distance) {
      best = &candidate;
      best_distance = d;
    }
  }
  return best == nullptr ? "" : " (did you mean \"" + *best + "\"?)";
}

crayfish::Status ApplyDeclared(const std::string& key, const std::string& value,
                               ExperimentConfig* out) {
  for (const ConfigKey& k : kKeys) {
    if (key == k.name) return k.set(key, value, out);
  }
  std::vector<std::string> names;
  for (const ConfigKey& k : kKeys) names.emplace_back(k.name);
  return crayfish::Status::InvalidArgument("unknown config key \"" + key +
                                           "\"" + DidYouMean(key, names));
}

crayfish::Status ApplyDotted(const std::string& key, const std::string& value,
                             ExperimentConfig* out) {
  const size_t dot = key.find('.');
  const std::string prefix = key.substr(0, dot);
  const std::string field = key.substr(dot + 1);
  if (prefix == "fault") {
    return out->fault_plan.ApplyOverride(field, value).Prefixed("fault.");
  }
  if (prefix == "workload") {
    return out->workload.ApplyOverride(field, value).Prefixed("workload.");
  }
  if (prefix == "autoscaler") {
    return out->autoscaler.ApplyOverride(field, value).Prefixed("autoscaler.");
  }
  std::vector<std::string> prefixes = {"fault", "workload", "autoscaler"};
  for (const char* engine : kEnginePrefixes) {
    if (prefix == engine) {
      out->engine_overrides.Set(key, value);
      return crayfish::Status::Ok();
    }
    prefixes.emplace_back(engine);
  }
  return crayfish::Status::InvalidArgument(
      "unknown config key prefix \"" + prefix + ".\" in \"" + key + "\"" +
      DidYouMean(prefix, prefixes));
}

}  // namespace

crayfish::StatusOr<ExperimentConfig> ExperimentConfig::FromConfig(
    const crayfish::Config& cfg) {
  ExperimentConfig out;
  // Declared keys first: "faults = plan.json" must load the plan before a
  // "fault.*" override edits it, and "fault.x" sorts before "faults".
  for (const auto& [key, value] : cfg.entries()) {
    if (key.find('.') == std::string::npos) {
      CRAYFISH_RETURN_IF_ERROR(ApplyDeclared(key, value, &out));
    }
  }
  for (const auto& [key, value] : cfg.entries()) {
    if (key.find('.') != std::string::npos) {
      CRAYFISH_RETURN_IF_ERROR(ApplyDotted(key, value, &out));
    }
  }
  return out;
}

std::string ConfigKeysHelp() {
  std::string out;
  for (const ConfigKey& k : kKeys) {
    std::string name = k.name;
    name.resize(std::max<size_t>(name.size() + 1, 21), ' ');
    out += "  " + name + k.doc + "\n";
  }
  out +=
      "  fault.<name>.<field>, fault.retry.<field>, workload.<field>,\n"
      "  autoscaler.<field>   set one field of the loaded JSON document\n"
      "  flink.*, spark.*, ray.*, kafka_streams.*   engine settings\n"
      "unknown keys and malformed values are rejected\n";
  return out;
}

}  // namespace crayfish::core
