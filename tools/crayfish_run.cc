// crayfish_run — config-file-driven experiment runner, mirroring the
// original framework's per-experiment configuration workflow (Table 1).
//
// Usage:
//   crayfish_run [flags] <config.properties>... [measurements.csv]
//
// Several config files may be given; they run concurrently on a host
// thread pool (one deterministic single-threaded simulation each) and
// their summaries print in argument order. Observability flags and the
// measurements CSV apply to single-config runs only.
//
// Flags:
//   --jobs=N            max concurrent experiments (default: hardware
//                       concurrency; --jobs=1 recovers serial behavior)
//   --trace_out=PATH    write a Chrome trace-event JSON (load in Perfetto
//                       or chrome://tracing) of every batch's stage spans
//   --trace_csv=PATH    write per-span CSV (batch_id,stage,start,end,dur)
//   --metrics_out=PATH  write the metrics-registry snapshot as JSON
//   --breakdown         print the per-stage latency decomposition
//   --timeline_out=PATH     write the telemetry timeline as JSONL
//   --timeline_csv=PATH     write the telemetry timeline as CSV
//   --timeline_interval=S   tumbling-window width in seconds (default 1)
//   --slo=PATH          evaluate SLOs from a JSON spec against the timeline
//   --slo_out=PATH      write the SLO report as JSON
//   --workload=PATH     drive the producer with a workload shape (JSON:
//                       constant|diurnal|flash-crowd|ramp|replay, plus
//                       multi-tenant fan-out; see README)
//   --autoscaler=PATH   run the elastic control loop from a policy JSON
//                       (reactive | predictive) and report scaling actions
//   --help              this text
// (any trace/metrics flag implicitly enables tracing for the run; any
// timeline/SLO flag enables the telemetry timeline, which never perturbs
// the simulation)
//
// Example config:
//   engine        = flink            # flink|kafka-streams|spark|ray
//   serving       = onnx             # dl4j|onnx|savedmodel|tf-serving|...
//   model         = ffnn             # ffnn|resnet50
//   bsz           = 1                # data points per event
//   ir            = 30000            # events/s
//   mp            = 1                # scoring parallelism
//   gpu           = false
//   duration_s    = 10
//   bursty        = false
//   bd            = 30               # burst duration (s)
//   tbb           = 120              # time between bursts (s)
//   burst_rate    = 1500
//   dataset       =                  # optional JSON-lines file to replay
//   trace         = false            # same as passing --breakdown
//   timeline_interval_s = 0          # > 0 enables the telemetry timeline
//   slo           =                  # SLO spec JSON (implies the timeline)
//   seed          = 42
//   # workload.* / autoscaler.* keys override the respective JSON specs
//   # (and enable them), e.g.:
//   # workload.kind        = flash-crowd
//   # workload.base_rate   = 500
//   # autoscaler.kind      = reactive
//   # autoscaler.max_replicas = 8
//   # engine-specific overrides pass through verbatim, e.g.:
//   # spark.max_offsets_per_trigger = 768

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/logging.h"
#include "core/experiment.h"
#include "core/report.h"
#include "core/sweep.h"
#include "scale/policy.h"
#include "scale/workload.h"
#include "serving/calibration.h"

namespace {

using namespace crayfish;

core::ExperimentConfig FromConfig(const Config& cfg) {
  core::ExperimentConfig out;
  out.engine = cfg.GetStringOr("engine", out.engine);
  out.serving = cfg.GetStringOr("serving", out.serving);
  out.model = cfg.GetStringOr("model", out.model);
  out.batch_size = static_cast<int>(cfg.GetIntOr("bsz", out.batch_size));
  out.input_rate = cfg.GetDoubleOr("ir", out.input_rate);
  out.parallelism = static_cast<int>(cfg.GetIntOr("mp", out.parallelism));
  out.use_gpu = cfg.GetBoolOr("gpu", out.use_gpu);
  out.bursty = cfg.GetBoolOr("bursty", out.bursty);
  out.burst_rate = cfg.GetDoubleOr("burst_rate", out.burst_rate);
  out.burst_duration_s = cfg.GetDoubleOr("bd", out.burst_duration_s);
  out.time_between_bursts_s =
      cfg.GetDoubleOr("tbb", out.time_between_bursts_s);
  out.first_burst_at_s =
      cfg.GetDoubleOr("first_burst_at_s", out.first_burst_at_s);
  out.source_parallelism = static_cast<int>(
      cfg.GetIntOr("source_parallelism", out.source_parallelism));
  out.sink_parallelism = static_cast<int>(
      cfg.GetIntOr("sink_parallelism", out.sink_parallelism));
  out.topic_partitions = static_cast<int>(
      cfg.GetIntOr("partitions", out.topic_partitions));
  out.duration_s = cfg.GetDoubleOr("duration_s", out.duration_s);
  out.drain_s = cfg.GetDoubleOr("drain_s", out.drain_s);
  out.max_events =
      static_cast<uint64_t>(cfg.GetIntOr("max_events", 0));
  out.max_measurements =
      static_cast<uint64_t>(cfg.GetIntOr("max_measurements", 0));
  out.seed = static_cast<uint64_t>(cfg.GetIntOr("seed", 42));
  out.dataset_path = cfg.GetStringOr("dataset", "");
  out.enable_tracing = cfg.GetBoolOr("trace", out.enable_tracing);
  out.timeline_interval_s =
      cfg.GetDoubleOr("timeline_interval_s", out.timeline_interval_s);
  // Engine-specific keys pass through verbatim; "fault.*", "workload.*",
  // and "autoscaler.*" keys are plan/spec overrides, routed separately by
  // ApplyFaultConfig / ApplyScaleConfig.
  for (const std::string& key : cfg.Keys()) {
    if (key.find('.') != std::string::npos &&
        key.rfind("fault.", 0) != 0 && key.rfind("workload.", 0) != 0 &&
        key.rfind("autoscaler.", 0) != 0) {
      out.engine_overrides.Set(key, cfg.GetStringOr(key, ""));
    }
  }
  return out;
}

// Loads the SLO spec (--slo flag wins over the "slo" config key) and the
// timeline-interval flag override.
Status ApplySloConfig(const Config& cfg, const std::string& slo_flag,
                      const std::string& interval_flag,
                      core::ExperimentConfig* out) {
  const std::string path =
      !slo_flag.empty() ? slo_flag : cfg.GetStringOr("slo", "");
  if (!path.empty()) {
    CRAYFISH_ASSIGN_OR_RETURN(out->slo, obs::SloConfig::FromFile(path));
  }
  if (!interval_flag.empty()) {
    const double interval = std::atof(interval_flag.c_str());
    if (interval <= 0.0) {
      return Status::InvalidArgument("--timeline_interval must be > 0");
    }
    out->timeline_interval_s = interval;
  }
  return Status::Ok();
}

// Loads the fault plan (--faults flag wins over the "faults" config key)
// and applies "fault.<target>.<field>" overrides from the config file.
Status ApplyFaultConfig(const Config& cfg, const std::string& faults_flag,
                        core::ExperimentConfig* out) {
  const std::string path =
      !faults_flag.empty() ? faults_flag : cfg.GetStringOr("faults", "");
  if (!path.empty()) {
    CRAYFISH_ASSIGN_OR_RETURN(out->fault_plan,
                              fault::FaultPlan::FromFile(path));
  }
  for (const std::string& key : cfg.Keys()) {
    if (key.rfind("fault.", 0) == 0) {
      CRAYFISH_RETURN_IF_ERROR(out->fault_plan.ApplyOverride(
          key.substr(6), cfg.GetStringOr(key, "")));
    }
  }
  return Status::Ok();
}

// Loads the workload shape and autoscaler policy (the --workload /
// --autoscaler flags win over the "workload" / "autoscaler" config keys)
// and applies "workload.<key>" / "autoscaler.<key>" overrides from the
// config file.
Status ApplyScaleConfig(const Config& cfg, const std::string& workload_flag,
                        const std::string& autoscaler_flag,
                        core::ExperimentConfig* out) {
  const std::string workload_path =
      !workload_flag.empty() ? workload_flag : cfg.GetStringOr("workload", "");
  if (!workload_path.empty()) {
    CRAYFISH_ASSIGN_OR_RETURN(out->workload,
                              scale::WorkloadSpec::FromFile(workload_path));
  }
  const std::string policy_path = !autoscaler_flag.empty()
                                      ? autoscaler_flag
                                      : cfg.GetStringOr("autoscaler", "");
  if (!policy_path.empty()) {
    CRAYFISH_ASSIGN_OR_RETURN(out->autoscaler,
                              scale::PolicyConfig::FromFile(policy_path));
  }
  for (const std::string& key : cfg.Keys()) {
    if (key.rfind("workload.", 0) == 0) {
      CRAYFISH_RETURN_IF_ERROR(out->workload.ApplyOverride(
          key.substr(9), cfg.GetStringOr(key, "")));
    } else if (key.rfind("autoscaler.", 0) == 0) {
      CRAYFISH_RETURN_IF_ERROR(out->autoscaler.ApplyOverride(
          key.substr(11), cfg.GetStringOr(key, "")));
    }
  }
  return Status::Ok();
}

void PrintUsage(const char* prog) {
  std::fprintf(
      stderr,
      "usage: %s [flags] <config.properties>... [measurements.csv]\n"
      "flags:\n"
      "  --jobs=N            max concurrent experiments (default: hardware\n"
      "                      concurrency; --jobs=1 runs serially)\n"
      "  --trace_out=PATH    Chrome trace-event JSON (Perfetto-loadable)\n"
      "  --trace_csv=PATH    per-span CSV export of the trace\n"
      "  --metrics_out=PATH  metrics-registry snapshot as JSON\n"
      "  --breakdown         print the per-stage latency decomposition\n"
      "  --faults=PATH       inject the fault plan (JSON; see README) and\n"
      "                      report recovery metrics\n"
      "  --timeline_out=PATH     telemetry timeline as JSONL\n"
      "  --timeline_csv=PATH     telemetry timeline as CSV\n"
      "  --timeline_interval=S   timeline window width, seconds (default 1)\n"
      "  --slo=PATH          evaluate SLOs (JSON spec) against the timeline\n"
      "  --slo_out=PATH      SLO report as JSON\n"
      "  --workload=PATH     workload shape JSON (constant|diurnal|\n"
      "                      flash-crowd|ramp|replay + multi-tenant fan-out)\n"
      "  --autoscaler=PATH   elastic-scaling policy JSON (reactive |\n"
      "                      predictive); scaling actions print after the run\n"
      "  --help              show this text\n"
      "any observability flag enables tracing; observability flags and the\n"
      "measurements CSV require a single config file\n",
      prog);
}

bool ParseFlag(const std::string& arg, const std::string& name,
               std::string* value) {
  const std::string prefix = name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_out;
  std::string trace_csv;
  std::string metrics_out;
  std::string jobs_str;
  std::string faults_path;
  std::string timeline_out;
  std::string timeline_csv;
  std::string timeline_interval;
  std::string slo_path;
  std::string slo_out;
  std::string workload_path;
  std::string autoscaler_path;
  bool print_breakdown = false;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      PrintUsage(argv[0]);
      return 0;
    }
    if (arg == "--breakdown") {
      print_breakdown = true;
    } else if (ParseFlag(arg, "--jobs", &jobs_str) ||
               ParseFlag(arg, "--trace_out", &trace_out) ||
               ParseFlag(arg, "--trace_csv", &trace_csv) ||
               ParseFlag(arg, "--metrics_out", &metrics_out) ||
               ParseFlag(arg, "--faults", &faults_path) ||
               ParseFlag(arg, "--timeline_out", &timeline_out) ||
               ParseFlag(arg, "--timeline_csv", &timeline_csv) ||
               ParseFlag(arg, "--timeline_interval", &timeline_interval) ||
               ParseFlag(arg, "--slo", &slo_path) ||
               ParseFlag(arg, "--slo_out", &slo_out) ||
               ParseFlag(arg, "--workload", &workload_path) ||
               ParseFlag(arg, "--autoscaler", &autoscaler_path)) {
      // value captured by ParseFlag
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      PrintUsage(argv[0]);
      return 2;
    } else {
      positional.push_back(arg);
    }
  }
  if (!jobs_str.empty()) {
    const int jobs = std::atoi(jobs_str.c_str());
    if (jobs < 1) {
      std::fprintf(stderr, "--jobs must be >= 1\n");
      return 2;
    }
    core::SetDefaultSweepJobs(jobs);
  }
  // The trailing positional is the measurements CSV when it ends in
  // ".csv"; everything else is a config file.
  std::string measurements_csv;
  auto ends_with_csv = [](const std::string& path) {
    return path.size() >= 4 &&
           path.compare(path.size() - 4, 4, ".csv") == 0;
  };
  if (positional.size() >= 2 && ends_with_csv(positional.back())) {
    measurements_csv = positional.back();
    positional.pop_back();
  }
  if (positional.empty()) {
    PrintUsage(argv[0]);
    return 2;
  }
  const bool want_obs_flags = print_breakdown || !trace_out.empty() ||
                              !trace_csv.empty() || !metrics_out.empty();
  const bool want_timeline_flags =
      !timeline_out.empty() || !timeline_csv.empty() ||
      !timeline_interval.empty() || !slo_path.empty() || !slo_out.empty();
  if (positional.size() > 1 && (want_obs_flags || want_timeline_flags ||
                                !measurements_csv.empty())) {
    std::fprintf(stderr,
                 "observability flags and the measurements CSV require a "
                 "single config file\n");
    return 2;
  }
  if (positional.size() > 1) {
    // Multi-config mode: run every experiment concurrently (one
    // deterministic simulation per host thread) and print summaries in
    // argument order.
    std::vector<core::ExperimentConfig> batch;
    for (const std::string& path : positional) {
      auto cfg_or = Config::FromFile(path);
      if (!cfg_or.ok()) {
        std::fprintf(stderr, "config error (%s): %s\n", path.c_str(),
                     cfg_or.status().ToString().c_str());
        return 2;
      }
      batch.push_back(FromConfig(*cfg_or));
      crayfish::Status fs =
          ApplyFaultConfig(*cfg_or, faults_path, &batch.back());
      if (!fs.ok()) {
        std::fprintf(stderr, "fault plan error (%s): %s\n", path.c_str(),
                     fs.ToString().c_str());
        return 2;
      }
      crayfish::Status scs = ApplyScaleConfig(*cfg_or, workload_path,
                                              autoscaler_path, &batch.back());
      if (!scs.ok()) {
        std::fprintf(stderr, "scale config error (%s): %s\n", path.c_str(),
                     scs.ToString().c_str());
        return 2;
      }
    }
    std::printf("running %zu experiments (jobs=%d) ...\n", batch.size(),
                std::min(core::ResolveSweepJobs(0),
                         static_cast<int>(batch.size())));
    auto results = core::RunExperiments(batch);
    if (!results.ok()) {
      std::fprintf(stderr, "experiment failed: %s\n",
                   results.status().ToString().c_str());
      return 1;
    }
    for (size_t i = 0; i < results->size(); ++i) {
      std::printf("%-40s %s\n", batch[i].Label().c_str(),
                  (*results)[i].summary.ToString().c_str());
    }
    return 0;
  }
  auto cfg_or = Config::FromFile(positional[0]);
  if (!cfg_or.ok()) {
    std::fprintf(stderr, "config error: %s\n",
                 cfg_or.status().ToString().c_str());
    return 2;
  }
  core::ExperimentConfig cfg = FromConfig(*cfg_or);
  {
    crayfish::Status fs = ApplyFaultConfig(*cfg_or, faults_path, &cfg);
    if (!fs.ok()) {
      std::fprintf(stderr, "fault plan error: %s\n", fs.ToString().c_str());
      return 2;
    }
    crayfish::Status ss =
        ApplySloConfig(*cfg_or, slo_path, timeline_interval, &cfg);
    if (!ss.ok()) {
      std::fprintf(stderr, "slo config error: %s\n", ss.ToString().c_str());
      return 2;
    }
    crayfish::Status scs =
        ApplyScaleConfig(*cfg_or, workload_path, autoscaler_path, &cfg);
    if (!scs.ok()) {
      std::fprintf(stderr, "scale config error: %s\n",
                   scs.ToString().c_str());
      return 2;
    }
  }
  const bool want_obs = print_breakdown || !trace_out.empty() ||
                        !trace_csv.empty() || !metrics_out.empty();
  if (want_obs) cfg.enable_tracing = true;
  // A timeline export with no interval/SLO given still means "sample":
  // fall back to the 1 s default window.
  if ((!timeline_out.empty() || !timeline_csv.empty()) &&
      cfg.timeline_interval_s <= 0.0 && !cfg.slo.active()) {
    cfg.timeline_interval_s = 1.0;
  }
  std::printf("running %s ...\n", cfg.Label().c_str());

  auto result = core::RunExperiment(cfg);
  if (!result.ok()) {
    std::fprintf(stderr, "experiment failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  std::printf("events sent:    %llu\n",
              static_cast<unsigned long long>(result->events_sent));
  std::printf("events scored:  %llu\n",
              static_cast<unsigned long long>(result->events_scored));
  std::printf("summary:        %s\n", result->summary.ToString().c_str());
  if (result->has_fault_metrics) {
    std::printf("faults:         %s\n",
                result->fault_metrics.ToString().c_str());
    for (const fault::FaultWindow& w : result->fault_metrics.windows) {
      char end[32];
      if (w.closed()) {
        std::snprintf(end, sizeof(end), "%.2f", w.end_s);
      } else {
        std::snprintf(end, sizeof(end), "end");
      }
      std::printf("  %-24s t=[%.2f, %s] %s\n", w.name.c_str(), w.start_s,
                  end, w.outage ? "outage" : "degradation");
    }
  }
  if (result->has_autoscale) {
    const scale::AutoscaleSummary& a = result->autoscale;
    std::printf(
        "autoscale:      %llu ticks, %llu up / %llu down, peak %d, final "
        "%d replicas\n",
        static_cast<unsigned long long>(a.ticks),
        static_cast<unsigned long long>(a.scale_ups),
        static_cast<unsigned long long>(a.scale_downs), a.peak_replicas,
        a.final_replicas);
    for (const scale::ScalingAction& act : a.actions) {
      std::printf("  t=%8.2f %2d -> %-2d %s\n", act.t_s, act.from, act.to,
                  act.reason.c_str());
    }
  }
  if (cfg.bursty) {
    for (size_t i = 0; i < result->recoveries.size(); ++i) {
      const auto& rec = result->recoveries[i];
      if (rec.recovery_s >= 0) {
        std::printf("burst %zu: recovered in %.2f s\n", i + 1,
                    rec.recovery_s);
      } else {
        std::printf("burst %zu: not recovered within the run\n", i + 1);
      }
    }
  }

  if (result->has_slo_report) {
    std::printf("%s", result->slo_report.Summary().c_str());
  }
  if (cfg.enable_tracing) {
    std::printf("%s", result->breakdown.ToString().c_str());
  }
  if (!timeline_out.empty() && result->timeline != nullptr) {
    crayfish::Status s = result->timeline->WriteJsonl(timeline_out);
    if (!s.ok()) {
      std::fprintf(stderr, "timeline error: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("wrote timeline of %zu windows to %s\n",
                result->timeline->windows().size(), timeline_out.c_str());
  }
  if (!timeline_csv.empty() && result->timeline != nullptr) {
    crayfish::Status s = result->timeline->WriteCsv(timeline_csv);
    if (!s.ok()) {
      std::fprintf(stderr, "timeline csv error: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("wrote timeline CSV to %s\n", timeline_csv.c_str());
  }
  if (!slo_out.empty() && result->has_slo_report) {
    crayfish::Status s = result->slo_report.WriteJson(slo_out);
    if (!s.ok()) {
      std::fprintf(stderr, "slo report error: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("wrote SLO report to %s\n", slo_out.c_str());
  }
  if (!trace_out.empty() && result->trace != nullptr) {
    crayfish::Status s = result->trace->WriteChromeTrace(trace_out);
    if (!s.ok()) {
      std::fprintf(stderr, "trace error: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("wrote trace of %zu batches to %s\n",
                result->trace->batch_count(), trace_out.c_str());
  }
  if (!trace_csv.empty() && result->trace != nullptr) {
    crayfish::Status s = result->trace->WriteStageCsv(trace_csv);
    if (!s.ok()) {
      std::fprintf(stderr, "trace csv error: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("wrote stage CSV to %s\n", trace_csv.c_str());
  }
  if (!metrics_out.empty() && result->metrics != nullptr) {
    std::ofstream out(metrics_out);
    if (!out) {
      std::fprintf(stderr, "metrics error: cannot open %s\n",
                   metrics_out.c_str());
      return 1;
    }
    out << result->metrics->SnapshotJson() << "\n";
    std::printf("wrote %zu metrics to %s\n", result->metrics->size(),
                metrics_out.c_str());
  }

  if (!measurements_csv.empty()) {
    crayfish::Status s = core::MetricsAnalyzer::WriteMeasurementsCsv(
        measurements_csv, result->measurements);
    if (!s.ok()) {
      std::fprintf(stderr, "csv error: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("wrote %zu measurements to %s\n",
                result->measurements.size(), measurements_csv.c_str());
  }
  return 0;
}
