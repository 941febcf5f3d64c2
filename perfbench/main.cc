// crayfish_perfbench: the repo benchmark's measuring binary.
//
//   crayfish_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                      [--spans_out PATH] [--git_describe TEXT]
//
// --trace 0 measures the end-to-end metrics of one workload with tracing
// off: host wall and CPU seconds per core::RunExperiment call, set-up
// seconds (a zero-length run of the same config) and peak RSS. --trace 1
// is a separate run that reads each run's result surface (metrics
// registry, latency breakdown, timeline probes) with tracing on and times
// the layer drivers, printing the per-layer ledger. Every run's output is
// checked; a run whose RunExperiment status is not OK or whose check fails
// counts as failed. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "alloc_counter.h"
#include "common/json.h"
#include "core/breakdown.h"
#include "core/experiment.h"
#include "core/metrics.h"
#include "drivers.h"
#include "host_speed.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

using crayfish::JsonValue;
using crayfish::core::ExperimentConfig;
using crayfish::core::ExperimentResult;
using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  uint64_t seed = 42;
  int seconds = 10;
  int trace = 0;
  std::string spans_out;
  std::string git_describe = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (value.empty() || *end != '\0' || args->seconds < 1 ||
          args->seconds > 600) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1" ? 1 : 0;
    } else if (flag == "--spans_out") {
      args->spans_out = value;
    } else if (flag == "--git_describe") {
      args->git_describe = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return !args->workload.empty();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Attempted/failed operation tally: every RunExperiment call counts.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Fail(const std::string& what) {
    ++failed;
    std::printf("FAILED: %s\n", what.c_str());
  }
};

struct TimedRun {
  ExperimentConfig config;
  bool ok = false;
  ExperimentResult result;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// One RunExperiment call, timed, inside span `span_name`.
TimedRun Run(const ExperimentConfig& config, const std::string& span_name,
             SpanRecorder* spans, Tally* tally) {
  TimedRun run;
  run.config = config;
  ++tally->attempted;
  const double cpu0 = ProcessCpuSeconds();
  const Clock::time_point t0 = Clock::now();
  auto result = [&]() {
    ScopedSpan span(spans, span_name);
    return crayfish::core::RunExperiment(config);
  }();
  run.wall_s = SecondsSince(t0);
  run.cpu_s = ProcessCpuSeconds() - cpu0;
  if (!result.ok()) {
    tally->Fail(span_name + ": RunExperiment: " + result.status().ToString());
    return run;
  }
  run.ok = true;
  run.result = std::move(*result);
  return run;
}

/// Runs the workload's output check and the digest check against
/// `want_digest` (0 = no reference yet). Returns false on failure.
bool Check(const Workload& w, const TimedRun& run, uint64_t want_digest,
           const std::string& what, Tally* tally) {
  if (!run.ok) return false;
  const std::string why = CheckOutput(w, run.config, run.result);
  if (!why.empty()) {
    tally->Fail(what + ": output check: " + why);
    return false;
  }
  const uint64_t got = Digest(run.result);
  if (want_digest != 0 && got != want_digest) {
    tally->Fail(what + ": digest " + DigestHex(got) + " != reference " +
                DigestHex(want_digest));
    return false;
  }
  return true;
}

JsonValue Manifest(const Args& args, const Workload& w) {
  JsonValue m = JsonValue::MakeObject();
  m["git_describe"] = args.git_describe;
  m["build_type"] = PERFBENCH_BUILD_TYPE;
  m["cxx_flags"] = PERFBENCH_CXX_FLAGS;
  m["compiler"] = PERFBENCH_COMPILER;
#ifdef __OPTIMIZE__
  m["optimized"] = true;
#else
  m["optimized"] = false;
#endif
  m["nproc"] = static_cast<int64_t>(sysconf(_SC_NPROCESSORS_ONLN));
  m["hardware_concurrency"] =
      static_cast<int64_t>(std::thread::hardware_concurrency());
  m["workload"] = w.name;
  m["seed"] = static_cast<uint64_t>(w.config.seed);
  m["sim_threads"] = w.config.sim_threads;
  m["parallel_threads"] = w.parallel_threads;
  m["seconds"] = args.seconds;
  m["trace"] = args.trace;
  const ExperimentConfig& c = w.config;
  JsonValue cfg = JsonValue::MakeObject();
  cfg["label"] = c.Label();
  cfg["duration_s"] = c.duration_s;
  cfg["drain_s"] = c.drain_s;
  cfg["timeline_interval_s"] = c.timeline_interval_s;
  cfg["validate_real_inference"] = c.validate_real_inference;
  cfg["topic_partitions"] = c.topic_partitions;
  cfg["retention_records"] = static_cast<uint64_t>(c.retention_records);
  if (c.workload.enabled) {
    cfg["workload.base_rate"] = c.workload.shape.base_rate;
    cfg["workload.spike_at_s"] = c.workload.shape.spike_at_s;
    cfg["workload.spike_mult"] = c.workload.shape.spike_mult;
    cfg["workload.tenants"] = c.workload.tenants;
    cfg["workload.tenant_partitions"] = c.workload.tenant_partitions;
    cfg["workload.fleet_hosts"] = c.workload.fleet_hosts;
  }
  if (c.autoscaler.enabled) cfg["autoscaler.kind"] = c.autoscaler.kind;
  m["config"] = std::move(cfg);
  return m;
}

/// Ordered (name, value, unit) list that becomes the result's "metrics".
class MetricList {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           bool applies = true) {
    if (!std::isfinite(value)) value = 0.0;
    rows_.push_back(Row{name, value, unit, applies});
  }

  void Print() const {
    for (const Row& r : rows_) {
      if (r.applies) {
        std::printf("  %-34s %16.6g %s\n", r.name.c_str(), r.value,
                    r.unit.c_str());
      } else {
        std::printf("  %-34s %16s %s (n/a: layer idle here; %.6g)\n",
                    r.name.c_str(), "n/a", r.unit.c_str(), r.value);
      }
    }
  }

  JsonValue ToJson() const {
    JsonValue out = JsonValue::MakeObject();
    for (const Row& r : rows_) {
      JsonValue v = JsonValue::MakeObject();
      v["value"] = r.value;
      v["unit"] = r.unit;
      out[r.name] = std::move(v);
    }
    return out;
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
    bool applies;
  };
  std::vector<Row> rows_;
};

void PrintResultLine(const Tally& tally, const MetricList& metrics) {
  JsonValue out = JsonValue::MakeObject();
  out["correct"] = tally.failed == 0;
  out["attempted"] = tally.attempted;
  out["failed"] = tally.failed;
  out["metrics"] = metrics.ToJson();
  std::printf("%s\n", out.Dump().c_str());
}

void WriteSpans(const Args& args, const JsonValue& manifest,
                const SpanRecorder& spans) {
  if (args.spans_out.empty()) return;
  std::ofstream f(args.spans_out);
  f << "{\"manifest\":" << manifest.Dump()
    << ",\"trace\":" << spans.ToJson() << "}\n";
  if (!f) {
    std::fprintf(stderr, "warning: could not write spans to %s\n",
                 args.spans_out.c_str());
  }
}

/// The workload on the parallel engine (Workload::parallel_threads).
ExperimentConfig ParallelConfig(const Workload& w) {
  ExperimentConfig c = w.config;
  c.sim_threads = w.parallel_threads;
  return c;
}

// --------------------------------------------------------------------------
// --trace 0: end-to-end metrics
// --------------------------------------------------------------------------

int RunEndToEnd(const Args& args, const Workload& w,
                const JsonValue& manifest) {
  SpanRecorder spans;
  Tally tally;
  const double budget_s = args.seconds;

  // Reference (and warm-up) run: fixes the digest every later run must
  // reproduce, on the parallel engine too.
  TimedRun ref = Run(w.config, "reference_run", &spans, &tally);
  bool ref_ok = Check(w, ref, 0, "reference run", &tally);
  const uint64_t digest = ref_ok ? Digest(ref.result) : 0;
  if (ref_ok && w.parallel_threads > 1) {
    ref_ok = Check(w, Run(ParallelConfig(w), "parallel_run", &spans, &tally),
                   digest, "parallel run", &tally);
  }

  // Timed runs until the budget is spent. After each, zero-length set-up
  // runs for a twentieth of its time: interleaved, the set-up samples see
  // the same spread of machine conditions as the runs do. The calibration
  // kernel runs between them; its median gives the host's speed over the
  // whole invocation, and the reported medians are scaled by it to the
  // reference host's speed (host_speed.h). Raw medians are printed too.
  std::vector<double> wall_s;
  std::vector<double> cpu_s;
  std::vector<double> setup_s;
  std::vector<double> calibration_s;
  const ExperimentConfig setup = SetupOnly(w.config);
  const Clock::time_point t0 = Clock::now();
  while (ref_ok && (wall_s.size() < 3 || SecondsSince(t0) < budget_s)) {
    calibration_s.push_back(CalibrationKernelSeconds());
    TimedRun r = Run(w.config, "run", &spans, &tally);
    if (!Check(w, r, digest, "run " + std::to_string(wall_s.size()), &tally)) {
      break;
    }
    wall_s.push_back(r.wall_s);
    cpu_s.push_back(r.cpu_s);
    calibration_s.push_back(CalibrationKernelSeconds());
    const Clock::time_point setup_t0 = Clock::now();
    for (int i = 0;
         i < 5 || (i < 200 && SecondsSince(setup_t0) < 0.05 * r.wall_s);
         ++i) {
      TimedRun s = Run(setup, "setup_run", &spans, &tally);
      if (!s.ok) break;
      setup_s.push_back(s.wall_s);
    }
  }
  const double scale = kReferenceCalibrationS / Median(calibration_s);

  std::printf("workload %s seed %llu: %zu runs, %zu set-up runs\n",
              w.name.c_str(), static_cast<unsigned long long>(w.config.seed),
              wall_s.size(), setup_s.size());
  std::printf("digest %s, %llu of %llu runs failed%s\n",
              DigestHex(digest).c_str(),
              static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.attempted),
              w.parallel_threads > 1 ? " (parallel-engine run included)" : "");
  if (ref_ok) {
    std::printf("events_sent %llu events_scored %llu sim_events %llu\n",
                static_cast<unsigned long long>(ref.result.events_sent),
                static_cast<unsigned long long>(ref.result.events_scored),
                static_cast<unsigned long long>(
                    ref.result.sim_events_executed));
  }
  // Every sample when there are few; quartiles otherwise.
  auto print_samples = [](const char* name, std::vector<double> v) {
    std::printf("%-8s median %.6f n=%zu:", name, Median(v), v.size());
    if (v.size() > 50) {
      std::sort(v.begin(), v.end());
      std::printf(" min %.6f q1 %.6f q3 %.6f max %.6f", v.front(),
                  v[v.size() / 4], v[3 * v.size() / 4], v.back());
    } else {
      for (double x : v) std::printf(" %.6f", x);
    }
    std::printf("\n");
  };
  print_samples("wall_s", wall_s);
  print_samples("cpu_s", cpu_s);
  print_samples("setup_s", setup_s);
  print_samples("cal_s", calibration_s);
  std::printf("host speed: reported medians = raw medians x %.4f "
              "(reference calibration %.3f s / median cal_s)\n",
              scale, kReferenceCalibrationS);

  MetricList metrics;
  metrics.Add("wall_s", Median(wall_s) * scale, "s");
  metrics.Add("cpu_s", Median(cpu_s) * scale, "s");
  metrics.Add("setup_s", Median(setup_s) * scale, "s");
  metrics.Add("peak_rss_mb", PeakRssMb(), "MB");
  WriteSpans(args, manifest, spans);
  PrintResultLine(tally, metrics);
  return 0;
}

// --------------------------------------------------------------------------
// --trace 1: per-layer ledger
// --------------------------------------------------------------------------

/// Sum of every registry value whose identity starts with `prefix`
/// (counters and gauges; histograms are skipped).
double RegistrySum(const JsonValue& snapshot, const std::string& prefix) {
  double sum = 0.0;
  for (const auto& [key, value] : snapshot.as_object()) {
    if (key.compare(0, prefix.size(), prefix) == 0 && value.is_number()) {
      sum += value.as_number();
    }
  }
  return sum;
}

/// Median over the windows of timeline gauge `name`: its p50 reading.
double TimelineGaugeMedian(const ExperimentResult& r,
                           const std::string& name) {
  std::vector<double> v;
  if (r.timeline == nullptr) return 0.0;
  for (const crayfish::obs::TimelineWindow& win : r.timeline->windows()) {
    auto it = win.gauges.find(name);
    if (it != win.gauges.end()) v.push_back(it->second);
  }
  return Median(v);
}

double TimelineCounterSum(const ExperimentResult& r, const std::string& name) {
  double sum = 0.0;
  if (r.timeline == nullptr) return sum;
  for (const crayfish::obs::TimelineWindow& win : r.timeline->windows()) {
    auto it = win.counters.find(name);
    if (it != win.counters.end()) sum += it->second;
  }
  return sum;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

int RunTraced(const Args& args, const Workload& w,
              const JsonValue& manifest) {
  SpanRecorder spans;
  Tally tally;
  const ExperimentConfig& cfg = w.config;
  // Each layer driver gets a slice of the budget.
  const double driver_s = std::clamp(0.03 * args.seconds, 0.1, 0.6);

  // 1. Untraced reference runs: the digest, the wall_s base and, on the
  // first one, the heap-allocation count.
  StartAllocCounting();
  TimedRun ref = Run(cfg, "reference_run", &spans, &tally);
  const AllocCounts allocs = StopAllocCounting();
  // A failed run is counted and the ledger is still printed, from
  // whatever the runs that did complete left.
  Check(w, ref, 0, "reference run", &tally);
  const uint64_t digest = ref.ok ? Digest(ref.result) : 0;
  std::vector<double> walls;
  for (int i = 0; i < 3; ++i) {
    TimedRun r = Run(cfg, "run", &spans, &tally);
    if (Check(w, r, digest, "untraced run", &tally)) walls.push_back(r.wall_s);
  }
  const double wall_s = Median(walls);
  const bool threaded = w.parallel_threads > 1;
  double threaded_speedup = 1.0;
  if (threaded) {
    // The same config on the parallel engine, against the serial runs
    // above: the speed-up it buys (or costs) with identical results.
    std::vector<double> parallel_walls;
    for (int i = 0; i < 3; ++i) {
      TimedRun r = Run(ParallelConfig(w), "parallel_run", &spans, &tally);
      if (Check(w, r, digest, "parallel run", &tally)) {
        parallel_walls.push_back(r.wall_s);
      }
    }
    threaded_speedup = Ratio(wall_s, Median(parallel_walls));
  }

  // 2. Timeline overhead: the same config with the 1 s timeline toggled.
  ExperimentConfig toggled = cfg;
  const bool has_timeline = cfg.timeline_interval_s > 0.0;
  toggled.timeline_interval_s = has_timeline ? 0.0 : 1.0;
  std::vector<double> toggled_walls;
  for (int i = 0; i < 2; ++i) {
    TimedRun r = Run(toggled, "timeline_toggled_run", &spans, &tally);
    if (Check(w, r, digest, "timeline-toggled run", &tally)) {
      toggled_walls.push_back(r.wall_s);
    }
  }
  const double with_timeline_s = has_timeline ? wall_s : Median(toggled_walls);
  const double without_timeline_s =
      has_timeline ? Median(toggled_walls) : wall_s;

  // 3. The traced run: tracing on, plus the 1 s timeline for its probes.
  ExperimentConfig traced_cfg = cfg;
  traced_cfg.enable_tracing = true;
  if (!has_timeline) traced_cfg.timeline_interval_s = 1.0;
  TimedRun traced = Run(traced_cfg, "traced_run", &spans, &tally);
  Check(w, traced, digest, "traced run", &tally);
  const ExperimentResult& t = traced.result;
  Run(SetupOnly(cfg), "setup_run", &spans, &tally);  // a span, no output
  if (t.trace != nullptr) {
    // The latency breakdown RunExperiment computed, timed once more.
    ScopedSpan span(&spans, "analysis:BreakdownAnalyzer");
    crayfish::core::BreakdownAnalyzer::Compute(*t.trace, t.measurements);
  }
  double summarize_s = 0.0;
  {
    ScopedSpan span(&spans, "analysis:Summarize");
    std::vector<double> samples;
    const Clock::time_point start = Clock::now();
    while (samples.size() < 5 || SecondsSince(start) < driver_s) {
      const Clock::time_point s0 = Clock::now();
      const crayfish::core::MetricsSummary s =
          crayfish::core::MetricsAnalyzer::Summarize(t.measurements);
      samples.push_back(SecondsSince(s0));
      if (s.measurements == 0) break;
    }
    summarize_s = Median(samples);
  }

  const JsonValue snapshot =
      t.metrics != nullptr ? t.metrics->Snapshot() : JsonValue::MakeObject();
  const double sent = static_cast<double>(t.events_sent);
  const double events = static_cast<double>(t.sim_events_executed);
  const double records_in = RegistrySum(snapshot, "broker_records_in{");
  const double records_out = RegistrySum(snapshot, "broker_records_out{");
  const double bytes_in = RegistrySum(snapshot, "broker_bytes_in{");
  const double bytes_out = RegistrySum(snapshot, "broker_bytes_out{");
  const bool external = t.metrics != nullptr &&
                        RegistrySum(snapshot, "serving_requests_served{") > 0;
  const double serving_requests =
      external ? RegistrySum(snapshot, "serving_requests_served{")
               : RegistrySum(snapshot, "library_simulated_applies{");
  const double queue_p50 = TimelineGaugeMedian(t, "sim_event_queue");
  const double queue_max =
      TimelineGaugeMax(t, "sim_event_queue", 0.0, 1e300);
  const uint64_t record_bytes = static_cast<uint64_t>(
      std::max(1.0, Ratio(bytes_in, records_in)));
  const bool materialized = cfg.validate_real_inference;
  const double samples_encoded =
      materialized ? sent * cfg.batch_size : 0.0;
  const double samples_decoded =
      materialized ? static_cast<double>(t.real_inferences) * cfg.batch_size
                   : 0.0;
  const double generated = std::max(
      0.0, records_in - static_cast<double>(t.measurements.size()));
  // Record-level network hops: each record into and out of a broker, and
  // each external serving request and its response. An estimate: the
  // network layer exposes no send counter.
  const double network_sends =
      records_in + records_out + (external ? 2.0 * serving_requests : 0.0);

  // 4. Layer drivers, shaped by this run's counts.
  const int drivers_span = spans.Begin("drivers");
  auto timed = [&](const std::string& name, auto fn) {
    ScopedSpan span(&spans, "driver:" + name);
    return fn();
  };
  const double sim_ns = timed("sim", [&] {
    return SimNsPerEvent(static_cast<size_t>(std::max(1.0, queue_p50)),
                         driver_s);
  });
  const double net_ns = timed("network", [&] {
    return NetworkNsPerSend(record_bytes, sim_ns, driver_s);
  });
  const double produce_ns = timed("broker_produce", [&] {
    return BrokerNsPerProduce(record_bytes, cfg.topic_partitions,
                              cfg.retention_records, cfg.input_rate, sim_ns,
                              driver_s);
  });
  const double fetch_ns = timed("broker_fetch", [&] {
    return BrokerNsPerFetchedRecord(record_bytes, cfg.topic_partitions,
                                    sim_ns, driver_s);
  });
  const std::string tool = external ? cfg.serving : "tf-serving";
  const double serving_ns = timed("serving", [&] {
    return ServingNsPerRequest(tool, cfg.parallelism, cfg.batch_size, sim_ns,
                               driver_s);
  });
  const double generator_ns = timed("generator", [&] {
    return GeneratorNsPerRecord(cfg.SampleShape(), cfg.batch_size,
                                materialized, driver_s);
  });
  const PayloadCost payload = timed("payload", [&] {
    return PayloadNsPerSample(cfg.SampleShape(), cfg.batch_size, driver_s);
  });
  const double forward_ns = timed("model", [&] {
    return ModelNsPerSampleForward(cfg.batch_size, driver_s);
  });
  const double gflops = timed("tensor", [&] {
    return TensorGemmGflops(cfg.batch_size, driver_s);
  });
  spans.End(drivers_span);

  // 5. The ledger: each share is traced count x driver cost; what they do
  // not cover is the engine and glue.
  const double sim_share = events * sim_ns * 1e-9;
  const double net_share = network_sends * net_ns * 1e-9;
  const double produce_share = records_in * produce_ns * 1e-9;
  const double fetch_share = records_out * fetch_ns * 1e-9;
  const double serving_share =
      (external ? serving_requests : 0.0) * serving_ns * 1e-9;
  const double generator_share = generated * generator_ns * 1e-9;
  const double payload_share =
      (samples_encoded * payload.encode_ns_per_sample +
       samples_decoded * payload.decode_ns_per_sample) *
      1e-9;
  const double model_share = samples_decoded * forward_ns * 1e-9;
  const double unattributed =
      wall_s - (sim_share + net_share + produce_share + fetch_share +
                serving_share + generator_share + summarize_s +
                payload_share + model_share);

  const double windows =
      t.timeline != nullptr ? static_cast<double>(t.timeline->windows().size())
                            : 0.0;
  const bool autoscaled = t.has_autoscale;
  const double retries = RegistrySum(snapshot, "fault_retries{");

  std::vector<double> calibration_s;
  for (int i = 0; i < 5; ++i) {
    calibration_s.push_back(CalibrationKernelSeconds());
  }

  MetricList m;
  m.Add("run.calibration_s", Median(calibration_s), "s");
  m.Add("run.wall_s", wall_s, "s");
  m.Add("run.traced_wall_s", traced.wall_s, "s");
  m.Add("run.records_sent", sent, "count");
  m.Add("sim.events", events, "count");
  m.Add("sim.events_per_record", Ratio(events, sent), "count/record");
  m.Add("sim.ns_per_event", sim_ns, "ns");
  m.Add("sim.share_s", sim_share, "s");
  m.Add("sim.queue_depth_p50", queue_p50, "count");
  m.Add("sim.queue_depth_max", queue_max, "count");
  m.Add("sim.threaded_speedup", threaded_speedup, "x", threaded);
  m.Add("run.heap_allocs_per_event",
        Ratio(static_cast<double>(allocs.calls),
              static_cast<double>(ref.result.sim_events_executed)),
        "count/event");
  m.Add("run.heap_bytes_per_event",
        Ratio(static_cast<double>(allocs.bytes),
              static_cast<double>(ref.result.sim_events_executed)),
        "B/event");
  m.Add("network.sends", network_sends, "count");
  m.Add("network.ns_per_send", net_ns, "ns");
  m.Add("network.share_s", net_share, "s");
  m.Add("broker.records_in_per_record", Ratio(records_in, sent),
        "count/record");
  m.Add("broker.records_out_per_record", Ratio(records_out, sent),
        "count/record");
  m.Add("broker.bytes_in_per_record", Ratio(bytes_in, sent), "B/record");
  m.Add("broker.bytes_out_per_record", Ratio(bytes_out, sent), "B/record");
  m.Add("broker.ns_per_produce", produce_ns, "ns");
  m.Add("broker.produce_share_s", produce_share, "s");
  m.Add("broker.ns_per_fetched_record", fetch_ns, "ns");
  m.Add("broker.fetch_share_s", fetch_share, "s");
  m.Add("broker.retries", retries, "count");
  m.Add("consumer.lag_max", TimelineGaugeMax(t, "consumer_lag", 0.0, 1e300),
        "count");
  m.Add("sps.scored_per_record",
        Ratio(static_cast<double>(t.events_scored), sent), "ratio");
  m.Add("sps.stall_s", TimelineCounterSum(t, "engine_stall_s"), "s");
  m.Add("sps.queue_depth_max",
        TimelineGaugeMax(t, "sps_queue_depth", 0.0, 1e300), "count");
  m.Add("sps.unattributed_s", unattributed, "s");
  m.Add("serving.requests_per_record", Ratio(serving_requests, sent),
        "count/record");
  m.Add("serving.utilization",
        RegistrySum(snapshot, "serving_utilization{resource=workers"),
        "ratio", external);
  m.Add("serving.queue_wait_mean_s",
        RegistrySum(snapshot, "serving_wait_mean_s{resource=workers"), "s",
        external);
  m.Add("serving.ns_per_request", serving_ns, "ns", external);
  m.Add("serving.share_s", serving_share, "s", external);
  m.Add("payload.samples", samples_encoded, "count");
  m.Add("payload.ns_per_sample_encode", payload.encode_ns_per_sample, "ns",
        materialized);
  m.Add("payload.ns_per_sample_decode", payload.decode_ns_per_sample, "ns",
        materialized);
  m.Add("payload.share_s", payload_share, "s", materialized);
  m.Add("model.samples", samples_decoded, "count");
  m.Add("model.ns_per_sample_forward", forward_ns, "ns", materialized);
  m.Add("model.share_s", model_share, "s", materialized);
  m.Add("tensor.gemm_gflops", gflops, "GFLOP/s", materialized);
  m.Add("core.generated_records", generated, "count");
  m.Add("core.generator_ns_per_record", generator_ns, "ns");
  m.Add("core.generator_share_s", generator_share, "s");
  m.Add("core.measurements", static_cast<double>(t.measurements.size()),
        "count");
  m.Add("core.summarize_s", summarize_s, "s");
  m.Add("obs.timeline_windows", windows, "count");
  m.Add("obs.timeline_overhead", Ratio(with_timeline_s, without_timeline_s),
        "x");
  m.Add("obs.tracing_overhead", Ratio(traced.wall_s, with_timeline_s), "x");
  m.Add("scale.ticks", autoscaled ? t.autoscale.ticks : 0.0, "count",
        autoscaled);
  m.Add("scale.resizes",
        autoscaled ? static_cast<double>(t.autoscale.actions.size()) : 0.0,
        "count", autoscaled);
  m.Add("scale.losses",
        t.has_fault_metrics ? static_cast<double>(t.fault_metrics.losses)
                            : 0.0,
        "count", autoscaled);

  std::printf("workload %s seed %llu traced: digest %s, %llu of %llu runs "
              "failed\n",
              w.name.c_str(), static_cast<unsigned long long>(cfg.seed),
              DigestHex(digest).c_str(),
              static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.attempted));
  if (!t.breakdown.empty()) std::printf("%s", t.breakdown.ToString().c_str());
  std::printf("per-layer ledger (shares are traced count x driver cost; "
              "base run.wall_s):\n");
  m.Print();
  std::printf("spans (self seconds):\n");
  for (size_t i = 0; i < spans.spans().size(); ++i) {
    const Span& s = spans.spans()[i];
    const int depth = s.parent < 0 ? 0 : 2;
    std::printf("  %*s%-*s %10.4f s self, %10.4f s total\n", depth, "",
                30 - depth, s.name.c_str(),
                spans.SelfSeconds(static_cast<int>(i)), s.end_s - s.start_s);
  }
  WriteSpans(args, manifest, spans);
  PrintResultLine(tally, m);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: crayfish_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--spans_out PATH] "
                 "[--git_describe TEXT]\n");
    return 2;
  }
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  auto workload =
      perfbench::MakeWorkload(args.workload, args.seed, static_cast<int>(hw));
  if (!workload.ok()) {
    std::fprintf(stderr, "%s\n", workload.status().ToString().c_str());
    return 2;
  }
  const crayfish::JsonValue manifest = perfbench::Manifest(args, *workload);
  std::printf("manifest %s\n", manifest.Dump().c_str());
  if (!manifest.Find("optimized")->as_bool()) {
    std::printf("WARNING: unoptimised build; timings are not comparable\n");
    std::fprintf(stderr,
                 "WARNING: unoptimised build; timings are not comparable\n");
  }
  std::fflush(stdout);
  return args.trace == 1 ? perfbench::RunTraced(args, *workload, manifest)
                         : perfbench::RunEndToEnd(args, *workload, manifest);
}
