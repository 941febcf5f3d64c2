#ifndef CRAYFISH_BENCH_BENCH_COMMON_H_
#define CRAYFISH_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/logging.h"
#include "core/experiment.h"
#include "core/report.h"
#include "core/sweep.h"
#include "serving/calibration.h"
#include "serving/external_server.h"
#include "sim/network.h"
#include "sim/simulation.h"

namespace crayfish::bench {

/// Harness options shared by every bench binary, set once by Init().
struct BenchOptions {
  /// Sweep parallelism; 0 = hardware concurrency, 1 = serial.
  int jobs = 0;
  /// Directory CSVs are written to (created on demand).
  std::string out_dir = "results";
};

inline BenchOptions& Options() {
  static BenchOptions options;
  return options;
}

/// Parses the common bench flags (`--jobs N`, `--out_dir PATH`, both also
/// in `--flag=value` form) and installs the sweep default. `--jobs` parses
/// as `crayfish_run`'s does: a value that is not an integer >= 1 exits 2
/// naming the flag. Unknown arguments are ignored so binaries can keep
/// their own flags.
inline void Init(int argc, char** argv) {
  BenchOptions& opts = Options();
  const auto value_of = [&](int& i, const char* name) -> const char* {
    const size_t len = std::strlen(name);
    if (std::strncmp(argv[i], name, len) != 0) return nullptr;
    if (argv[i][len] == '=') return argv[i] + len + 1;
    if (argv[i][len] == '\0' && i + 1 < argc) return argv[++i];
    return nullptr;
  };
  for (int i = 1; i < argc; ++i) {
    if (const char* v = value_of(i, "--jobs")) {
      const crayfish::Status s = core::ApplyJobsFlag(v);
      if (!s.ok()) {
        std::fprintf(stderr, "%s\n", s.message().c_str());
        std::exit(2);
      }
      opts.jobs = core::DefaultSweepJobs();
    } else if (const char* v = value_of(i, "--out_dir")) {
      opts.out_dir = v;
    }
  }
}

/// Runs one configuration, CHECK-failing on setup errors (bench configs
/// are static, so failures are programmer errors).
inline core::ExperimentResult Run(const core::ExperimentConfig& config) {
  auto result = core::RunExperiment(config);
  CRAYFISH_CHECK(result.ok()) << config.Label() << ": "
                              << result.status().ToString();
  return std::move(*result);
}

/// Runs a batch of independent configurations through the sweep pool
/// (Options().jobs threads); results come back in submission order.
inline std::vector<core::ExperimentResult> RunAll(
    const std::vector<core::ExperimentConfig>& configs) {
  auto results = core::RunExperiments(configs, Options().jobs);
  CRAYFISH_CHECK(results.ok()) << results.status().ToString();
  CRAYFISH_CHECK_EQ(results->size(), configs.size());
  return std::move(*results);
}

/// Runs the paper's protocol: two repeats, aggregated.
inline std::vector<core::ExperimentResult> Run2(
    core::ExperimentConfig config) {
  auto results = core::RunRepeated(config, 2);
  CRAYFISH_CHECK(results.ok()) << config.Label() << ": "
                               << results.status().ToString();
  return std::move(*results);
}

/// Batched Run2: every (config, repeat) pair is an independent simulation,
/// so the whole sweep is flattened into one pool submission; group i of
/// the returned vector holds config i's repeats, in repeat order.
inline std::vector<std::vector<core::ExperimentResult>> Run2All(
    const std::vector<core::ExperimentConfig>& configs, int repeats = 2) {
  std::vector<core::ExperimentConfig> flat;
  flat.reserve(configs.size() * static_cast<size_t>(repeats));
  for (const core::ExperimentConfig& config : configs) {
    for (core::ExperimentConfig& repeat :
         core::MakeRepeatedConfigs(config, repeats)) {
      flat.push_back(std::move(repeat));
    }
  }
  std::vector<core::ExperimentResult> all = RunAll(flat);
  std::vector<std::vector<core::ExperimentResult>> grouped(configs.size());
  size_t next = 0;
  for (size_t i = 0; i < configs.size(); ++i) {
    for (int r = 0; r < repeats; ++r) {
      grouped[i].push_back(std::move(all[next++]));
    }
  }
  return grouped;
}

/// "measured (paper: reference)" cell.
inline std::string VsPaper(double measured, double paper, int precision = 2) {
  return core::ReportTable::Num(measured, precision) + " (paper " +
         core::ReportTable::Num(paper, precision) + ")";
}

/// Base throughput-experiment config shared by the open-loop benches
/// (Table 4/5, Fig. 6/7/11/12): overload the SUT and measure the
/// sustained output rate.
inline core::ExperimentConfig ThroughputConfig(const std::string& engine,
                                               const std::string& serving,
                                               const std::string& model) {
  core::ExperimentConfig cfg;
  cfg.engine = engine;
  cfg.serving = serving;
  cfg.model = model;
  cfg.batch_size = 1;
  cfg.parallelism = 1;
  cfg.input_rate = 30000.0;
  cfg.duration_s = 12.0;
  cfg.drain_s = 1.0;
  return cfg;
}

/// Base closed-loop latency config (Fig. 5/10): low rate, latency
/// dominated by the inference path.
inline core::ExperimentConfig ClosedLoopConfig(const std::string& engine,
                                               const std::string& serving,
                                               int batch_size) {
  core::ExperimentConfig cfg;
  cfg.engine = engine;
  cfg.serving = serving;
  cfg.model = "ffnn";
  cfg.batch_size = batch_size;
  cfg.parallelism = 1;
  cfg.input_rate = 1.0;
  cfg.duration_s = 60.0;
  cfg.drain_s = 10.0;
  return cfg;
}

/// Writes the table's CSV into Options().out_dir (created on demand, so
/// benches no longer litter the working directory) and prints it.
inline void Emit(core::ReportTable& table, const std::string& csv_name) {
  table.Print();
  std::string path = csv_name;
  const std::string& dir = Options().out_dir;
  if (!dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      CRAYFISH_LOG(Warning) << "cannot create " << dir << ": "
                            << ec.message();
    } else {
      path = (std::filesystem::path(dir) / csv_name).string();
    }
  }
  crayfish::Status s = table.WriteCsv(path);
  if (!s.ok()) {
    CRAYFISH_LOG(Warning) << "CSV not written: " << s.ToString();
  } else {
    std::printf("[csv: %s]\n\n", path.c_str());
  }
}

}  // namespace crayfish::bench

#endif  // CRAYFISH_BENCH_BENCH_COMMON_H_
