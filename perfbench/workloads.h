#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "core/experiment.h"

namespace perfbench {

/// One benchmark workload: a fixed experiment config whose only varying
/// input is the seed.
struct Workload {
  std::string name;
  crayfish::core::ExperimentConfig config;
  /// When > 1, the config is also run on the parallel engine at this many
  /// threads: every benchmark run checks that its digest equals the serial
  /// one, and the traced run reports the speed-up. End-to-end timings stay
  /// on the serial engine: on shared virtual CPUs the barrier-synchronised
  /// threads vary several-fold in wall time from run to run.
  int parallel_threads = 0;
};

/// Builds workload `name` for `seed`. `parallel_threads` is
/// min(4, hw_threads) for the workload that runs the parallel engine.
crayfish::StatusOr<Workload> MakeWorkload(const std::string& name,
                                          uint64_t seed, int hw_threads);

/// The same deployment with no simulated traffic: constructing and
/// starting every component, then a zero-length run.
crayfish::core::ExperimentConfig SetupOnly(
    crayfish::core::ExperimentConfig config);

/// FNV-1a over a run's simulated surface: the summary JSON, sent/scored
/// counts, executed events, the end time's bits, every measurement, and
/// the autoscale and loss scorecards when present. Equal runs give equal
/// digests; any change to simulated behaviour changes it.
uint64_t Digest(const crayfish::core::ExperimentResult& result);
std::string DigestHex(uint64_t digest);

/// The workload's output check on one run of `ran` (the workload's config,
/// or a variant of it that differs only in observation settings or thread
/// count). Returns an empty string when the run is correct, else the first
/// check that failed.
std::string CheckOutput(const Workload& workload,
                        const crayfish::core::ExperimentConfig& ran,
                        const crayfish::core::ExperimentResult& result);

/// Maximum of timeline gauge `name` over windows starting in
/// [from_s, to_s); 0 without a timeline.
double TimelineGaugeMax(const crayfish::core::ExperimentResult& result,
                        const std::string& name, double from_s,
                        double to_s);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
