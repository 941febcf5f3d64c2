#ifndef PERFBENCH_HOST_SPEED_H_
#define PERFBENCH_HOST_SPEED_H_

namespace perfbench {

/// Seconds the calibration kernel takes on the reference host. The
/// end-to-end times are reported as if measured on that host.
inline constexpr double kReferenceCalibrationS = 0.025;

/// Runs the calibration kernel once and returns its host wall seconds.
///
/// The kernel is a fixed piece of work built only from the standard
/// library, shaped like the simulator's hot loop: a priority queue of
/// closures, an ordered map and short-lived heap buffers. It shares no code
/// with src/, so no change to the program moves it, while a slower or
/// faster host moves it as it moves the simulator. On a shared 4-vCPU host,
/// over 4.5 minutes in which the medians of table4_overload runs drifted by
/// 28%, their ratio to the kernel's adjacent medians stayed within 1%.
double CalibrationKernelSeconds();

}  // namespace perfbench

#endif  // PERFBENCH_HOST_SPEED_H_
