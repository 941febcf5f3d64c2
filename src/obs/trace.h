#ifndef CRAYFISH_OBS_TRACE_H_
#define CRAYFISH_OBS_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/stage.h"

namespace crayfish::obs {

/// Per-batch trace recorder for the simulated pipeline.
///
/// Components mark stage boundaries as each batch passes through them:
/// `StartBatch` opens the trace at the batch's creation timestamp and every
/// subsequent `Mark(stage, t)` closes an interval `[previous mark, t]`
/// attributed to `stage`. Because intervals are defined by consecutive
/// marks, the per-stage durations of a completed batch tile its end-to-end
/// latency exactly — the invariant the latency-breakdown analyzer relies
/// on.
///
/// All timestamps are *simulated* time (never wall clock) and recording is
/// purely passive — no events are scheduled, no RNG is consumed — so
/// enabling tracing cannot perturb a deterministic run. When tracing is
/// disabled components skip the recorder entirely (null pointer on the
/// Simulation), making the hooks a single branch.
class TraceRecorder {
 public:
  struct StageMark {
    Stage stage;
    /// End of the stage interval (seconds, simulated clock).
    double time_s;
  };

  struct BatchTrace {
    /// Creation timestamp — start of the first interval.
    double start_s = 0.0;
    std::vector<StageMark> marks;
    /// Number of broker appends seen (1 = input topic, 2 = output topic).
    int appends = 0;
    /// True once the output-topic append is recorded; further marks for
    /// this batch (e.g. from the measurement consumer fetching the output
    /// topic) are ignored.
    bool complete = false;
  };

  /// A span on a named auxiliary track (server pools, serial executors).
  struct TrackSpan {
    std::string track;
    std::string name;
    double start_s;
    double end_s;
  };

  /// A point-in-time marker on a named auxiliary track (SLO breach /
  /// recover transitions, autoscale decisions).
  struct InstantEvent {
    std::string track;
    std::string name;
    double time_s;
  };

  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Opens the trace of `batch_id` at its creation timestamp. Called by
  /// the input producer; marks for unknown batches are dropped.
  void StartBatch(uint64_t batch_id, double create_time_s);

  /// Closes the interval [previous mark, time_s] as `stage`. Timestamps
  /// must be nondecreasing per batch; earlier times clamp to the previous
  /// mark (a zero-duration stage).
  void Mark(uint64_t batch_id, Stage stage, double time_s);

  /// Producer-side mark that resolves the stage by position in the
  /// pipeline: kProduce before the input-topic append, kSinkProduce after.
  void MarkProduce(uint64_t batch_id, double time_s);

  /// Broker-append mark: kBrokerAppend for the first append (input topic),
  /// kOutputAppend for the second, which completes the batch's trace.
  void MarkAppend(uint64_t batch_id, double time_s);

  /// Records a span on a named auxiliary track (e.g. a ServerPool's
  /// queue-wait and service intervals). Exported as its own Perfetto
  /// track group.
  void AddTrackSpan(const std::string& track, const std::string& name,
                    double start_s, double end_s);

  /// Records an instant event on a named auxiliary track, rendered as a
  /// point marker in the Perfetto UI ("ph":"i").
  void AddInstant(const std::string& track, const std::string& name,
                  double time_s);

  size_t batch_count() const { return batches_.size(); }
  size_t completed_batches() const { return completed_; }
  const std::map<uint64_t, BatchTrace>& batches() const { return batches_; }
  const std::vector<TrackSpan>& track_spans() const { return track_spans_; }
  const std::vector<InstantEvent>& instants() const { return instants_; }

  /// Chrome trace-event JSON (catapult format, Perfetto-loadable): one
  /// lane per pipeline stage plus one lane per auxiliary track.
  std::string ToChromeTraceJson() const;
  crayfish::Status WriteChromeTrace(const std::string& path) const;

  /// Per-span CSV: batch_id,stage,start_s,end_s,duration_ms.
  std::string ToStageCsv() const;
  crayfish::Status WriteStageCsv(const std::string& path) const;

 private:
  std::map<uint64_t, BatchTrace> batches_;
  std::vector<TrackSpan> track_spans_;
  std::vector<InstantEvent> instants_;
  size_t completed_ = 0;
};

}  // namespace crayfish::obs

/// Stage-mark hook for components holding a `sim::Simulation*`. Expands to
/// a single null-check when tracing is enabled at build time and to
/// nothing when Crayfish is built with -DCRAYFISH_DISABLE_TRACING.
#ifdef CRAYFISH_DISABLE_TRACING
#define CRAYFISH_TRACE_MARK(sim, batch_id, stage) ((void)0)
#define CRAYFISH_TRACE_WITH(sim, tracer_var, body) ((void)0)
#else
#define CRAYFISH_TRACE_MARK(sim, batch_id, stage)                        \
  do {                                                                   \
    if (::crayfish::obs::TraceRecorder* _crayfish_tr = (sim)->tracer())  \
      _crayfish_tr->Mark((batch_id), (stage), (sim)->Now());             \
  } while (0)
/// Runs `body` with `tracer_var` bound to the recorder, only when tracing
/// is on — for hooks needing more than a single mark.
#define CRAYFISH_TRACE_WITH(sim, tracer_var, body)                       \
  do {                                                                   \
    if (::crayfish::obs::TraceRecorder* tracer_var = (sim)->tracer()) {  \
      body;                                                              \
    }                                                                    \
  } while (0)
#endif

#endif  // CRAYFISH_OBS_TRACE_H_
