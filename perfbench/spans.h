#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <string>
#include <vector>

namespace perfbench {

/// One timed interval of the benchmark itself, around a call into the
/// program: a RunExperiment call, a set-up run, a result-analysis call or a
/// layer driver.
struct Span {
  std::string name;
  double start_s = 0.0;  ///< host seconds since the recorder was made
  double end_s = 0.0;
  int parent = -1;  ///< index of the enclosing span, -1 at the top
};

/// In-memory span log. Spans nest by scope (ScopedSpan); nothing is written
/// until the run ends, so recording costs one clock read per boundary.
class SpanRecorder {
 public:
  SpanRecorder();

  int Begin(std::string name);
  void End(int id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Duration of span `id` minus the part its direct children cover.
  double SelfSeconds(int id) const;

  /// {"spans": [{name, start_s, end_s, parent, self_s}, ...]}
  std::string ToJson() const;

 private:
  double Now() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name)
      : recorder_(recorder), id_(recorder->Begin(std::move(name))) {}
  ~ScopedSpan() { recorder_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
