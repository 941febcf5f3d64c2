#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace crayfish::obs {

namespace {

// Fixed-precision formatting keeps exports byte-stable across runs.
std::string FormatDouble(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string EscapeJson(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

}  // namespace

void TraceRecorder::StartBatch(uint64_t batch_id, double create_time_s) {
  BatchTrace& bt = batches_[batch_id];
  bt.start_s = create_time_s;
}

void TraceRecorder::Mark(uint64_t batch_id, Stage stage, double time_s) {
  auto it = batches_.find(batch_id);
  if (it == batches_.end()) return;
  BatchTrace& bt = it->second;
  if (bt.complete) return;
  const double prev =
      bt.marks.empty() ? bt.start_s : bt.marks.back().time_s;
  // The DES delivers effects in causal order, so marks should already be
  // nondecreasing; clamp defensively so a same-instant callback ordering
  // quirk yields a zero-duration stage rather than a negative one.
  bt.marks.push_back(StageMark{stage, std::max(time_s, prev)});
  if (stage == Stage::kOutputAppend) {
    bt.complete = true;
    ++completed_;
  }
}

void TraceRecorder::MarkProduce(uint64_t batch_id, double time_s) {
  auto it = batches_.find(batch_id);
  if (it == batches_.end() || it->second.complete) return;
  Mark(batch_id,
       it->second.appends == 0 ? Stage::kProduce : Stage::kSinkProduce,
       time_s);
}

void TraceRecorder::MarkAppend(uint64_t batch_id, double time_s) {
  auto it = batches_.find(batch_id);
  if (it == batches_.end() || it->second.complete) return;
  const Stage stage = it->second.appends == 0 ? Stage::kBrokerAppend
                                              : Stage::kOutputAppend;
  ++it->second.appends;
  Mark(batch_id, stage, time_s);
}

void TraceRecorder::AddTrackSpan(const std::string& track,
                                 const std::string& name, double start_s,
                                 double end_s) {
  track_spans_.push_back(
      TrackSpan{track, name, start_s, std::max(end_s, start_s)});
}

void TraceRecorder::AddInstant(const std::string& track,
                               const std::string& name, double time_s) {
  instants_.push_back(InstantEvent{track, name, time_s});
}

std::string TraceRecorder::ToChromeTraceJson() const {
  // Chrome trace-event (catapult) JSON. pid 1 holds one lane (tid) per
  // pipeline stage so a batch renders as a staircase across lanes; pid 2
  // holds one lane per auxiliary resource track. ts/dur are microseconds.
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  auto emit = [&](const std::string& ev) {
    if (!first) os << ",";
    first = false;
    os << "\n" << ev;
  };

  for (int i = 0; i < kNumStages; ++i) {
    emit("{\"ph\":\"M\",\"pid\":1,\"tid\":" + std::to_string(i) +
         ",\"name\":\"thread_name\",\"args\":{\"name\":\"" +
         EscapeJson(StageName(static_cast<Stage>(i))) + "\"}}");
  }
  emit("{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
       "\"args\":{\"name\":\"pipeline stages\"}}");

  for (const auto& [batch_id, bt] : batches_) {
    double prev = bt.start_s;
    for (const StageMark& m : bt.marks) {
      emit("{\"ph\":\"X\",\"pid\":1,\"tid\":" +
           std::to_string(static_cast<int>(m.stage)) + ",\"name\":\"" +
           EscapeJson(StageName(m.stage)) +
           "\",\"ts\":" + FormatDouble(prev * 1e6, 3) +
           ",\"dur\":" + FormatDouble((m.time_s - prev) * 1e6, 3) +
           ",\"args\":{\"batch_id\":" + std::to_string(batch_id) + "}}");
      prev = m.time_s;
    }
  }

  // Auxiliary resource tracks: assign tids in first-seen order, which is
  // deterministic because spans are recorded in simulated-event order.
  // Instant-only tracks (e.g. "slo") get tids after all span tracks.
  std::map<std::string, int> track_tid;
  std::vector<std::string> track_order;
  for (const TrackSpan& s : track_spans_) {
    if (track_tid.emplace(s.track, static_cast<int>(track_order.size()))
            .second) {
      track_order.push_back(s.track);
    }
  }
  for (const InstantEvent& ev : instants_) {
    if (track_tid.emplace(ev.track, static_cast<int>(track_order.size()))
            .second) {
      track_order.push_back(ev.track);
    }
  }
  if (!track_order.empty()) {
    emit("{\"ph\":\"M\",\"pid\":2,\"name\":\"process_name\","
         "\"args\":{\"name\":\"resources\"}}");
    for (size_t i = 0; i < track_order.size(); ++i) {
      emit("{\"ph\":\"M\",\"pid\":2,\"tid\":" + std::to_string(i) +
           ",\"name\":\"thread_name\",\"args\":{\"name\":\"" +
           EscapeJson(track_order[i]) + "\"}}");
    }
    for (const TrackSpan& s : track_spans_) {
      emit("{\"ph\":\"X\",\"pid\":2,\"tid\":" +
           std::to_string(track_tid[s.track]) + ",\"name\":\"" +
           EscapeJson(s.name) +
           "\",\"ts\":" + FormatDouble(s.start_s * 1e6, 3) +
           ",\"dur\":" + FormatDouble((s.end_s - s.start_s) * 1e6, 3) +
           "}");
    }
    for (const InstantEvent& ev : instants_) {
      emit("{\"ph\":\"i\",\"pid\":2,\"tid\":" +
           std::to_string(track_tid[ev.track]) + ",\"name\":\"" +
           EscapeJson(ev.name) +
           "\",\"ts\":" + FormatDouble(ev.time_s * 1e6, 3) +
           ",\"s\":\"t\"}");
    }
  }

  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return os.str();
}

crayfish::Status TraceRecorder::WriteChromeTrace(
    const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return crayfish::Status::IoError("cannot open: " + path);
  out << ToChromeTraceJson();
  if (!out) return crayfish::Status::IoError("short write: " + path);
  return crayfish::Status::Ok();
}

std::string TraceRecorder::ToStageCsv() const {
  std::ostringstream os;
  os << "batch_id,stage,start_s,end_s,duration_ms\n";
  char line[160];
  for (const auto& [batch_id, bt] : batches_) {
    double prev = bt.start_s;
    for (const StageMark& m : bt.marks) {
      std::snprintf(line, sizeof(line), "%llu,%s,%.9f,%.9f,%.6f\n",
                    static_cast<unsigned long long>(batch_id),
                    StageName(m.stage), prev, m.time_s,
                    (m.time_s - prev) * 1000.0);
      os << line;
      prev = m.time_s;
    }
  }
  return os.str();
}

crayfish::Status TraceRecorder::WriteStageCsv(
    const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return crayfish::Status::IoError("cannot open: " + path);
  out << ToStageCsv();
  if (!out) return crayfish::Status::IoError("short write: " + path);
  return crayfish::Status::Ok();
}

}  // namespace crayfish::obs
