#include "spans.h"

#include <cstdio>

#include "common/json.h"

namespace perfbench {

SpanRecorder::SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

double SpanRecorder::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

int SpanRecorder::Begin(std::string name) {
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_s = Now();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanRecorder::End(int id) {
  spans_[static_cast<size_t>(id)].end_s = Now();
  // Spans close innermost first, so `id` is the top of the stack.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

double SpanRecorder::SelfSeconds(int id) const {
  const Span& span = spans_[static_cast<size_t>(id)];
  double self = span.end_s - span.start_s;
  for (const Span& child : spans_) {
    if (child.parent == id) self -= child.end_s - child.start_s;
  }
  return self;
}

std::string SpanRecorder::ToJson() const {
  crayfish::JsonValue list = crayfish::JsonValue::MakeArray();
  for (size_t i = 0; i < spans_.size(); ++i) {
    crayfish::JsonValue s = crayfish::JsonValue::MakeObject();
    s["name"] = spans_[i].name;
    s["start_s"] = spans_[i].start_s;
    s["end_s"] = spans_[i].end_s;
    s["parent"] = spans_[i].parent;
    s["self_s"] = SelfSeconds(static_cast<int>(i));
    list.Append(std::move(s));
  }
  crayfish::JsonValue doc = crayfish::JsonValue::MakeObject();
  doc["spans"] = std::move(list);
  return doc.Dump();
}

}  // namespace perfbench
