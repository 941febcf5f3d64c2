#ifndef CRAYFISH_TESTS_BATCH_JSON_REFERENCE_H_
#define CRAYFISH_TESTS_BATCH_JSON_REFERENCE_H_

// Reference implementations the streaming batch codec (common/batch_json.h)
// is checked against: the snprintf encoder and the JsonValue-tree decoder
// CrayfishDataBatch used before the codec existed.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/batch_json.h"
#include "common/json.h"
#include "common/status.h"

namespace crayfish::reference {

inline std::string ReferenceEncode(uint64_t id, double ts,
                                   const std::vector<int64_t>& shape,
                                   const std::vector<float>& data) {
  std::string out = "{\"id\":" + std::to_string(id);
  char buf[512];
  std::snprintf(buf, sizeof(buf), "%.6f", ts);
  out += ",\"ts\":";
  out += buf;
  out += ",\"shape\":[";
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(shape[i]);
  }
  out += "],\"data\":[";
  for (size_t i = 0; i < data.size(); ++i) {
    if (i > 0) out += ",";
    std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(data[i]));
    out += buf;
  }
  out += "]}";
  return out;
}

/// Parse into a JsonValue tree, then walk it with the typed lookups. The
/// one departure from the old walk: a shape whose element count overflows
/// int64 is rejected instead of overflowing.
inline StatusOr<DecodedBatch> ReferenceDecode(const std::string& text) {
  CRAYFISH_ASSIGN_OR_RETURN(JsonValue v, JsonValue::Parse(text));
  if (!v.is_object()) {
    return Status::InvalidArgument("batch JSON must be an object");
  }
  DecodedBatch batch;
  batch.id = static_cast<uint64_t>(v.GetIntOr("id", 0));
  batch.ts = v.GetNumberOr("ts", 0.0);
  const JsonValue* shape = v.Find("shape");
  if (shape == nullptr || !shape->is_array()) {
    return Status::InvalidArgument("batch JSON missing shape");
  }
  for (const JsonValue& d : shape->as_array()) {
    if (!d.is_number()) {
      return Status::InvalidArgument("shape entries must be numbers");
    }
    batch.shape.push_back(d.as_int());
  }
  const JsonValue* data = v.Find("data");
  if (data == nullptr || !data->is_array()) {
    return Status::InvalidArgument("batch JSON missing data");
  }
  for (const JsonValue& d : data->as_array()) {
    if (!d.is_number()) {
      return Status::InvalidArgument("data entries must be numbers");
    }
    batch.data.push_back(static_cast<float>(d.as_number()));
  }
  int64_t per_sample = 1;
  for (int64_t d : batch.shape) {
    if (__builtin_mul_overflow(per_sample, d, &per_sample)) {
      return Status::InvalidArgument("shape element count overflows");
    }
  }
  if (per_sample == 0 ||
      static_cast<int64_t>(batch.data.size()) % per_sample != 0) {
    return Status::InvalidArgument(
        "data length is not a multiple of the sample size");
  }
  return batch;
}

/// Bitwise equality, so NaN payloads and -0.0 count.
inline bool SameBits(const DecodedBatch& a, const DecodedBatch& b) {
  return a.id == b.id &&
         std::memcmp(&a.ts, &b.ts, sizeof(a.ts)) == 0 &&
         a.shape == b.shape && a.data.size() == b.data.size() &&
         (a.data.empty() ||
          std::memcmp(a.data.data(), b.data.data(),
                      a.data.size() * sizeof(float)) == 0);
}

}  // namespace crayfish::reference

#endif  // CRAYFISH_TESTS_BATCH_JSON_REFERENCE_H_
