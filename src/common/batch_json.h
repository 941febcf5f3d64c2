#ifndef CRAYFISH_COMMON_BATCH_JSON_H_
#define CRAYFISH_COMMON_BATCH_JSON_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace crayfish {

/// The wire codec for CrayfishDataBatch payloads (paper §3.1): one
/// streaming encoder and one streaming decoder, with no JSON tree between
/// the payload bytes and the batch's vectors.
///
/// Exact-bytes contract. The encoder writes
///
///   {"id":<id>,"ts":<ts>,"shape":[<d>,...],"data":[<v>,...]}
///
/// with `ts` as printf "%.6f", each data value as printf "%.3f" of the
/// float widened to double, and integers in decimal. std::to_chars with a
/// fixed precision is specified to match printf, so the bytes (and with
/// them every wire size and run digest) are the ones snprintf gave.
///
/// The decoder accepts exactly the text JsonValue::Parse plus a tree walk
/// accepts: keys in any order, the last of duplicate keys wins, other keys'
/// values are skipped with the generic grammar (json::SkipValue), and
/// numbers are read by json::ReadNumber. `id` and `ts` fall back to 0 when
/// absent or not numbers; `id` goes through double to int64 like
/// JsonValue::as_int. It rejects malformed JSON, trailing characters, a
/// non-object document, a missing or non-array `shape`/`data`, non-number
/// entries in either, a shape whose element count overflows int64, and a
/// data length that is not a multiple of the per-sample element count.
struct DecodedBatch {
  uint64_t id = 0;
  double ts = 0.0;
  std::vector<int64_t> shape;
  std::vector<float> data;
};

/// Appends the JSON text of one batch to `out`.
void AppendBatchJson(uint64_t id, double ts, std::span<const int64_t> shape,
                     std::span<const float> data, std::string* out);
void AppendBatchJson(uint64_t id, double ts, std::span<const int64_t> shape,
                     std::span<const float> data, Bytes* out);

/// Decodes one batch from its JSON text in a single pass.
StatusOr<DecodedBatch> DecodeBatchJson(std::string_view text);

}  // namespace crayfish

#endif  // CRAYFISH_COMMON_BATCH_JSON_H_
