#ifndef CRAYFISH_CORE_DATA_BATCH_H_
#define CRAYFISH_CORE_DATA_BATCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "tensor/tensor.h"

namespace crayfish::core {

/// The benchmark's unit of computation (§3.1): a batch of data points plus
/// the creation timestamp used for end-to-end latency. Serialized as JSON
/// throughout the pipeline.
struct CrayfishDataBatch {
  uint64_t id = 0;
  /// Producer-side creation time, seconds on the experiment clock.
  double created_at = 0.0;
  /// Per-sample shape (e.g. [28, 28]).
  std::vector<int64_t> shape;
  /// Row-major samples, flattened: batch_size * prod(shape) floats.
  std::vector<float> data;

  int64_t batch_size() const;
  int64_t elements_per_sample() const;

  /// Full JSON serialization ({"id":..,"ts":..,"shape":[..],"data":[..]})
  /// with fixed 3-decimal values, matching the generator's wire-size
  /// accounting (~4 bytes/element). The codec and its exact-bytes contract
  /// live in common/batch_json.h.
  std::string ToJson() const;
  /// The same bytes, built in place as a record payload.
  crayfish::Bytes ToJsonBytes() const;
  static crayfish::StatusOr<CrayfishDataBatch> FromJson(
      const std::string& text);

  /// Batch content as a [batch, ...shape] tensor.
  crayfish::StatusOr<tensor::Tensor> ToTensor() const;
  /// Builds a batch from a [batch, ...shape] tensor.
  static CrayfishDataBatch FromTensor(uint64_t id, double created_at,
                                      const tensor::Tensor& t);
};

}  // namespace crayfish::core

#endif  // CRAYFISH_CORE_DATA_BATCH_H_
