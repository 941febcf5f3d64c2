#include "core/data_batch.h"

#include "common/batch_json.h"
#include "common/logging.h"

namespace crayfish::core {

int64_t CrayfishDataBatch::elements_per_sample() const {
  int64_t n = 1;
  for (int64_t d : shape) n *= d;
  return n;
}

int64_t CrayfishDataBatch::batch_size() const {
  const int64_t per_sample = elements_per_sample();
  if (per_sample == 0) return 0;
  return static_cast<int64_t>(data.size()) / per_sample;
}

std::string CrayfishDataBatch::ToJson() const {
  std::string out;
  crayfish::AppendBatchJson(id, created_at, shape, data, &out);
  return out;
}

crayfish::Bytes CrayfishDataBatch::ToJsonBytes() const {
  crayfish::Bytes out;
  crayfish::AppendBatchJson(id, created_at, shape, data, &out);
  return out;
}

crayfish::StatusOr<CrayfishDataBatch> CrayfishDataBatch::FromJson(
    const std::string& text) {
  CRAYFISH_ASSIGN_OR_RETURN(crayfish::DecodedBatch decoded,
                            crayfish::DecodeBatchJson(text));
  CrayfishDataBatch batch;
  batch.id = decoded.id;
  batch.created_at = decoded.ts;
  batch.shape = std::move(decoded.shape);
  batch.data = std::move(decoded.data);
  return batch;
}

crayfish::StatusOr<tensor::Tensor> CrayfishDataBatch::ToTensor() const {
  std::vector<int64_t> dims;
  dims.push_back(batch_size());
  for (int64_t d : shape) dims.push_back(d);
  tensor::Shape t_shape(std::move(dims));
  if (t_shape.NumElements() != static_cast<int64_t>(data.size())) {
    return crayfish::Status::InvalidArgument("inconsistent batch data size");
  }
  return tensor::Tensor(std::move(t_shape), data);
}

CrayfishDataBatch CrayfishDataBatch::FromTensor(uint64_t id,
                                                double created_at,
                                                const tensor::Tensor& t) {
  CRAYFISH_CHECK_GE(t.shape().rank(), 1);
  CrayfishDataBatch batch;
  batch.id = id;
  batch.created_at = created_at;
  for (int64_t i = 1; i < t.shape().rank(); ++i) {
    batch.shape.push_back(t.shape()[i]);
  }
  batch.data = t.values();
  return batch;
}

}  // namespace crayfish::core
