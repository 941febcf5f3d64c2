#include "common/batch_json.h"

#include <algorithm>
#include <charconv>
#include <cstring>

#include "common/json.h"
#include "common/logging.h"

namespace crayfish {

namespace {

// Longest outputs of each field, so one bounds check covers a to_chars
// call: "%.3f" of a float (sign, FLT_MAX's 39 integer digits, point, 3
// decimals; "-nan"/"-inf" are shorter), "%.6f" of a double (DBL_MAX has
// 309 integer digits) and a 64-bit integer with its sign.
constexpr size_t kMaxValueChars = 1 + 39 + 1 + 3;
constexpr size_t kMaxTsChars = 1 + 309 + 1 + 6;
constexpr size_t kMaxIntChars = 20;

/// Appends to a std::string or Bytes through a write cursor, growing the
/// buffer geometrically and trimming it to the written size in Finish().
template <typename Buffer>
class Appender {
 public:
  Appender(Buffer* out, size_t expected) : out_(out), pos_(out->size()) {
    out_->resize(pos_ + expected);
  }

  void Literal(std::string_view s) {
    std::memcpy(Room(s.size()), s.data(), s.size());
    pos_ += s.size();
  }

  template <typename... Format>
  void Number(size_t max_chars, Format... format) {
    char* at = Room(max_chars);
    const std::to_chars_result r =
        std::to_chars(at, at + max_chars, format...);
    CRAYFISH_CHECK(r.ec == std::errc());
    pos_ += static_cast<size_t>(r.ptr - at);
  }

  void Finish() { out_->resize(pos_); }

 private:
  char* Room(size_t n) {
    if (out_->size() - pos_ < n) {
      out_->resize(std::max(2 * out_->size(), pos_ + n));
    }
    return reinterpret_cast<char*>(out_->data()) + pos_;
  }

  Buffer* out_;
  size_t pos_;
};

template <typename Buffer>
void Encode(uint64_t id, double ts, std::span<const int64_t> shape,
            std::span<const float> data, Buffer* out) {
  // Values in [0, 1) print as "0.ddd,"; the appender grows past the guess.
  Appender<Buffer> a(out,
                     64 + kMaxIntChars * shape.size() + 6 * data.size());
  a.Literal("{\"id\":");
  a.Number(kMaxIntChars, id);
  a.Literal(",\"ts\":");
  a.Number(kMaxTsChars, ts, std::chars_format::fixed, 6);
  a.Literal(",\"shape\":[");
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i > 0) a.Literal(",");
    a.Number(kMaxIntChars, shape[i]);
  }
  a.Literal("],\"data\":[");
  for (size_t i = 0; i < data.size(); ++i) {
    if (i > 0) a.Literal(",");
    a.Number(kMaxValueChars, static_cast<double>(data[i]),
             std::chars_format::fixed, 3);
  }
  a.Literal("]}");
  a.Finish();
}

/// One pass over the payload text; see the contract in batch_json.h.
class Decoder {
 public:
  explicit Decoder(std::string_view text)
      : begin_(text.data()), p_(begin_), end_(begin_ + text.size()) {}

  StatusOr<DecodedBatch> Decode() {
    DecodedBatch batch;
    bool shape_is_array = false;
    bool shape_all_numbers = false;
    bool data_is_array = false;
    bool data_all_numbers = false;
    SkipWhitespace();
    if (p_ == end_ || *p_ != '{') {
      return Status::InvalidArgument("batch JSON must be an object");
    }
    ++p_;
    SkipWhitespace();
    if (p_ != end_ && *p_ == '}') {
      ++p_;
    } else {
      std::string key;
      for (;;) {
        SkipWhitespace();
        if (!Advance(json::ReadString(p_, end_, &key))) {
          return Malformed("expected a key");
        }
        SkipWhitespace();
        if (p_ == end_ || *p_ != ':') return Malformed("expected ':'");
        ++p_;
        SkipWhitespace();
        if (p_ == end_) return Malformed("unexpected end");
        bool ok = false;
        double v = 0.0;
        bool is_number = false;
        if (key == "id") {
          ok = ReadScalar(&v, &is_number);
          batch.id =
              is_number ? static_cast<uint64_t>(JsonNumberToInt(v)) : 0;
        } else if (key == "ts") {
          ok = ReadScalar(&v, &is_number);
          batch.ts = is_number ? v : 0.0;
        } else if (key == "shape") {
          shape_is_array = *p_ == '[';
          ok = shape_is_array
                   ? ReadNumberArray(&batch.shape, &shape_all_numbers,
                                     JsonNumberToInt)
                   : Advance(json::SkipValue(p_, end_));
        } else if (key == "data") {
          data_is_array = *p_ == '[';
          if (data_is_array) {
            // "0.ddd," per value is the encoder's common form.
            batch.data.reserve(static_cast<size_t>(end_ - p_) / 6 + 1);
          }
          ok = data_is_array
                   ? ReadNumberArray(&batch.data, &data_all_numbers,
                                     [](double d) {
                                       return static_cast<float>(d);
                                     })
                   : Advance(json::SkipValue(p_, end_));
        } else {
          ok = Advance(json::SkipValue(p_, end_));
        }
        if (!ok) return Malformed("invalid value");
        SkipWhitespace();
        if (p_ != end_ && *p_ == '}') {
          ++p_;
          break;
        }
        if (p_ == end_ || *p_ != ',') {
          return Malformed("expected ',' or '}'");
        }
        ++p_;
      }
    }
    SkipWhitespace();
    if (p_ != end_) return Malformed("trailing characters");

    if (!shape_is_array) {
      return Status::InvalidArgument("batch JSON missing shape");
    }
    if (!shape_all_numbers) {
      return Status::InvalidArgument("shape entries must be numbers");
    }
    if (!data_is_array) {
      return Status::InvalidArgument("batch JSON missing data");
    }
    if (!data_all_numbers) {
      return Status::InvalidArgument("data entries must be numbers");
    }
    int64_t per_sample = 1;
    for (int64_t d : batch.shape) {
      if (__builtin_mul_overflow(per_sample, d, &per_sample)) {
        return Status::InvalidArgument(
            "shape element count overflows int64");
      }
    }
    if (per_sample == 0 ||
        static_cast<int64_t>(batch.data.size()) % per_sample != 0) {
      return Status::InvalidArgument(
          "data length is not a multiple of the sample size");
    }
    return batch;
  }

 private:
  void SkipWhitespace() { p_ = json::SkipWhitespace(p_, end_); }

  /// Moves the cursor to `next`, a grammar helper's result; false (cursor
  /// kept for the error message) when the helper found malformed text.
  bool Advance(const char* next) {
    if (next == nullptr) return false;
    p_ = next;
    return true;
  }

  Status Malformed(const char* what) const {
    return Status::InvalidArgument("malformed batch JSON: " +
                                   std::string(what) + " at byte " +
                                   std::to_string(p_ - begin_));
  }

  /// A value that counts only when it is a number (GetNumberOr); any other
  /// value is skipped and leaves `*is_number` false.
  bool ReadScalar(double* out, bool* is_number) {
    *is_number = json::StartsNumber(*p_);
    return Advance(*is_number ? json::ReadNumber(p_, end_, out)
                              : json::SkipValue(p_, end_));
  }

  /// The array at the cursor, numbers converted into `out`. A non-number
  /// entry is skipped and clears `*all_numbers`; false on malformed JSON.
  template <typename T, typename Convert>
  bool ReadNumberArray(std::vector<T>* out, bool* all_numbers,
                       Convert convert) {
    out->clear();
    *all_numbers = true;
    ++p_;  // '['
    SkipWhitespace();
    if (p_ != end_ && *p_ == ']') {
      ++p_;
      return true;
    }
    for (;;) {
      SkipWhitespace();
      if (p_ == end_) return false;
      if (json::StartsNumber(*p_)) {
        double v = 0.0;
        if (!Advance(json::ReadNumber(p_, end_, &v))) return false;
        out->push_back(convert(v));
      } else {
        if (!Advance(json::SkipValue(p_, end_))) return false;
        *all_numbers = false;
      }
      SkipWhitespace();
      if (p_ == end_) return false;
      if (*p_ == ']') {
        ++p_;
        return true;
      }
      if (*p_ != ',') return false;
      ++p_;
    }
  }

  const char* begin_;
  const char* p_;
  const char* end_;
};

}  // namespace

void AppendBatchJson(uint64_t id, double ts, std::span<const int64_t> shape,
                     std::span<const float> data, std::string* out) {
  Encode(id, ts, shape, data, out);
}

void AppendBatchJson(uint64_t id, double ts, std::span<const int64_t> shape,
                     std::span<const float> data, Bytes* out) {
  Encode(id, ts, shape, data, out);
}

StatusOr<DecodedBatch> DecodeBatchJson(std::string_view text) {
  return Decoder(text).Decode();
}

}  // namespace crayfish
