#ifndef CRAYFISH_COMMON_CONFIG_H_
#define CRAYFISH_COMMON_CONFIG_H_

#include <cstdint>
#include <map>
#include <string>

#include "common/status.h"

namespace crayfish {

class JsonValue;

/// The strict scalar parser behind every configuration surface
/// (`.properties` keys, JSON document fields, CLI flags). The whole of
/// `text` must parse: no trailing junk, finite numbers only, integers must
/// be integral and in range, and uint64 rejects negatives. A failure
/// returns InvalidArgument "<key>: <problem>". The std::string overload
/// copies `text` as is.
Status ParseScalar(const std::string& key, const std::string& text,
                   std::string* out);
Status ParseScalar(const std::string& key, const std::string& text,
                   bool* out);
Status ParseScalar(const std::string& key, const std::string& text,
                   int* out);
Status ParseScalar(const std::string& key, const std::string& text,
                   int64_t* out);
Status ParseScalar(const std::string& key, const std::string& text,
                   uint64_t* out);
Status ParseScalar(const std::string& key, const std::string& text,
                   double* out);

/// Flat key/value experiment configuration, in the spirit of Crayfish's
/// per-experiment configuration files (Table 1 parameters such as isz, bsz,
/// ir, bd, tbb, mp plus free-form SUT settings).
///
/// Keys are dotted strings ("producer.input.rate"); values are stored as
/// strings and converted on read. Supports loading `key = value` properties
/// text (with '#' comments) and JSON objects.
class Config {
 public:
  Config() = default;

  /// Parses "key = value" lines. Blank lines and lines starting with '#'
  /// are skipped. Later keys override earlier ones.
  static StatusOr<Config> FromProperties(const std::string& text);

  /// Parses a flat JSON object {"key": value, ...}. Nested objects are
  /// flattened with '.' separators; numbers render as %.17g (so they
  /// round-trip exactly), arrays as their JSON text, null as "".
  static StatusOr<Config> FromJson(const std::string& text);
  /// The same flattening over an already-parsed JSON object.
  static StatusOr<Config> FromJsonObject(const JsonValue& object);

  /// Reads a properties file from disk.
  static StatusOr<Config> FromFile(const std::string& path);

  void Set(const std::string& key, const std::string& value);
  void SetInt(const std::string& key, int64_t value);
  void SetDouble(const std::string& key, double value);
  void SetBool(const std::string& key, bool value);

  bool Has(const std::string& key) const;

  StatusOr<std::string> GetString(const std::string& key) const;
  StatusOr<int64_t> GetInt(const std::string& key) const;
  StatusOr<double> GetDouble(const std::string& key) const;
  StatusOr<bool> GetBool(const std::string& key) const;

  /// Strictly parses `key` into `*out` (see ParseScalar) when it is
  /// present; an absent key leaves `*out` untouched. A malformed value is
  /// an error naming the key, never a fallback.
  template <typename T>
  Status GetIfPresent(const std::string& key, T* out) const {
    auto it = values_.find(key);
    return it == values_.end() ? Status::Ok()
                               : ParseScalar(key, it->second, out);
  }

  /// All keys with the given prefix, e.g. Scope("flink.") -> keys without
  /// the prefix.
  Config Scope(const std::string& prefix) const;

  /// Merges `other` into this config; `other` wins on conflicts.
  void Merge(const Config& other);

  /// Every key/value pair, keys sorted.
  const std::map<std::string, std::string>& entries() const {
    return values_;
  }
  size_t size() const { return values_.size(); }

  /// Properties-style rendering, keys sorted.
  std::string ToString() const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace crayfish

#endif  // CRAYFISH_COMMON_CONFIG_H_
