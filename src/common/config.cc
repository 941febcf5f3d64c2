#include "common/config.h"

#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <type_traits>

#include "common/json.h"

namespace crayfish {

namespace {

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

void FlattenJson(const std::string& prefix, const JsonValue& v, Config* out) {
  if (v.is_object()) {
    for (const auto& [k, child] : v.as_object()) {
      FlattenJson(prefix.empty() ? k : prefix + "." + k, child, out);
    }
    return;
  }
  if (v.is_string()) {
    out->Set(prefix, v.as_string());
  } else if (v.is_bool()) {
    out->SetBool(prefix, v.as_bool());
  } else if (v.is_number()) {
    out->SetDouble(prefix, v.as_number());
  } else if (v.is_null()) {
    out->Set(prefix, "");
  }
  // Arrays are rendered as their JSON text so callers can re-parse.
  if (v.is_array()) out->Set(prefix, v.Dump());
}

Status Malformed(const std::string& key, const char* problem,
                 const std::string& text) {
  return Status::InvalidArgument(key + ": " + problem + ": \"" + text +
                                 "\"");
}

bool StartsClean(const std::string& text) {
  return !text.empty() && !std::isspace(static_cast<unsigned char>(text[0]));
}

/// Reads all of `text` as a finite double; unlike strtod, no leading
/// whitespace and no trailing junk.
bool ReadFinite(const std::string& text, double* out) {
  if (!StartsClean(text)) return false;
  char* end = nullptr;
  const double d = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || !std::isfinite(d)) return false;
  *out = d;
  return true;
}

/// A 64-bit integer: decimal digits (exact over the whole range), or an
/// integral double such as "16.0" or "1e3" (JSON numbers flatten as %.17g).
template <typename Int>
Status ParseInteger(const std::string& key, const std::string& text,
                    Int* out) {
  constexpr bool kSigned = std::is_signed_v<Int>;
  // strtoull would wrap "-1" to 2^64 - 1.
  if (!kSigned && !text.empty() && text[0] == '-') {
    return Malformed(key, "must not be negative", text);
  }
  if (StartsClean(text)) {
    char* end = nullptr;
    errno = 0;
    Int v = 0;
    if constexpr (kSigned) {
      v = std::strtoll(text.c_str(), &end, 10);
    } else {
      v = std::strtoull(text.c_str(), &end, 10);
    }
    if (end == text.c_str() + text.size()) {
      if (errno == ERANGE) return Malformed(key, "out of range", text);
      *out = v;
      return Status::Ok();
    }
  }
  double d = 0.0;
  if (!ReadFinite(text, &d) || d != std::floor(d)) {
    return Malformed(key, "not an integer", text);
  }
  if (d < (kSigned ? -0x1p63 : 0.0) || d >= (kSigned ? 0x1p63 : 0x1p64)) {
    return Malformed(key, "out of range", text);
  }
  *out = static_cast<Int>(d);
  return Status::Ok();
}

}  // namespace

Status ParseScalar(const std::string& /*key*/, const std::string& text,
                   std::string* out) {
  *out = text;
  return Status::Ok();
}

Status ParseScalar(const std::string& key, const std::string& text,
                   bool* out) {
  if (text == "true" || text == "1" || text == "yes") {
    *out = true;
  } else if (text == "false" || text == "0" || text == "no") {
    *out = false;
  } else {
    return Malformed(key, "not a bool (true|false|1|0|yes|no)", text);
  }
  return Status::Ok();
}

Status ParseScalar(const std::string& key, const std::string& text,
                   int64_t* out) {
  return ParseInteger(key, text, out);
}

Status ParseScalar(const std::string& key, const std::string& text,
                   uint64_t* out) {
  return ParseInteger(key, text, out);
}

Status ParseScalar(const std::string& key, const std::string& text,
                   int* out) {
  int64_t v = 0;
  CRAYFISH_RETURN_IF_ERROR(ParseInteger(key, text, &v));
  if (v < INT_MIN || v > INT_MAX) return Malformed(key, "out of range", text);
  *out = static_cast<int>(v);
  return Status::Ok();
}

Status ParseScalar(const std::string& key, const std::string& text,
                   double* out) {
  if (!ReadFinite(text, out)) {
    return Malformed(key, "not a finite number", text);
  }
  return Status::Ok();
}

StatusOr<Config> Config::FromProperties(const std::string& text) {
  Config cfg;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::string trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    const size_t eq = trimmed.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("config line " + std::to_string(lineno) +
                                     " has no '='");
    }
    const std::string key = Trim(trimmed.substr(0, eq));
    const std::string value = Trim(trimmed.substr(eq + 1));
    if (key.empty()) {
      return Status::InvalidArgument("config line " + std::to_string(lineno) +
                                     " has empty key");
    }
    cfg.Set(key, value);
  }
  return cfg;
}

StatusOr<Config> Config::FromJson(const std::string& text) {
  CRAYFISH_ASSIGN_OR_RETURN(JsonValue v, JsonValue::Parse(text));
  return FromJsonObject(v);
}

StatusOr<Config> Config::FromJsonObject(const JsonValue& object) {
  if (!object.is_object()) {
    return Status::InvalidArgument("config JSON must be an object");
  }
  Config cfg;
  FlattenJson("", object, &cfg);
  return cfg;
}

StatusOr<Config> Config::FromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open config file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return FromProperties(buf.str());
}

void Config::Set(const std::string& key, const std::string& value) {
  values_[key] = value;
}

void Config::SetInt(const std::string& key, int64_t value) {
  values_[key] = std::to_string(value);
}

void Config::SetDouble(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  values_[key] = buf;
}

void Config::SetBool(const std::string& key, bool value) {
  values_[key] = value ? "true" : "false";
}

bool Config::Has(const std::string& key) const {
  return values_.count(key) > 0;
}

StatusOr<std::string> Config::GetString(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) return Status::NotFound("config key: " + key);
  return it->second;
}

StatusOr<int64_t> Config::GetInt(const std::string& key) const {
  CRAYFISH_ASSIGN_OR_RETURN(std::string s, GetString(key));
  int64_t v = 0;
  CRAYFISH_RETURN_IF_ERROR(ParseScalar(key, s, &v));
  return v;
}

StatusOr<double> Config::GetDouble(const std::string& key) const {
  CRAYFISH_ASSIGN_OR_RETURN(std::string s, GetString(key));
  double v = 0.0;
  CRAYFISH_RETURN_IF_ERROR(ParseScalar(key, s, &v));
  return v;
}

StatusOr<bool> Config::GetBool(const std::string& key) const {
  CRAYFISH_ASSIGN_OR_RETURN(std::string s, GetString(key));
  bool v = false;
  CRAYFISH_RETURN_IF_ERROR(ParseScalar(key, s, &v));
  return v;
}

Config Config::Scope(const std::string& prefix) const {
  Config out;
  for (const auto& [k, v] : values_) {
    if (k.rfind(prefix, 0) == 0) {
      out.Set(k.substr(prefix.size()), v);
    }
  }
  return out;
}

void Config::Merge(const Config& other) {
  for (const auto& [k, v] : other.values_) values_[k] = v;
}

std::string Config::ToString() const {
  std::ostringstream os;
  for (const auto& [k, v] : values_) os << k << " = " << v << "\n";
  return os.str();
}

}  // namespace crayfish
