#include "common/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace crayfish {

namespace {

void AppendNumber(std::string* out, double d) {
  if (std::isfinite(d) && d == std::floor(d) && std::fabs(d) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(d));
    out->append(buf);
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  out->append(buf);
}

bool IsNumberChar(char c) {
  return (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
         c == '-' || c == '+';
}

/// Recursive-descent JSON parser over a raw character range. Its members
/// are public so the json:: grammar helpers below can drive single
/// productions.
class Parser {
 public:
  Parser(const char* begin, const char* end) : p_(begin), end_(end) {}

  StatusOr<JsonValue> ParseDocument() {
    CRAYFISH_ASSIGN_OR_RETURN(JsonValue v, ParseValue());
    SkipWhitespace();
    if (p_ != end_) {
      return Status::InvalidArgument("trailing characters after JSON value");
    }
    return v;
  }

  const char* position() const { return p_; }

  void SkipWhitespace() { p_ = json::SkipWhitespace(p_, end_); }

  bool Consume(char c) {
    if (p_ != end_ && *p_ == c) {
      ++p_;
      return true;
    }
    return false;
  }

  StatusOr<JsonValue> ParseValue() {
    SkipWhitespace();
    if (p_ == end_) return Status::InvalidArgument("unexpected end of JSON");
    switch (*p_) {
      case '{':
        return ParseObject();
      case '[':
        return ParseArray();
      case '"': {
        CRAYFISH_ASSIGN_OR_RETURN(std::string s, ParseString());
        return JsonValue(std::move(s));
      }
      case 't':
        return ParseLiteral("true", JsonValue(true));
      case 'f':
        return ParseLiteral("false", JsonValue(false));
      case 'n':
        return ParseLiteral("null", JsonValue());
      default:
        return ParseNumber();
    }
  }

  StatusOr<JsonValue> ParseLiteral(const char* lit, JsonValue value) {
    const size_t len = std::strlen(lit);
    if (static_cast<size_t>(end_ - p_) < len ||
        std::strncmp(p_, lit, len) != 0) {
      return Status::InvalidArgument(std::string("invalid literal, expected ") +
                                     lit);
    }
    p_ += len;
    return value;
  }

  StatusOr<JsonValue> ParseNumber() {
    double d = 0.0;
    const char* next = json::ReadNumber(p_, end_, &d);
    if (next == nullptr) {
      const char* stop = p_;
      while (stop != end_ && IsNumberChar(*stop)) ++stop;
      return Status::InvalidArgument("invalid number: " +
                                     std::string(p_, stop));
    }
    p_ = next;
    return JsonValue(d);
  }

  StatusOr<std::string> ParseString() {
    if (!Consume('"')) return Status::InvalidArgument("expected '\"'");
    std::string out;
    while (p_ != end_ && *p_ != '"') {
      char c = *p_++;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (p_ == end_) return Status::InvalidArgument("bad escape at end");
      char e = *p_++;
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (end_ - p_ < 4) return Status::InvalidArgument("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = *p_++;
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return Status::InvalidArgument("bad \\u escape digit");
          }
          // Encode as UTF-8 (basic multilingual plane only; surrogate pairs
          // are not needed for Crayfish payloads).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Status::InvalidArgument("unknown escape");
      }
    }
    if (!Consume('"')) return Status::InvalidArgument("unterminated string");
    return out;
  }

  StatusOr<JsonValue> ParseArray() {
    Consume('[');
    JsonValue::Array arr;
    SkipWhitespace();
    if (Consume(']')) return JsonValue(std::move(arr));
    for (;;) {
      CRAYFISH_ASSIGN_OR_RETURN(JsonValue v, ParseValue());
      arr.push_back(std::move(v));
      SkipWhitespace();
      if (Consume(']')) break;
      if (!Consume(',')) {
        return Status::InvalidArgument("expected ',' or ']' in array");
      }
    }
    return JsonValue(std::move(arr));
  }

  StatusOr<JsonValue> ParseObject() {
    Consume('{');
    JsonValue::Object obj;
    SkipWhitespace();
    if (Consume('}')) return JsonValue(std::move(obj));
    for (;;) {
      SkipWhitespace();
      CRAYFISH_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWhitespace();
      if (!Consume(':')) {
        return Status::InvalidArgument("expected ':' in object");
      }
      CRAYFISH_ASSIGN_OR_RETURN(JsonValue v, ParseValue());
      obj[std::move(key)] = std::move(v);
      SkipWhitespace();
      if (Consume('}')) break;
      if (!Consume(',')) {
        return Status::InvalidArgument("expected ',' or '}' in object");
      }
    }
    return JsonValue(std::move(obj));
  }

 private:
  const char* p_;
  const char* end_;
};

}  // namespace

namespace json {

const char* ReadNumber(const char* p, const char* end, double* out) {
  // strtod's decimal form starts with a digit or '.' after the sign;
  // without this check from_chars would also take "inf" and "nan".
  const char* digits = (p != end && (*p == '-' || *p == '+')) ? p + 1 : p;
  if (digits == end ||
      !((*digits >= '0' && *digits <= '9') || *digits == '.')) {
    return nullptr;
  }
  // from_chars reads that form, except for a leading '+'.
  const char* first = *p == '+' ? digits : p;
  double value = 0.0;
  const std::from_chars_result r = std::from_chars(first, end, value);
  if (r.ec == std::errc::invalid_argument) return nullptr;
  // The number must run to the end of its [0-9.eE+-] run, as strtod had to
  // consume the whole run.
  if (r.ptr != end && IsNumberChar(*r.ptr)) return nullptr;
  if (r.ec == std::errc::result_out_of_range) {
    // strtod maps these to +-HUGE_VAL or a (sub)normal/zero; keep its value.
    const std::string text(p, r.ptr);
    value = std::strtod(text.c_str(), nullptr);
  }
  *out = value;
  return r.ptr;
}

const char* ReadString(const char* p, const char* end, std::string* out) {
  Parser parser(p, end);
  StatusOr<std::string> s = parser.ParseString();
  if (!s.ok()) return nullptr;
  *out = std::move(*s);
  return parser.position();
}

const char* SkipValue(const char* p, const char* end) {
  Parser parser(p, end);
  if (!parser.ParseValue().ok()) return nullptr;
  return parser.position();
}

}  // namespace json

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

double JsonValue::GetNumberOr(const std::string& key, double fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_number()) ? v->as_number() : fallback;
}

int64_t JsonValue::GetIntOr(const std::string& key, int64_t fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_number()) ? v->as_int() : fallback;
}

bool JsonValue::GetBoolOr(const std::string& key, bool fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_bool()) ? v->as_bool() : fallback;
}

std::string JsonValue::GetStringOr(const std::string& key,
                                   const std::string& fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_string()) ? v->as_string() : fallback;
}

size_t JsonValue::size() const {
  switch (type_) {
    case Type::kArray:
      return array_.size();
    case Type::kObject:
      return object_.size();
    default:
      return 0;
  }
}

void JsonValue::DumpTo(std::string* out, int indent, int depth) const {
  const bool pretty = indent > 0;
  const std::string pad(pretty ? static_cast<size_t>(indent * (depth + 1)) : 0,
                        ' ');
  const std::string closing_pad(
      pretty ? static_cast<size_t>(indent * depth) : 0, ' ');
  switch (type_) {
    case Type::kNull:
      out->append("null");
      break;
    case Type::kBool:
      out->append(bool_ ? "true" : "false");
      break;
    case Type::kNumber:
      AppendNumber(out, number_);
      break;
    case Type::kString:
      out->append(JsonEscape(string_));
      break;
    case Type::kArray: {
      if (array_.empty()) {
        out->append("[]");
        break;
      }
      out->push_back('[');
      bool first = true;
      for (const auto& v : array_) {
        if (!first) out->push_back(',');
        first = false;
        if (pretty) {
          out->push_back('\n');
          out->append(pad);
        }
        v.DumpTo(out, indent, depth + 1);
      }
      if (pretty) {
        out->push_back('\n');
        out->append(closing_pad);
      }
      out->push_back(']');
      break;
    }
    case Type::kObject: {
      if (object_.empty()) {
        out->append("{}");
        break;
      }
      out->push_back('{');
      bool first = true;
      for (const auto& [k, v] : object_) {
        if (!first) out->push_back(',');
        first = false;
        if (pretty) {
          out->push_back('\n');
          out->append(pad);
        }
        out->append(JsonEscape(k));
        out->push_back(':');
        if (pretty) out->push_back(' ');
        v.DumpTo(out, indent, depth + 1);
      }
      if (pretty) {
        out->push_back('\n');
        out->append(closing_pad);
      }
      out->push_back('}');
      break;
    }
  }
}

std::string JsonValue::Dump() const {
  std::string out;
  DumpTo(&out, /*indent=*/0, /*depth=*/0);
  return out;
}

std::string JsonValue::DumpPretty() const {
  std::string out;
  DumpTo(&out, /*indent=*/2, /*depth=*/0);
  return out;
}

StatusOr<JsonValue> JsonValue::Parse(const std::string& text) {
  Parser parser(text.data(), text.data() + text.size());
  return parser.ParseDocument();
}

bool JsonValue::operator==(const JsonValue& other) const {
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::kNull:
      return true;
    case Type::kBool:
      return bool_ == other.bool_;
    case Type::kNumber:
      return number_ == other.number_;
    case Type::kString:
      return string_ == other.string_;
    case Type::kArray:
      return array_ == other.array_;
    case Type::kObject:
      return object_ == other.object_;
  }
  return false;
}

}  // namespace crayfish
