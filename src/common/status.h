#ifndef CRAYFISH_COMMON_STATUS_H_
#define CRAYFISH_COMMON_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace crayfish {

/// Error categories used throughout the library. Crayfish does not use C++
/// exceptions; every fallible operation returns a Status or StatusOr<T>.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kFailedPrecondition,
  kResourceExhausted,
  kUnimplemented,
  kInternal,
  kIoError,
  kTimeout,
  kCorruption,
  kUnavailable,
};

/// Returns a stable human-readable name for a status code ("OK",
/// "InvalidArgument", ...).
const char* StatusCodeName(StatusCode code);

/// Value-semantic result of an operation that may fail.
///
/// Usage follows the RocksDB/Arrow idiom:
///
///   Status s = broker.CreateTopic("in", 32);
///   if (!s.ok()) return s;
///
/// The class is [[nodiscard]]: silently dropping a Status hides failures, so
/// call sites must check it, propagate it, or explicitly cast to void with a
/// comment saying why the error is impossible or irrelevant.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  [[nodiscard]] static Status Ok() { return Status(); }
  [[nodiscard]] static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  [[nodiscard]] static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  [[nodiscard]] static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  [[nodiscard]] static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  [[nodiscard]] static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  [[nodiscard]] static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  [[nodiscard]] static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  [[nodiscard]] static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  [[nodiscard]] static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  [[nodiscard]] static Status Timeout(std::string msg) {
    return Status(StatusCode::kTimeout, std::move(msg));
  }
  [[nodiscard]] static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  [[nodiscard]] static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsInvalidArgument() const {
    return code_ == StatusCode::kInvalidArgument;
  }
  bool IsResourceExhausted() const {
    return code_ == StatusCode::kResourceExhausted;
  }
  bool IsTimeout() const { return code_ == StatusCode::kTimeout; }
  bool IsUnavailable() const { return code_ == StatusCode::kUnavailable; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  /// The same status with `prefix` put before its message (the path that
  /// led to a field error, e.g. "workload."); OK stays OK.
  Status Prefixed(const std::string& prefix) const {
    return ok() ? *this : Status(code_, prefix + message_);
  }

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  StatusCode code_;
  std::string message_;
};

/// Either a value of type T or a non-OK Status. Dereferencing a non-OK
/// StatusOr aborts in debug builds (undefined in release, as with optional).
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  /// Implicit construction from a value makes `return value;` work.
  StatusOr(T value) : value_(std::move(value)) {}  // NOLINT
  /// Implicit construction from a non-OK status makes `return status;` work.
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "StatusOr constructed from OK status");
    if (status_.ok()) {
      status_ = Status::Internal("StatusOr constructed from OK status");
    }
  }

  StatusOr(const StatusOr&) = default;
  StatusOr& operator=(const StatusOr&) = default;
  StatusOr(StatusOr&&) = default;
  StatusOr& operator=(StatusOr&&) = default;

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  T&& operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the value or `fallback` when holding an error.
  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  Status status_;  // OK iff value_ engaged.
  std::optional<T> value_;
};

}  // namespace crayfish

/// Propagates a non-OK status out of the enclosing function.
#define CRAYFISH_RETURN_IF_ERROR(expr)                 \
  do {                                                 \
    ::crayfish::Status _st = (expr);                   \
    if (!_st.ok()) return _st;                         \
  } while (0)

/// Evaluates a StatusOr expression, propagating errors; on success binds the
/// value to `lhs`. `lhs` must be a declaration, e.g.
/// CRAYFISH_ASSIGN_OR_RETURN(auto v, Compute());
#define CRAYFISH_ASSIGN_OR_RETURN(lhs, expr)           \
  CRAYFISH_ASSIGN_OR_RETURN_IMPL(                      \
      CRAYFISH_STATUS_CONCAT(_status_or_, __LINE__), lhs, expr)

#define CRAYFISH_STATUS_CONCAT_INNER(a, b) a##b
#define CRAYFISH_STATUS_CONCAT(a, b) CRAYFISH_STATUS_CONCAT_INNER(a, b)
#define CRAYFISH_ASSIGN_OR_RETURN_IMPL(tmp, lhs, expr) \
  auto tmp = (expr);                                   \
  if (!tmp.ok()) return tmp.status();                  \
  lhs = std::move(tmp).value()

#endif  // CRAYFISH_COMMON_STATUS_H_
