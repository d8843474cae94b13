// Lightweight Status / Result error-handling primitives.
//
// The library is exception-free: every fallible operation returns either a
// res::Status (for void-like operations) or a res::Result<T>. Both carry a
// StatusCode plus a human-readable message suitable for surfacing in tools.
#ifndef RES_SUPPORT_STATUS_H_
#define RES_SUPPORT_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace res {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,   // caller passed something malformed
  kNotFound,          // lookup failed
  kOutOfRange,        // index / address outside valid bounds
  kFailedPrecondition,// object not in the required state
  kUnimplemented,     // feature intentionally absent
  kInternal,          // invariant violation inside the library
  kResourceExhausted, // budget / memory limits hit
  kAborted,           // operation gave up (e.g. search budget)
  kDataLoss,          // corrupt serialized data
};

// Returns a stable lowercase name for `code` (e.g. "invalid_argument").
std::string_view StatusCodeName(StatusCode code);

// A success-or-error value. Cheap to copy on success (empty message).
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {
    assert(code != StatusCode::kOk && "error Status requires a non-OK code");
  }

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "ok" or "invalid_argument: ...message...".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

inline Status OkStatus() { return Status::Ok(); }
inline Status InvalidArgument(std::string msg) {
  return Status(StatusCode::kInvalidArgument, std::move(msg));
}
inline Status NotFound(std::string msg) {
  return Status(StatusCode::kNotFound, std::move(msg));
}
inline Status OutOfRange(std::string msg) {
  return Status(StatusCode::kOutOfRange, std::move(msg));
}
inline Status FailedPrecondition(std::string msg) {
  return Status(StatusCode::kFailedPrecondition, std::move(msg));
}
inline Status Internal(std::string msg) {
  return Status(StatusCode::kInternal, std::move(msg));
}
inline Status ResourceExhausted(std::string msg) {
  return Status(StatusCode::kResourceExhausted, std::move(msg));
}
inline Status DataLoss(std::string msg) {
  return Status(StatusCode::kDataLoss, std::move(msg));
}

// Result<T>: either a value or an error Status. Access to value() asserts ok().
template <typename T>
class Result {
 public:
  Result(T value) : data_(std::move(value)) {}         // NOLINT(google-explicit-constructor)
  Result(Status status) : data_(std::move(status)) {   // NOLINT(google-explicit-constructor)
    assert(!std::get<Status>(data_).ok() && "Result error requires non-OK status");
  }

  bool ok() const { return std::holds_alternative<T>(data_); }

  const T& value() const& {
    assert(ok());
    return std::get<T>(data_);
  }
  T& value() & {
    assert(ok());
    return std::get<T>(data_);
  }
  T&& value() && {
    assert(ok());
    return std::get<T>(std::move(data_));
  }

  Status status() const {
    if (ok()) {
      return OkStatus();
    }
    return std::get<Status>(data_);
  }

  const T& value_or(const T& fallback) const {
    return ok() ? std::get<T>(data_) : fallback;
  }

 private:
  std::variant<T, Status> data_;
};

// Propagates errors out of the enclosing function.
#define RES_RETURN_IF_ERROR(expr)            \
  do {                                       \
    ::res::Status res_status_ = (expr);      \
    if (!res_status_.ok()) {                 \
      return res_status_;                    \
    }                                        \
  } while (0)

#define RES_ASSIGN_OR_RETURN_IMPL(tmp, lhs, expr) \
  auto tmp = (expr);                              \
  if (!tmp.ok()) {                                \
    return tmp.status();                          \
  }                                               \
  lhs = std::move(tmp).value()

#define RES_ASSIGN_OR_RETURN_CAT(a, b) a##b
#define RES_ASSIGN_OR_RETURN_CAT2(a, b) RES_ASSIGN_OR_RETURN_CAT(a, b)

// RES_ASSIGN_OR_RETURN(auto x, Foo()); — assigns on success, returns on error.
#define RES_ASSIGN_OR_RETURN(lhs, expr) \
  RES_ASSIGN_OR_RETURN_IMPL(RES_ASSIGN_OR_RETURN_CAT2(res_result_, __LINE__), lhs, expr)

}  // namespace res

#endif  // RES_SUPPORT_STATUS_H_
