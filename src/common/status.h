// Status / StatusOr: exception-free error handling for libvos.
//
// The library does not throw exceptions: a failure is a [[nodiscard]]
// value its caller must handle, not a jump the caller may not see. Fallible
// operations — file I/O, configuration parsing, budget validation — return a
// Status (or StatusOr<T> when they also produce a value). Hot paths (sketch
// updates, estimators) are infallible by construction and use VOS_DCHECK for
// internal invariants instead.

#pragma once

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>

#include "common/logging.h"

namespace vos {

/// Machine-readable category of a Status.
enum class StatusCode : uint8_t {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kOutOfRange = 3,
  kFailedPrecondition = 4,
  kIoError = 5,
  kCorruption = 6,
  kUnimplemented = 7,
  kInternal = 8,
  kDeadlineExceeded = 9,
  kResourceExhausted = 10,
};

/// Returns a stable human-readable name for `code` (e.g. "InvalidArgument").
std::string_view StatusCodeToString(StatusCode code);

/// Result of a fallible operation: a code plus a human-readable message.
///
/// Cheap to copy in the OK case (empty message). Follows the RocksDB/Abseil
/// convention: constructors per category, `ok()` query, `ToString()` for
/// diagnostics.
///
/// [[nodiscard]]: dropping a returned Status on the floor is a compile
/// warning (and an error in the CI static-analysis leg) — a silently
/// ignored flush/checkpoint failure is exactly the bug class PR 6 exists
/// to prevent. The rare intentional drop must say so: `(void)Flush();`
/// with a comment on why the status is irrelevant there.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }

  /// True iff the operation succeeded.
  bool ok() const { return code_ == StatusCode::kOk; }

  StatusCode code() const { return code_; }

  /// The message supplied at construction; empty for OK.
  const std::string& message() const { return message_; }

  /// "OK" or "<Code>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  StatusCode code_;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

/// Either a value of type T or a non-OK Status explaining why there is none.
///
/// Accessing `value()` on a non-OK StatusOr aborts (programming error); call
/// sites must check `ok()` first, typically via VOS_RETURN_IF_ERROR /
/// VOS_ASSIGN_OR_RETURN. [[nodiscard]] like Status: a dropped StatusOr
/// discards both the error and the value.
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  /// Implicit from value: `return 42;` inside StatusOr<int> functions.
  StatusOr(T value) : status_(Status::OK()), value_(std::move(value)) {}

  /// Implicit from error: `return Status::InvalidArgument(...)`.
  StatusOr(Status status) : status_(std::move(status)) {
    VOS_CHECK(!status_.ok()) << "StatusOr constructed from OK status";
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    VOS_CHECK(ok()) << "value() on error StatusOr: " << status_.ToString();
    return *value_;
  }
  T& value() & {
    VOS_CHECK(ok()) << "value() on error StatusOr: " << status_.ToString();
    return *value_;
  }
  T&& value() && {
    VOS_CHECK(ok()) << "value() on error StatusOr: " << status_.ToString();
    return *std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  T&& operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;  // engaged iff status_.ok()
};

/// Propagates a non-OK status to the caller.
#define VOS_RETURN_IF_ERROR(expr)            \
  do {                                       \
    ::vos::Status _vos_st = (expr);          \
    if (!_vos_st.ok()) return _vos_st;       \
  } while (0)

#define VOS_STATUS_CONCAT_IMPL(a, b) a##b
#define VOS_STATUS_CONCAT(a, b) VOS_STATUS_CONCAT_IMPL(a, b)

/// `VOS_ASSIGN_OR_RETURN(auto x, MakeX());` — unwraps or propagates.
#define VOS_ASSIGN_OR_RETURN(decl, expr)                              \
  auto VOS_STATUS_CONCAT(_vos_sor_, __LINE__) = (expr);               \
  if (!VOS_STATUS_CONCAT(_vos_sor_, __LINE__).ok())                   \
    return VOS_STATUS_CONCAT(_vos_sor_, __LINE__).status();           \
  decl = std::move(VOS_STATUS_CONCAT(_vos_sor_, __LINE__)).value()

}  // namespace vos
