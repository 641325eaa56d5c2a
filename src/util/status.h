// Status/Result error handling in the RocksDB/Arrow style: fallible library
// entry points return a Status (or Result<T>) instead of throwing.
#ifndef REDS_UTIL_STATUS_H_
#define REDS_UTIL_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace reds {

/// Outcome of a fallible operation. Cheap to copy; holds a code and message.
class Status {
 public:
  enum class Code {
    kOk = 0,
    kInvalidArgument,
    kOutOfRange,
    kFailedPrecondition,
    kRuntimeError,
    kIoError,
  };

  Status() : code_(Code::kOk) {}
  Status(Code code, std::string msg) : code_(code), message_(std::move(msg)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(Code::kInvalidArgument, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(Code::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(Code::kFailedPrecondition, std::move(msg));
  }
  static Status RuntimeError(std::string msg) {
    return Status(Code::kRuntimeError, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(Code::kIoError, std::move(msg));
  }

  bool ok() const { return code_ == Code::kOk; }
  Code code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Human-readable "CODE: message" string for logs and test failures.
  std::string ToString() const;

 private:
  Code code_;
  std::string message_;
};

/// Either a value of type T or an error Status. Dereferencing a non-ok
/// Result is a programmer error (asserted in debug builds).
template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}          // NOLINT(implicit)
  Result(Status status) : status_(std::move(status)) {}  // NOLINT(implicit)

  bool ok() const { return status_.ok(); }
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
    return *std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace reds

#endif  // REDS_UTIL_STATUS_H_
