#pragma once
// Structured error propagation for the placement pipeline.
//
// Every flow stage (validation, global placement, legalization) reports how
// it ended through a Status instead of letting CheckError escape: an error
// code, a human-readable message, and a diagnostic trail of context notes
// accumulated as the status bubbles up through the pipeline (innermost
// first). Result<T> carries either a value or the Status explaining its
// absence.

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "base/check.hpp"

namespace aplace {

enum class StatusCode : std::uint8_t {
  Ok,
  InvalidInput,      ///< malformed netlist / constraint set (pre-flight)
  Diverged,          ///< numerical blow-up the watchdog could not recover
  Infeasible,        ///< constraint set has no legal realization
  BudgetExhausted,   ///< wall-clock / iteration / node budget ran out
  Cancelled,         ///< cooperative cancellation stopped the work mid-flight
  Internal,          ///< unexpected failure (escaped exception, solver bug)
};

inline const char* to_string(StatusCode c) {
  switch (c) {
    case StatusCode::Ok: return "ok";
    case StatusCode::InvalidInput: return "invalid-input";
    case StatusCode::Diverged: return "diverged";
    case StatusCode::Infeasible: return "infeasible";
    case StatusCode::BudgetExhausted: return "budget-exhausted";
    case StatusCode::Cancelled: return "cancelled";
    case StatusCode::Internal: return "internal";
  }
  return "?";
}

class Status {
 public:
  Status() = default;  ///< Ok
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status invalid_input(std::string msg) {
    return {StatusCode::InvalidInput, std::move(msg)};
  }
  static Status diverged(std::string msg) {
    return {StatusCode::Diverged, std::move(msg)};
  }
  static Status infeasible(std::string msg) {
    return {StatusCode::Infeasible, std::move(msg)};
  }
  static Status budget_exhausted(std::string msg) {
    return {StatusCode::BudgetExhausted, std::move(msg)};
  }
  static Status cancelled(std::string msg) {
    return {StatusCode::Cancelled, std::move(msg)};
  }
  static Status internal(std::string msg) {
    return {StatusCode::Internal, std::move(msg)};
  }

  [[nodiscard]] bool ok() const { return code_ == StatusCode::Ok; }
  [[nodiscard]] StatusCode code() const { return code_; }
  [[nodiscard]] const std::string& message() const { return message_; }
  [[nodiscard]] const std::vector<std::string>& trail() const {
    return trail_;
  }

  /// Append a context note (e.g. "stage: ILP legalization on 'CC-OTA'").
  /// Notes read innermost-first. No-op on Ok statuses so call sites can
  /// annotate unconditionally.
  Status& add_context(std::string note) {
    if (!ok()) trail_.push_back(std::move(note));
    return *this;
  }

  /// "code: message [note; note; ...]" for logs and test failures.
  [[nodiscard]] std::string to_string() const {
    std::string s = aplace::to_string(code_);
    if (!message_.empty()) {
      s += ": ";
      s += message_;
    }
    if (!trail_.empty()) {
      s += " [";
      for (std::size_t i = 0; i < trail_.size(); ++i) {
        if (i) s += "; ";
        s += trail_[i];
      }
      s += "]";
    }
    return s;
  }

 private:
  StatusCode code_ = StatusCode::Ok;
  std::string message_;
  std::vector<std::string> trail_;
};

/// Value-or-Status. A Result constructed from a value is ok(); one
/// constructed from a non-ok Status carries the error instead.
template <class T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    APLACE_CHECK_MSG(!status_.ok(),
                     "Result constructed from an Ok status without a value");
  }

  [[nodiscard]] bool ok() const { return status_.ok(); }
  [[nodiscard]] const Status& status() const { return status_; }

  [[nodiscard]] T& value() {
    APLACE_CHECK_MSG(ok(), "Result::value() on error: " << status_.to_string());
    return *value_;
  }
  [[nodiscard]] const T& value() const {
    APLACE_CHECK_MSG(ok(), "Result::value() on error: " << status_.to_string());
    return *value_;
  }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace aplace
