//===- support/Status.h - Recoverable error reporting ---------*- C++ -*-===//
///
/// \file
/// Exception-free recoverable errors for the API boundary, LLVM-style.
/// Library code never throws; operations that can fail on *client
/// input* (malformed COO data, einsum syntax, an unbound tensor, a
/// corrupted level structure, an expired deadline) return a `Status` or
/// an `Expected<T>` instead of aborting. `fatalError`/`unreachable`
/// (support/Error.h) remain reserved for violated internal invariants.
///
/// `Status` is move-only and `[[nodiscard]]`: a success carries no
/// allocation at all, an error owns a code, a message, and a chain of
/// context frames (`withContext` prepends, so the rendered string reads
/// outermost-first, like a call stack).
///
//===----------------------------------------------------------------------===//

#ifndef SYSTEC_SUPPORT_STATUS_H
#define SYSTEC_SUPPORT_STATUS_H

#include <atomic>
#include <cassert>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace systec {

/// Failure categories of the recoverable API surface. The names are
/// part of the contract: tests assert codes, and
/// `ExecReport::AbortReason` surfaces `errCodeName` strings.
enum class ErrCode : uint8_t {
  Ok = 0,
  InvalidArgument,   ///< malformed client input (COO entries, einsum text)
  UnboundTensor,     ///< a kernel references a tensor that was never bound
  InvalidTensor,     ///< a tensor failed structural integrity validation
  InvalidOptions,    ///< ExecOptions values that cannot be clamped sanely
  Cancelled,         ///< the run's CancelToken was tripped
  DeadlineExceeded,  ///< ExecOptions::DeadlineMs elapsed mid-run
  ResourceExhausted, ///< a hard memory budget refused an allocation
  Internal,          ///< an invariant violation surfaced as a status
};

/// Stable lowercase-hyphen name ("invalid-tensor", "deadline-exceeded").
const char *errCodeName(ErrCode C);

/// A success-or-error result with no payload. Success is a null pointer
/// (free to create, copy elision everywhere); errors heap-allocate once.
class [[nodiscard]] Status {
public:
  /// Success.
  Status() = default;
  Status(Status &&) = default;
  Status &operator=(Status &&) = default;
  Status(const Status &) = delete;
  Status &operator=(const Status &) = delete;

  static Status success() { return Status(); }
  static Status error(ErrCode Code, std::string Message) {
    assert(Code != ErrCode::Ok && "error status needs a non-Ok code");
    Status S;
    S.Payload = std::make_unique<Rep>();
    S.Payload->Code = Code;
    S.Payload->Message = std::move(Message);
    return S;
  }

  bool ok() const { return Payload == nullptr; }
  ErrCode code() const { return Payload ? Payload->Code : ErrCode::Ok; }
  const std::string &message() const {
    static const std::string Empty;
    return Payload ? Payload->Message : Empty;
  }
  /// Context frames, outermost first.
  const std::vector<std::string> &context() const {
    static const std::vector<std::string> Empty;
    return Payload ? Payload->Context : Empty;
  }

  /// Prepends a context frame (e.g. "tensor 'A'") and returns *this so
  /// error paths can chain: `return S.withContext("executor 'k'");`.
  /// No-op on success.
  Status &&withContext(std::string Frame) && {
    if (Payload)
      Payload->Context.insert(Payload->Context.begin(), std::move(Frame));
    return std::move(*this);
  }
  Status &withContext(std::string Frame) & {
    if (Payload)
      Payload->Context.insert(Payload->Context.begin(), std::move(Frame));
    return *this;
  }

  /// Renders "code: frame1: frame2: message" ("ok" on success).
  std::string str() const;

  /// An equal Status (code, message and context frames): statuses are
  /// move-only, so one outcome shared by several holders is cloned.
  Status clone() const;

private:
  struct Rep {
    ErrCode Code = ErrCode::Internal;
    std::string Message;
    std::vector<std::string> Context;
  };
  std::unique_ptr<Rep> Payload; ///< null on success
};

/// A value of type T or a Status describing why there is none.
/// Move-only (it owns a Status). Construction from a value or from a
/// non-Ok Status is implicit, so `return Status::error(...)` and
/// `return SomeT` both work from a function returning Expected<T>.
template <typename T> class [[nodiscard]] Expected {
public:
  Expected(T Value) : Val(std::move(Value)) {}
  Expected(Status Error) : Err(std::move(Error)) {
    assert(!Err.ok() && "Expected error must carry a non-Ok status");
  }
  Expected(Expected &&) = default;
  Expected &operator=(Expected &&) = default;
  Expected(const Expected &) = delete;
  Expected &operator=(const Expected &) = delete;

  bool ok() const { return Val.has_value(); }
  explicit operator bool() const { return ok(); }

  T &operator*() {
    assert(ok() && "dereferencing an errored Expected");
    return *Val;
  }
  const T &operator*() const {
    assert(ok() && "dereferencing an errored Expected");
    return *Val;
  }
  T *operator->() { return &**this; }
  const T *operator->() const { return &**this; }
  T &value() { return **this; }
  const T &value() const { return **this; }

  /// The error (must not hold a value). Moves the status out, so the
  /// caller can forward it: `return Result.takeStatus();`.
  Status takeStatus() {
    assert(!ok() && "takeStatus on a valued Expected");
    return std::move(Err);
  }
  const Status &status() const { return Err; }

private:
  std::optional<T> Val;
  Status Err; ///< Ok iff Val holds a value
};

/// Cooperative cancellation flag shared between a client thread and a
/// run. The client calls cancel() (any thread, any time); the runtime
/// polls at loop, chunk, and task-claim boundaries and abandons the run
/// with ErrCode::Cancelled, discarding partial output. Tokens are
/// reusable across runs via reset().
class CancelToken {
public:
  void cancel() { Flag.store(true, std::memory_order_relaxed); }
  bool cancelled() const { return Flag.load(std::memory_order_relaxed); }
  void reset() { Flag.store(false, std::memory_order_relaxed); }

private:
  std::atomic<bool> Flag{false};
};

} // namespace systec

#endif // SYSTEC_SUPPORT_STATUS_H
