#ifndef WIMPI_PARALLEL_CANCELLATION_H_
#define WIMPI_PARALLEL_CANCELLATION_H_

#include <atomic>
#include <stdexcept>
#include <string>

namespace wimpi::parallel {

// Cooperative cancellation flag shared between a driver and the morsel
// loops working on its behalf. Cancel() may be called from
// any thread; workers poll cancelled() before claiming each unit of work,
// so an abandoned computation (e.g. a distributed query whose last live
// node just failed) stops after at most one in-flight morsel per worker
// instead of running to completion.
//
// Already-running bodies finish; a pipeline that skipped a morsel because
// the token fired throws Cancelled once they have, so no caller ever sees
// a partially filled result.
class CancellationToken {
 public:
  CancellationToken() = default;

  CancellationToken(const CancellationToken&) = delete;
  CancellationToken& operator=(const CancellationToken&) = delete;

  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }
  // Re-arms a token for reuse across sequential computations (tests).
  void Reset() { cancelled_.store(false, std::memory_order_relaxed); }

 private:
  std::atomic<bool> cancelled_{false};
};

// Worker-thread failure with execution context attached (operator label,
// morsel index and row range). Foreign exceptions are wrapped exactly
// once: an escaping TaskError is forwarded as-is, so the innermost (most
// specific) context wins.
class TaskError : public std::runtime_error {
 public:
  explicit TaskError(const std::string& what) : std::runtime_error(what) {}
};

// Thrown by a pipeline that skipped morsels because its lane or pipeline
// token fired. A TaskError, so it leaves nested pipelines unwrapped.
class Cancelled : public TaskError {
 public:
  Cancelled() : TaskError("pipeline cancelled") {}
};

}  // namespace wimpi::parallel

#endif  // WIMPI_PARALLEL_CANCELLATION_H_
