#ifndef ANGELPTM_UTIL_RETRY_H_
#define ANGELPTM_UTIL_RETRY_H_

#include <chrono>
#include <thread>

#include "util/status.h"

namespace angelptm::util {

/// The one retry schedule for transient I/O faults (DESIGN.md §7), shared by
/// every SSD request and every socket frame: at most kRetryAttempts
/// attempts, backing off 100 µs before the second and 400 µs before the
/// third.
inline constexpr int kRetryAttempts = 3;

/// Runs `attempt` (a callable returning Status) until it succeeds, fails
/// with a status `transient` rejects, or kRetryAttempts attempts have
/// failed, and returns the last status. Before each retry it calls
/// `on_retry(status, attempt_number, backoff_us)` with the failure it
/// retries, then sleeps the backoff. Nothing here allocates, so a request
/// that succeeds first time costs one call of `attempt`.
template <typename Attempt, typename Transient, typename OnRetry>
[[nodiscard]] Status RetryTransient(Attempt&& attempt, Transient&& transient,
                                    OnRetry&& on_retry) {
  int backoff_us = 100;
  for (int attempt_number = 1;; ++attempt_number) {
    Status status = attempt();
    if (status.ok() || attempt_number == kRetryAttempts ||
        !transient(status)) {
      return status;
    }
    on_retry(status, attempt_number, backoff_us);
    std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
    backoff_us *= 4;
  }
}

}  // namespace angelptm::util

#endif  // ANGELPTM_UTIL_RETRY_H_
