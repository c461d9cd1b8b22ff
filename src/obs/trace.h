#ifndef ANGELPTM_OBS_TRACE_H_
#define ANGELPTM_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "util/status.h"

namespace angelptm::obs {

/// Span tracer: scoped begin/end events on per-thread ring buffers,
/// exported as a Chrome/Perfetto-loadable `trace_event` JSON file
/// (chrome://tracing or https://ui.perfetto.dev).
///
/// Enabling:
///   * Environment: ANGELPTM_TRACE=out.json — tracing starts at process
///     init and the file is written at exit (atexit).
///   * Programmatic: StartTracing(path) ... StopTracing() — used by tests
///     and by runs that want one file per training job.
///
/// Cost model: when disabled, ANGEL_SPAN is one relaxed atomic load and a
/// branch — safe on any hot path above the inner kernel loops. When
/// enabled, each span costs two clock reads and one briefly-held
/// per-thread mutex (contended only by the exporter).
///
/// Overflow policy: each thread records into a fixed-size ring; when it
/// fills, the *oldest* spans are overwritten and counted as dropped, so a
/// long run keeps its most recent window. Spans are recorded at scope exit
/// and threads nest spans strictly (RAII), so any suffix of a thread's
/// spans still forms a balanced begin/end sequence — the exporter
/// guarantees balanced, properly nested B/E pairs in the JSON.

inline constexpr size_t kDefaultTraceRingCapacity = 1 << 16;

namespace internal {
extern std::atomic<bool> g_trace_enabled;
/// Records one completed span. `category` and `name` must be string
/// literals (or otherwise outlive the tracing session): only the pointers
/// are stored. `begin_seq`/`end_seq` are per-thread order stamps (see
/// NextSpanSeq) that let the exporter reconstruct nesting exactly even
/// when timestamps tie at clock resolution.
void RecordSpan(const char* category, const char* name, uint64_t begin_ns,
                uint64_t end_ns, uint64_t begin_seq, uint64_t end_seq);
uint64_t TraceNowNs();
/// Per-thread monotonic stamp, bumped at every span begin and end. Never
/// reset: the exporter only compares stamps from one session and thread.
inline uint64_t NextSpanSeq() {
  thread_local uint64_t seq = 0;
  return ++seq;
}
}  // namespace internal

/// Lock-free fast path used by the span macro.
inline bool TracingEnabled() {
  return internal::g_trace_enabled.load(std::memory_order_relaxed);
}

/// Starts a tracing session writing to `path` on StopTracing. Fails if a
/// session is already active.
[[nodiscard]] util::Status StartTracing(const std::string& path,
                          size_t ring_capacity = kDefaultTraceRingCapacity);

/// Ends the session: disables recording, exports the JSON file, clears the
/// buffers. Fails if no session is active or the file cannot be written.
[[nodiscard]] util::Status StopTracing();

/// Reads ANGELPTM_TRACE; when set (and no session is active), starts
/// tracing to that path and registers an atexit hook that writes the file.
/// Called automatically at process init; call again after setenv in tests.
bool InitTracingFromEnv();

struct TraceCounts {
  uint64_t recorded = 0;  // Spans currently buffered.
  uint64_t dropped = 0;   // Spans overwritten by ring overflow.
};
TraceCounts CurrentTraceCounts();

/// RAII span; use via ANGEL_SPAN below. Category should be the subsystem
/// ("mem", "copy", "ssd", "updater", "train", "engine"), one name per
/// subsystem, so a trace viewer can select all of its spans at once.
class ScopedSpan {
 public:
  ScopedSpan(const char* category, const char* name) {
    if (TracingEnabled()) {
      category_ = category;
      name_ = name;
      begin_seq_ = internal::NextSpanSeq();
      begin_ns_ = internal::TraceNowNs();
    }
  }
  ~ScopedSpan() {
    if (category_ != nullptr) {
      const uint64_t end_ns = internal::TraceNowNs();
      internal::RecordSpan(category_, name_, begin_ns_, end_ns, begin_seq_,
                           internal::NextSpanSeq());
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* category_ = nullptr;  // Null while tracing is disabled.
  const char* name_ = nullptr;
  uint64_t begin_ns_ = 0;
  uint64_t begin_seq_ = 0;
};

}  // namespace angelptm::obs

#define ANGEL_SPAN_CONCAT_INNER(a, b) a##b
#define ANGEL_SPAN_CONCAT(a, b) ANGEL_SPAN_CONCAT_INNER(a, b)
/// Traces the enclosing scope: ANGEL_SPAN("ssd", "pwrite");
#define ANGEL_SPAN(category, name)                         \
  ::angelptm::obs::ScopedSpan ANGEL_SPAN_CONCAT(           \
      angel_scoped_span_, __LINE__)((category), (name))

#endif  // ANGELPTM_OBS_TRACE_H_
