#ifndef ANGELPTM_UTIL_LOCKDEP_H_
#define ANGELPTM_UTIL_LOCKDEP_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

/// Runtime lock-order analysis (DESIGN.md §15), Linux-kernel "lockdep"
/// style. Every util::Mutex belongs to a named *lock class* (all per-layer
/// `master_mutex` instances are one class) with an optional declared rank.
/// Under the `ANGELPTM_LOCKDEP=ON` build, each acquisition
///
///   1. checks the class rank against every ranked lock already held by the
///      thread (an acquisition must move strictly *inward*: new rank >
///      every held rank), and
///   2. records a class-level dependency edge held-class -> acquired-class
///      in a global graph, running online cycle detection when the edge is
///      new.
///
/// A would-be ABBA inversion is therefore reported the first time the
/// *second* order is observed — with the acquisition stack traces of both
/// edges — without the deadlock interleaving ever having to fire. Rank
/// violations likewise flag ordering bugs that no test schedule actually
/// deadlocks on.
///
/// The Detector itself is compiled unconditionally (it is pure bookkeeping
/// and unit-tested in the default build via its explicit API); only the
/// util::Mutex instrumentation hooks are compile-gated, so the default
/// build's shims stay byte-identical to plain std types.
namespace angelptm::util {

/// Canonical lock ranks, outermost (lowest) to innermost (highest). A lock
/// may only be acquired while every held ranked lock has a *strictly
/// smaller* rank. Gaps leave room for future classes. This table is
/// mirrored in DESIGN.md §15 and cross-checked by `scripts/lint.py`
/// (lock-class rule) in both directions.
namespace lockrank {
inline constexpr int kNoRank = 0;  // Unranked: graph edges only, no order check.

// Tier A — outermost: a checkpoint cut (held across every layer's master
// lock) and the per-layer update transaction.
inline constexpr int kCheckpointSave = 8;
inline constexpr int kUpdaterMaster = 10;
// Tier B — allocation / page-movement entry points.
inline constexpr int kAllocState = 20;
inline constexpr int kCopyPage = 22;
// Tier C — updater pipeline internals reached under a master lock.
inline constexpr int kUpdaterQueue = 30;
inline constexpr int kUpdaterBuffer = 32;
// Tier D — memory-tier state reached under alloc/copy locks.
inline constexpr int kHmemRegistry = 40;
inline constexpr int kHmemStats = 42;
inline constexpr int kSsdState = 44;
inline constexpr int kArenaState = 48;
// Tier E — utility leaves reached under updater/memory locks.
inline constexpr int kUpdaterPoison = 60;
inline constexpr int kUpdaterWork = 62;
inline constexpr int kFaultInjector = 64;
inline constexpr int kThrottle = 66;
// Tier F — standalone leaves (never observed nested under anything, ranked
// innermost-ward so future nesting under the tiers above stays legal).
inline constexpr int kUpdaterBackpressure = 70;
inline constexpr int kUpdaterStaleness = 72;
inline constexpr int kCopyPageMap = 74;
inline constexpr int kThreadPool = 76;
inline constexpr int kCommunicator = 80;
inline constexpr int kCheckpointStats = 82;
// Tier G — tracing: spans can end while *any* other lock is held, so the
// trace log is the innermost class in the system.
inline constexpr int kTraceRegistry = 86;
inline constexpr int kTraceLog = 88;
}  // namespace lockrank

namespace lockdep {

/// One named lock class (e.g. "updater.master"); all mutex instances
/// declaring the same name share it. Immutable after registration.
struct LockClass {
  int id = 0;
  std::string name;
  int rank = lockrank::kNoRank;
};

struct Violation {
  enum class Kind {
    kCycle,          // New edge closes a cycle in the class dependency graph.
    kRankInversion,  // Acquired rank <= a held rank (distinct classes).
    kSameClass,      // Two instances of one class nested.
    kRecursive,      // Same mutex instance acquired twice by one thread.
    kRankConflict,   // One class name registered with two different ranks.
  };
  Kind kind;
  std::string from_class;  // Held side (empty for kRankConflict).
  std::string to_class;    // Acquired side.
  std::string report;      // Full human-readable report incl. stack traces.
};

/// The lock-dependency analyzer. `Global()` is the instance the Mutex shims
/// feed; tests may construct private instances and drive the OnAcquire /
/// OnAcquired / OnRelease protocol directly (this works in every build).
/// Thread-safe; internal synchronization deliberately uses a raw
/// std::mutex so the detector never instruments itself.
class Detector {
 public:
  Detector();
  ~Detector();
  Detector(const Detector&) = delete;
  Detector& operator=(const Detector&) = delete;

  static Detector& Global();

  /// Interns a lock class by name. `name == nullptr` returns the shared
  /// "unclassified" class, which is excluded from dependency tracking
  /// (classify a mutex to opt it in; lint enforces this under src/).
  /// Re-registering a name with a different rank records a kRankConflict
  /// and keeps the first rank.
  const LockClass* RegisterClass(const char* name, int rank);

  /// Pre-acquisition hook: runs the rank check and edge/cycle analysis
  /// against the calling thread's held stack, then (on the instrumented
  /// path) the schedule-perturbation point. Call before blocking on the
  /// underlying mutex so inversions are reported even when the acquisition
  /// would deadlock.
  void OnAcquire(const LockClass* cls, const void* addr);
  /// Post-acquisition hook: pushes the lock onto the thread's held stack
  /// with a captured stack trace.
  void OnAcquired(const LockClass* cls, const void* addr);
  /// Successful TryLock: pushes the held entry without recording
  /// dependency edges (try-lock cannot deadlock).
  void OnTryAcquired(const LockClass* cls, const void* addr);
  /// Pre-release hook: pops the lock from the thread's held stack.
  void OnRelease(const void* addr);

  /// When true (default), a violation prints its report to stderr and
  /// aborts the process. Tests switch to capture mode via
  /// ScopedCaptureViolations below.
  void set_abort_on_violation(bool abort_on_violation);
  bool abort_on_violation() const;

  std::size_t violation_count() const;
  /// Drains captured violations (capture mode only fills this).
  std::vector<Violation> TakeViolations();

  std::size_t num_classes() const;
  std::size_t num_edges() const;

  /// Graphviz dump of the observed class dependency graph; ranked classes
  /// carry their rank in the label.
  std::string DumpDot() const;
  /// JSON dump: {"classes": [...], "edges": [...], "violations": N}.
  std::string DumpJson() const;
  /// Writes `<prefix>.dot` and `<prefix>.json`; returns false on I/O error.
  bool WriteDump(const std::string& prefix) const;

  /// Clears graph, violations, and the calling thread's held stack.
  void ResetForTest();

 private:
  struct Impl;
  Impl* impl_;  // Raw pointer: the global detector is deliberately leaked.
};

/// RAII: puts `detector` into capture mode (no abort) and restores the
/// previous mode on destruction. The negative tests (deliberate ABBA)
/// run under this.
class ScopedCaptureViolations {
 public:
  explicit ScopedCaptureViolations(Detector& detector)
      : detector_(detector), previous_(detector.abort_on_violation()) {
    detector_.set_abort_on_violation(false);
  }
  ~ScopedCaptureViolations() { detector_.set_abort_on_violation(previous_); }
  ScopedCaptureViolations(const ScopedCaptureViolations&) = delete;
  ScopedCaptureViolations& operator=(const ScopedCaptureViolations&) = delete;

 private:
  Detector& detector_;
  bool previous_;
};

}  // namespace lockdep
}  // namespace angelptm::util

#endif  // ANGELPTM_UTIL_LOCKDEP_H_
