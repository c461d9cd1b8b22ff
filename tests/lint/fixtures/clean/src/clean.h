// Lint fixture: a file that satisfies every scripts/lint.py rule, including
// the waiver forms. Never compiled — the linter only reads text.
#ifndef ANGELPTM_TESTS_LINT_FIXTURES_CLEAN_SRC_CLEAN_H_
#define ANGELPTM_TESTS_LINT_FIXTURES_CLEAN_SRC_CLEAN_H_

#include <immintrin.h>  // lint: simd-include (fixture waiver form)
#include <memory>
#include <mutex>

// Callers in src/ for the orphan-module rule.
#include "util/lockdep.h"
#include "util/locks.h"

namespace demo {

class Clean {
 public:
  [[nodiscard]] util::Status Flush() ANGEL_EXCLUDES(mutex_);
  [[nodiscard]] static util::Result<int> Count();

 private:
  mutable util::Mutex mutex_{"demo.lock", util::lockrank::kDemoLock};
  int value_ ANGEL_GUARDED_BY(mutex_) = 0;
  // Waiver forms: a raw std::mutex (one waiver covers both the [mutex]
  // declaration rule and [raw-mutex]), a classless util::Mutex, and a
  // leaked singleton.
  std::mutex raw_but_waived_;  // lint: raw-mutex (fixture waiver form)
  util::Mutex classless_;  // lint: unguarded (fixture); // lint: lock-class (fixture)
  std::unique_ptr<int> owned_ = std::make_unique<int>(3);
};

inline int* LeakedSingleton() {
  static int* instance = new int(7);  // lint: naked-new (leaked singleton)
  return instance;
}

inline void Touch() {
  // A mention in a comment must not count: ANGEL_FAULT_CHECK("demo.ghost").
  ANGEL_FAULT_CHECK("demo.flush");
  auto wrapped = std::unique_ptr<int>(new int(1));
  (void)wrapped;
  // Outside src/util/, even lock *sites* on std:: types need the waiver.
  std::lock_guard<std::mutex> lock(LockRef());  // lint: raw-mutex (fixture)
}

}  // namespace demo

#endif  // ANGELPTM_TESTS_LINT_FIXTURES_CLEAN_SRC_CLEAN_H_
