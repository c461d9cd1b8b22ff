// Lint fixture: violates every scripts/lint.py rule. Never compiled.
#ifndef ANGELPTM_TESTS_LINT_FIXTURES_DIRTY_SRC_BAD_H_
#define ANGELPTM_TESTS_LINT_FIXTURES_DIRTY_SRC_BAD_H_

#include <immintrin.h>  // Intrinsics outside src/train/simd/, no waiver.
#include <mutex>

namespace demo {

class Bad {
 public:
  util::Status Flush();  // Missing [[nodiscard]].

 private:
  std::mutex raw_mutex_;      // Raw std::mutex, no waiver ([mutex] AND
                              // [raw-mutex]: outside src/util/).
  util::Mutex lonely_mutex_;  // Never annotated, and no lock class.
  // Classified but the class is absent from the design table:
  util::Mutex rogue_{"demo.rogue", util::lockrank::kRogue};
  int rogue_val_ ANGEL_GUARDED_BY(rogue_) = 0;
  // Classified but the constant disagrees with the design table:
  util::Mutex mm_{"demo.mismatch", util::lockrank::kMismatch};
  int mm_val_ ANGEL_GUARDED_BY(mm_) = 0;
  int* leak_ = new int(3);    // Naked new, no waiver.
};

inline void Touch() {
  ANGEL_FAULT_CHECK("demo.undocumented");  // Absent from the table.
  std::mutex local;                        // lint: unguarded (decl waived...)
  std::lock_guard<std::mutex> guard(local);  // ...but the lock site is a
                                             // [raw-mutex] finding.
}

}  // namespace demo

#endif  // ANGELPTM_TESTS_LINT_FIXTURES_DIRTY_SRC_BAD_H_
