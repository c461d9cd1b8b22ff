// Lint fixture: included only by its own .cc and by a test, so the
// orphan-module rule flags it. Never compiled.
#ifndef ANGELPTM_TESTS_LINT_FIXTURES_DIRTY_SRC_LONELY_H_
#define ANGELPTM_TESTS_LINT_FIXTURES_DIRTY_SRC_LONELY_H_

namespace demo {
int Lonely();
}  // namespace demo

#endif  // ANGELPTM_TESTS_LINT_FIXTURES_DIRTY_SRC_LONELY_H_
