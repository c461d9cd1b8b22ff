// Lint fixture: the own-pair include does not count as a caller.
#include "lonely.h"

namespace demo {
int Lonely() { return 1; }
}  // namespace demo
