// Lint fixture: an include from tests/ does not count as a caller.
#include "lonely.h"
