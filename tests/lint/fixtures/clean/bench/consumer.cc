// Lint fixture: a bench/ file is a caller for the orphan-module rule.
// Never compiled.
#include "clean.h"
