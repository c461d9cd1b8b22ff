// Lint fixture: an examples/ file is a caller for the orphan-module rule.
// Never compiled.
#include "train/simd/ok.h"
