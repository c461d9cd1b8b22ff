#ifndef ANGELPTM_UTIL_ENV_OVERRIDE_H_
#define ANGELPTM_UTIL_ENV_OVERRIDE_H_

#include <cstddef>
#include <string>

/// Central parsing for the `ANGELPTM_*` environment knobs (DESIGN.md §13).
///
/// Precedence contract, uniform across every subsystem that honours an env
/// knob (simd::Dispatch's ANGELPTM_SIMD, ParallelFor's
/// ANGELPTM_COMPUTE_THREADS, ...):
///
///   1. test override        (ScopedForceIsa, SetComputePoolOverride, ...)
///   2. environment variable (so a whole test binary or bench can be
///                            re-pointed without code changes)
///   3. Options / compiled default
///
/// i.e. an explicit in-process override installed by a test beats the
/// environment, and the environment beats whatever the caller's Options
/// carry. Unparsable values never abort: they warn once at the call site
/// and fall back, so a typo in CI degrades to the default instead of
/// changing behaviour silently.

namespace angelptm::util {

/// True when `name` is set in the environment (even to the empty string).
bool EnvIsSet(const char* name);

/// Reads a non-negative integer knob. Unset or empty returns `fallback`;
/// unparsable values (junk, trailing characters, negative numbers — which
/// strtoull would otherwise silently wrap to a huge count) warn and return
/// `fallback`.
size_t EnvSizeOr(const char* name, size_t fallback);

/// Like EnvSizeOr but additionally rejects zero (for knobs like thread
/// counts where 0 is meaningless): nonpositive values warn and fall back.
size_t EnvPositiveOr(const char* name, size_t fallback);

/// Reads a finite floating-point knob (e.g. a probability). Unset or empty
/// returns `fallback`; unparsable or non-finite values warn and fall back.
double EnvDoubleOr(const char* name, double fallback);

/// Reads a string knob; returns `fallback` when unset (a set-but-empty
/// variable returns the empty string — pair with EnvIsSet to distinguish).
std::string EnvStringOr(const char* name, const std::string& fallback);

}  // namespace angelptm::util

#endif  // ANGELPTM_UTIL_ENV_OVERRIDE_H_
