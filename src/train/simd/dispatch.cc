#include "train/simd/dispatch.h"

#include <atomic>
#include <string>

#include "train/simd/kernels_avx2.h"
#include "util/env_override.h"
#include "util/logging.h"

namespace angelptm::simd {
namespace {

// F16C rides on the AVX2 requirement: every AVX2 CPU has it, and the
// fp16 converters in the AVX2 TU use it.
bool CpuHasAvx2FmaF16c() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma") &&
         __builtin_cpu_supports("f16c");
#else
  return false;
#endif
}

/// Override slot: -1 = none, otherwise an IsaPath value. Only tests and
/// benches write it (via ScopedForceIsa); kernels read it relaxed.
std::atomic<int> g_force_override{-1};

/// Env + CPUID resolution, computed once. -1 = not yet resolved.
std::atomic<int> g_resolved{-1};

IsaPath ResolveFromEnvAndCpu() {
  const bool avx2_ok = avx2::Compiled() && CpuHasAvx2FmaF16c();
  // Precedence (util::EnvOverride contract): the ScopedForceIsa test
  // override in Dispatch() beats this env lookup, which beats CPU detection.
  if (util::EnvIsSet("ANGELPTM_SIMD")) {
    const std::string env = util::EnvStringOr("ANGELPTM_SIMD", "");
    if (env == "scalar") return IsaPath::kScalar;
    if (env == "avx2") {
      if (avx2_ok) return IsaPath::kAvx2;
      ANGEL_LOG(Warning)
          << "ANGELPTM_SIMD=avx2 requested but AVX2+FMA+F16C is "
          << (avx2::Compiled() ? "not supported by this CPU"
                               : "not compiled into this binary")
          << "; falling back to the scalar path";
      return IsaPath::kScalar;
    }
    ANGEL_LOG(Warning) << "unknown ANGELPTM_SIMD value \"" << env
                       << "\" (expected \"scalar\" or \"avx2\"); using "
                       << "runtime CPU detection";
  }
  return avx2_ok ? IsaPath::kAvx2 : IsaPath::kScalar;
}

}  // namespace

IsaPath Dispatch() {
  const int forced = g_force_override.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<IsaPath>(forced);
  int resolved = g_resolved.load(std::memory_order_relaxed);
  if (resolved < 0) {
    resolved = static_cast<int>(ResolveFromEnvAndCpu());
    g_resolved.store(resolved, std::memory_order_relaxed);
  }
  return static_cast<IsaPath>(resolved);
}

bool Supported(IsaPath path) {
  switch (path) {
    case IsaPath::kScalar:
      return true;
    case IsaPath::kAvx2:
      return avx2::Compiled() && CpuHasAvx2FmaF16c();
  }
  return false;
}

const char* IsaPathName(IsaPath path) {
  return path == IsaPath::kAvx2 ? "avx2" : "scalar";
}

ScopedForceIsa::ScopedForceIsa(IsaPath path)
    : previous_(g_force_override.exchange(static_cast<int>(path),
                                          std::memory_order_relaxed)) {}

ScopedForceIsa::~ScopedForceIsa() {
  g_force_override.store(previous_, std::memory_order_relaxed);
}

}  // namespace angelptm::simd
