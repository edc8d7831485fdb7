#include "geo/simd_dispatch.h"

#include <cstdlib>

#include "util/logging.h"

namespace simsub::geo {

// The per-ISA translation units (soa_kernels_{baseline,avx2,avx512}.cc)
// each instantiate geo/soa_kernels.inc into their own namespace; declare
// the symbols here instead of through a header so nothing else can call a
// wider-ISA kernel without going through the dispatch clamp.
#define SIMSUB_DECLARE_ISA_KERNELS(ns)                                       \
  namespace ns {                                                             \
  void DistanceRowKernel(double, double, const double*, const double*,       \
                         size_t, double*);                                   \
  void SquaredDistanceRowKernel(double, double, const double*,               \
                                const double*, size_t, double*);             \
  double MinSquaredDistanceKernel(double, double, const double*,             \
                                  const double*, size_t);                    \
  double DtwStartRowKernel(double, double, const double*, const double*,     \
                           size_t, double*);                                 \
  double DtwExtendRowKernel(double, double, const double*, const double*,    \
                            size_t, const double*, double*, double*);        \
  void DtwSuffixKernel(const double*, const double*, size_t, const double*,  \
                       const double*, size_t, double*, double*);             \
  }  // namespace ns

SIMSUB_DECLARE_ISA_KERNELS(isa_baseline)
SIMSUB_DECLARE_ISA_KERNELS(isa_avx2)
SIMSUB_DECLARE_ISA_KERNELS(isa_avx512)
#undef SIMSUB_DECLARE_ISA_KERNELS

namespace {

#define SIMSUB_ISA_TABLE(ns)                                       \
  SoaKernels {                                                     \
    &ns::DistanceRowKernel, &ns::SquaredDistanceRowKernel,         \
        &ns::MinSquaredDistanceKernel, &ns::DtwStartRowKernel,     \
        &ns::DtwExtendRowKernel, &ns::DtwSuffixKernel              \
  }

constexpr SoaKernels kTables[] = {
    SIMSUB_ISA_TABLE(isa_baseline),
    SIMSUB_ISA_TABLE(isa_avx2),
    SIMSUB_ISA_TABLE(isa_avx512),
};
#undef SIMSUB_ISA_TABLE

}  // namespace

const char* IsaTierName(IsaTier tier) {
  switch (tier) {
    case IsaTier::kBaseline:
      return "baseline";
    case IsaTier::kAvx2:
      return "avx2";
    case IsaTier::kAvx512:
      return "avx512";
  }
  return "?";
}

bool ParseIsaName(std::string_view name, IsaTier* tier) {
  if (name == "baseline") {
    *tier = IsaTier::kBaseline;
  } else if (name == "avx2") {
    *tier = IsaTier::kAvx2;
  } else if (name == "avx512") {
    *tier = IsaTier::kAvx512;
  } else {
    return false;
  }
  return true;
}

IsaTier BestSupportedIsa() {
#if defined(__x86_64__) || defined(_M_X64)
  // AVX-512F implies AVX2 on every shipping CPU, but probe both anyway —
  // the tier ladder must never select code the CPU cannot run.
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx2")) {
    return IsaTier::kAvx512;
  }
  if (__builtin_cpu_supports("avx2")) return IsaTier::kAvx2;
#endif
  return IsaTier::kBaseline;
}

IsaTier ResolveIsa(const char* override_value, IsaTier best) {
  if (override_value == nullptr || override_value[0] == '\0') return best;
  IsaTier requested;
  if (!ParseIsaName(override_value, &requested)) {
    SIMSUB_LOG(Warning) << "SIMSUB_ISA='" << override_value
                        << "' is not baseline|avx2|avx512; using "
                        << IsaTierName(best);
    return best;
  }
  if (requested > best) {
    SIMSUB_LOG(Warning) << "SIMSUB_ISA=" << IsaTierName(requested)
                        << " is not supported by this CPU; clamping to "
                        << IsaTierName(best);
    return best;
  }
  return requested;
}

IsaTier ActiveIsa() {
  // Resolved once; kernels dispatched after this never re-read the
  // environment (the function pointers a scan uses must not change
  // mid-query).
  static const IsaTier tier =
      ResolveIsa(std::getenv("SIMSUB_ISA"), BestSupportedIsa());
  return tier;
}

const char* ActiveIsaName() { return IsaTierName(ActiveIsa()); }

const SoaKernels& KernelsFor(IsaTier tier) {
  return kTables[static_cast<int>(tier)];
}

const SoaKernels& ActiveKernels() {
  static const SoaKernels& kernels = KernelsFor(ActiveIsa());
  return kernels;
}

}  // namespace simsub::geo
