// Runtime SIMD dispatch for the SoA kernels (geo/soa.h).
//
// Before this layer the vectorized kernels only reached the checked-in
// BENCH_kernels.json numbers when the whole project was compiled with
// -march=native: a generic Release binary was stuck with SSE2 codegen, and
// the CI bench baseline silently depended on whatever CPU compiled it. Now
// the kernel bodies (geo/soa_kernels.inc) are compiled THREE times — into a
// baseline TU (portable flags), an AVX2 TU (-mavx2) and an AVX-512 TU
// (-mavx512f) — and the best tier the running CPU supports is selected once
// per process through the function-pointer table below. A plain generic
// Release build therefore runs AVX2/AVX-512 kernel code on machines that
// have it, and SSE2 code on machines that don't, from the same binary.
//
// Bit-identity contract: every tier of every kernel performs exactly the
// same arithmetic in exactly the same order — the per-ISA TUs differ only
// in instruction selection, are all compiled with -ffp-contract=off (no
// FMA contraction, which WOULD change results), and the vectorizable loops
// are elementwise or exact (min/sqrt), so results are bit-identical across
// tiers. tests/geo/simd_dispatch_test.cc asserts this kernel-by-kernel for
// every tier the host supports, and the CI isa-matrix job asserts it
// end-to-end (identical top-k under each SIMSUB_ISA override).
//
// Override: SIMSUB_ISA=baseline|avx2|avx512 forces a tier at startup (the
// CI matrix runs the equivalence and determinism suites under each value).
// A tier the CPU cannot execute is clamped to the best supported one with
// a warning — requesting avx512 on an AVX2 box runs avx2, never SIGILL.
//
// The tier is resolved on the first kernel call and cached for the process
// lifetime; changing the environment afterwards has no effect.
#ifndef SIMSUB_GEO_SIMD_DISPATCH_H_
#define SIMSUB_GEO_SIMD_DISPATCH_H_

#include <cstddef>
#include <string_view>

namespace simsub::geo {

/// The compiled kernel tiers, ordered: a CPU supporting tier t supports
/// every tier below it (AVX-512F implies AVX2 implies SSE2).
enum class IsaTier { kBaseline = 0, kAvx2 = 1, kAvx512 = 2 };

/// Stable lowercase label ("baseline" / "avx2" / "avx512") — the spelling
/// the SIMSUB_ISA override accepts and the BENCH_*.json config records.
const char* IsaTierName(IsaTier tier);

/// Parses an IsaTier label; returns false (and leaves *tier alone) for
/// anything else.
bool ParseIsaName(std::string_view name, IsaTier* tier);

/// Best tier the running CPU can execute (cpuid, no env consulted).
IsaTier BestSupportedIsa();

/// Pure resolution rule: `override_value` is the SIMSUB_ISA string (null or
/// empty = no override), `best` is the hardware ceiling. An unparseable
/// override is ignored, a tier above `best` is clamped to it; both warn.
/// Exposed separately so tests can exercise the rule without mutating the
/// process environment (ActiveIsa caches its first answer forever).
IsaTier ResolveIsa(const char* override_value, IsaTier best);

/// The tier every dispatched kernel call uses: ResolveIsa(getenv
/// ("SIMSUB_ISA"), BestSupportedIsa()), computed once on first use and
/// cached for the process lifetime.
IsaTier ActiveIsa();
const char* ActiveIsaName();

/// One tier's kernel implementations. Raw-pointer signatures so the per-ISA
/// translation units need nothing from the rest of the project (they must
/// not inline project code compiled with wider ISA flags into callers).
struct SoaKernels {
  /// out[j] = distance / squared distance from (px,py) to (qx[j],qy[j]).
  void (*distance_row)(double px, double py, const double* qx,
                       const double* qy, size_t n, double* out);
  void (*squared_distance_row)(double px, double py, const double* qx,
                               const double* qy, size_t n, double* out);
  /// min over j of squared distance; requires n > 0.
  double (*min_squared_distance)(double px, double py, const double* qx,
                                 const double* qy, size_t n);
  /// DTW first DP row: row[j] = sum_{k<=j} d(p, q_k); returns row[n-1].
  double (*dtw_start_row)(double px, double py, const double* qx,
                          const double* qy, size_t n, double* row);
  /// DTW DP row extension: out[j] = d(p, q_j) + min(prev[j-1], prev[j],
  /// out[j-1]) with the j == 0 edge case, tracking the row minimum (the
  /// evaluator's early-abandoning lower bound). Returns out[n-1].
  double (*dtw_extend_row)(double px, double py, const double* qx,
                           const double* qy, size_t n, const double* prev,
                           double* out, double* row_min);
  /// DTW suffix pass over n data points and m query points: out[k] is the
  /// value dtw_start_row(p[n-1]), dtw_extend_row(p[n-2]), ...,
  /// dtw_extend_row(p[k]) returns, with several rows filled per SIMD
  /// vector. `work` holds 3 * m + 32 doubles; requires n, m > 0.
  void (*dtw_suffix)(const double* px, const double* py, size_t n,
                     const double* qx, const double* qy, size_t m,
                     double* work, double* out);
};

/// Kernel table of one tier. Always callable for tiers <= BestSupportedIsa();
/// calling into a higher tier's table executes instructions the CPU lacks.
/// Exists so the cross-tier equivalence test can compare every supported
/// tier in one process.
const SoaKernels& KernelsFor(IsaTier tier);

/// KernelsFor(ActiveIsa()) — what geo/soa.cc routes every call through.
const SoaKernels& ActiveKernels();

}  // namespace simsub::geo

#endif  // SIMSUB_GEO_SIMD_DISPATCH_H_
