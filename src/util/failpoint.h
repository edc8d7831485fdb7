// Deterministic failpoint fault injection: named sites at fallible
// boundaries (util/io, net, service) that tests and operators can script
// to fail on demand. This is how the error paths get *proved* instead of
// hand-verified — a chaos test schedules "the 3rd write fails" or "fsync
// aborts the process" and asserts the stack ends in a clean typed status.
//
// A site is a string like "io.write"; code declares one with
//
//   SIMSUB_FAILPOINT("io.write");   // returns an IOError when scripted
//
// which expands to a `return` of the injected Status when the site's
// policy fires (usable in any function returning Status or Result<T>),
// and to nothing at all when failpoints are compiled out. Code that
// cannot early-return (or wants a custom reaction) calls FailpointFire()
// directly inside `#if SIMSUB_FAILPOINTS_COMPILED`.
//
// Policies are `action[@trigger]`:
//
//   action:   error       return IOError("failpoint '<site>' fired")
//             throw       throw util::FailpointError at the site (a fault
//                         in code that reports errors by exception)
//             abort       std::_Exit(kFailpointAbortExitCode) at the site
//                         (crash simulation: no cleanup handlers run)
//             delay:<ms>  sleep, then proceed OK (latency injection)
//             off         remove the site's policy
//   trigger:  (none)      every hit                      "error"
//             once        the first hit only             "error@once"
//             nth:<n>     the n-th hit only (1-based)    "abort@nth:3"
//             times:<n>   the first n hits               "error@times:3"
//             prob:<p>[:<seed>]  seeded Bernoulli(p)     "error@prob:0.1:42"
//
// Activation: programmatically via SetFailpoint(), or for whole processes
// via the environment variable SIMSUB_FAILPOINTS="site=policy;site=...",
// parsed lazily at the first site hit.
//
// Cost: compiled out (CMake -DSIMSUB_FAILPOINTS_ENABLED=OFF) a site is
// zero instructions. Compiled in but inactive, a site is one relaxed
// atomic load. Only configured runs take the registry mutex.
//
// Thread safety: all functions are thread-safe. Determinism: triggers are
// counted per site under one lock and prob is seeded, so a single-threaded
// schedule replays exactly; concurrent hitters race only for hit order.
#ifndef SIMSUB_UTIL_FAILPOINT_H_
#define SIMSUB_UTIL_FAILPOINT_H_

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/status.h"

// CMake defines SIMSUB_FAILPOINTS_COMPILED=0|1 on every target (see the
// SIMSUB_FAILPOINTS_ENABLED option in the root CMakeLists); stray
// compiles without the flag get the sites compiled in.
#ifndef SIMSUB_FAILPOINTS_COMPILED
#define SIMSUB_FAILPOINTS_COMPILED 1
#endif

namespace simsub::util {

/// Process exit code of an `abort` policy firing — distinct from any
/// crash-signal code, so a death test can assert the simulated crash
/// happened rather than a real one.
inline constexpr int kFailpointAbortExitCode = 86;

/// True when the build carries the failpoint sites (compile-time
/// constant; lets callers `if constexpr` away direct FailpointFire calls).
constexpr bool FailpointsCompiledIn() {
  return SIMSUB_FAILPOINTS_COMPILED != 0;
}

/// What a `throw` policy throws; what() names the site.
class FailpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Evaluates the site against its configured policy. Returns OK when no
/// policy is set or the trigger does not fire; IOError when an `error`
/// policy fires; throws FailpointError when a `throw` policy fires; does
/// not return when an `abort` policy fires. `site` must have static
/// storage duration (sites are string literals).
[[nodiscard]] Status FailpointFire(const char* site);

/// Sets (or with "off" removes) the policy for one site. Fails with
/// InvalidArgument on a malformed policy and FailedPrecondition when
/// failpoints are compiled out. Resets the site's hit/fire counters.
[[nodiscard]] Status SetFailpoint(const std::string& site,
                                  const std::string& policy);

/// Applies a whole "site=policy;site=policy" spec (the SIMSUB_FAILPOINTS
/// env var grammar). Empty segments are skipped; the first malformed
/// entry fails the call (earlier entries stay applied).
[[nodiscard]] Status ConfigureFailpointsFromSpec(const std::string& spec);

/// Removes every configured policy and clears the trace. Does not
/// re-apply the environment spec (it was consumed at startup).
void ClearFailpoints();

/// Per-site counters: `hits` = times the site was evaluated with a policy
/// configured, `fires` = times the trigger actually fired.
struct FailpointCounters {
  int64_t hits = 0;
  int64_t fires = 0;
};
FailpointCounters GetFailpointCounters(const std::string& site);

/// Trace mode records every site hit (configured or not) so a test can
/// discover which sites a code path crosses and how often — the input to
/// a "crash at every site" sweep. Enabling clears any previous trace.
void SetFailpointTrace(bool enabled);

struct FailpointTraceEntry {
  std::string site;
  int64_t hits = 0;
};
/// The recorded trace, ordered by each site's first hit.
std::vector<FailpointTraceEntry> FailpointTrace();

}  // namespace simsub::util

/// Declares a failpoint site: early-returns the injected Status when the
/// site fires. Valid in functions returning util::Status or
/// util::Result<T>. Compiles to nothing when failpoints are disabled.
#if SIMSUB_FAILPOINTS_COMPILED
#define SIMSUB_FAILPOINT(site) \
  SIMSUB_RETURN_IF_ERROR(::simsub::util::FailpointFire(site))
#else
#define SIMSUB_FAILPOINT(site) \
  do {                         \
  } while (false)
#endif

#endif  // SIMSUB_UTIL_FAILPOINT_H_
