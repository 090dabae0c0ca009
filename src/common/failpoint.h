// Named failpoints: compiled-in fault-injection sites for error-path tests.
//
// A failpoint is a named site in production code that can be armed (by a
// test, or via the DEFRAG_FAILPOINTS environment variable) to raise a typed
// error exactly where a real fault would surface — an I/O failure mid-seal,
// a corrupt frame mid-decode — so the error paths the throw-graph analyzer
// certifies on paper are also *executed* paths, under TSan/ASan, in ctest.
//
//   // in production code (function top, before any mutation):
//   DEFRAG_FAILPOINT("store.stream_seal");
//
//   // in a test:
//   failpoint::arm("store.stream_seal", failpoint::Action::kThrow);
//   EXPECT_THROW(appender.close(), FailpointError);
//
//   // from the environment (smoke scripts, CI fault-injection pass):
//   DEFRAG_FAILPOINTS="store.stream_seal:throw,index.insert:check:2"
//
// Cost when disarmed: one relaxed atomic load per pass (the action enum),
// no lock, no branch beyond the comparison — cheap enough to leave in hot
// paths permanently. Arming/listing takes the registry mutex (rank
// failpoint_registry, innermost: a failpoint may fire from under any other
// lock).
//
// Actions:
//   throw  raise FailpointError("failpoint: <name>") — models a transient
//          environment fault; callers see a typed, catchable error.
//   check  route through check_failed() so a CheckFailure surfaces — models
//          an invariant failure, for proving thread catch boundaries keep
//          the daemon alive.
//
// Arming is one-shot by default (count = 1): the site fires `count` times,
// then disarms itself; count = -1 means every pass fires. Sites register
// lazily on first execution; arming a name before its site has run is
// legal (the spec is held pending and applied at registration), so env
// arming works regardless of initialization order.
//
// Discipline (enforced by tools/throw_graph_lint.py):
//   - failpoint names are 'module.site' lowercase identifiers;
//   - every DEFRAG_FAILPOINT name in src/ must be armed by at least one
//     test under tests/ (the stale-failpoint rule) — an uninjected
//     failpoint is an unproven error path;
//   - failpoints must not be reachable from destructors or move
//     operations (they throw; the analyzer's transitive dtor scan treats
//     them as throwing calls).
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace defrag::failpoint {

/// Raised by an armed `throw` failpoint. Derives std::runtime_error;
/// declared in the error taxonomy (error_policy.h) as throwable anywhere,
/// so any code a failpoint guards must already tolerate a typed throw.
class FailpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class Action : std::uint8_t {
  kOff = 0,   // disarmed (the default; one relaxed load and fall through)
  kThrow,     // throw FailpointError
  kCheck,     // fail a DEFRAG_CHECK (throws CheckFailure)
};

/// One failpoint site. Instances live as function-local statics created by
/// DEFRAG_FAILPOINT and register themselves with the process-wide registry
/// on construction; they are never destroyed (static storage duration), so
/// registry pointers stay valid for the process lifetime.
class Site {
 public:
  explicit Site(const char* name);
  Site(const Site&) = delete;
  Site& operator=(const Site&) = delete;

  const char* name() const { return name_; }

  /// The hot-path check. Disarmed cost: one relaxed atomic load.
  void maybe_fail() {
    if (action_.load(std::memory_order_relaxed) != Action::kOff) fail_slow();
  }

  /// Times this site has actually fired (for tests/diagnostics).
  std::uint64_t hit_count() const {
    return hits_.load(std::memory_order_relaxed);
  }

  /// Registry-internal: install an arming spec. Publishes the budget before
  /// the action so a concurrent maybe_fail() that observes the armed action
  /// finds budget available. Not a test API — use arm()/disarm().
  void apply_spec(Action action, std::int64_t count) {
    budget_.store(count, std::memory_order_relaxed);
    action_.store(action, std::memory_order_release);
  }

 private:
  void fail_slow();  // consume budget; throw per the armed action

  const char* name_;
  std::atomic<Action> action_{Action::kOff};
  std::atomic<std::int64_t> budget_{0};  // remaining fires; -1 = unlimited
  std::atomic<std::uint64_t> hits_{0};
};

/// Arm `name` to fire `count` times with `action` (count = -1: unlimited).
/// The site need not have registered yet — the spec is applied when it does.
void arm(const std::string& name, Action action, int count = 1);

/// Disarm `name` (registered or pending). No-op if unknown.
void disarm(const std::string& name);

/// Disarm every registered site and drop all pending specs. Tests call this
/// in SetUp/TearDown so armings never leak across test cases.
void disarm_all();

/// Names of all sites that have registered so far, sorted.
std::vector<std::string> registered();

/// Fires this site (or 0 if it never registered / never fired).
std::uint64_t hit_count(const std::string& name);

/// Parse a DEFRAG_FAILPOINTS-style spec ("name:action[:count],...") and arm
/// each entry. Returns false (arming nothing further) on malformed input.
/// Called once at first site registration with the environment value, and
/// directly by tests exercising the parser.
bool arm_from_spec(const std::string& spec);

}  // namespace defrag::failpoint

/// Drop a named failpoint here. Expands to a function-local static Site
/// (registered on first pass, thread-safe by C++ static-init rules) plus
/// the one-relaxed-load armed check.
#define DEFRAG_FAILPOINT(name_literal)                                 \
  do {                                                                 \
    static ::defrag::failpoint::Site defrag_failpoint_site{name_literal}; \
    defrag_failpoint_site.maybe_fail();                                \
  } while (0)
