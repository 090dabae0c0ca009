// Process-wide metrics registry: named counters, gauges and histograms with
// hierarchical dot-names ("engine.defrag.rewritten_bytes"), cheap enough for
// per-chunk hot paths, mergeable across threads, and exportable as a stable
// JSON snapshot shared by defrag-cli and the bench harness.
//
// Design rules (see docs/OBSERVABILITY.md for the naming scheme):
//  - Counters are monotonically increasing event totals. add() is a relaxed
//    atomic increment — safe from any thread, ~1 ns uncontended.
//  - Gauges are last-written point-in-time values (cache occupancy, cumulative
//    object-lifetime stats). set() is a relaxed atomic store.
//  - Histograms combine RunningStats (exact moments) with a Log2Histogram
//    (bucketed quantiles). observe() is NOT thread-safe; either observe from
//    one thread or give each thread its own MetricsRegistry and merge_from()
//    the shards — merged results are bit-identical to single-threaded
//    accumulation (tested).
//  - Handles returned by counter()/gauge()/histogram() are stable for the
//    registry's lifetime; hot paths resolve the name once and keep the
//    reference.
//
// The global() registry is never destroyed (intentionally leaked) so
// instrumented objects may cache handles without destruction-order hazards.
// set_enabled(false) turns every update site into a load+branch, for
// overhead measurements (bench/micro_metrics) and for users who want the
// instrumentation off; registration and snapshots still work.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.h"
#include "common/sync.h"

namespace defrag::obs {

namespace detail {
inline std::atomic<bool> g_enabled{true};
inline bool on() { return g_enabled.load(std::memory_order_relaxed); }
}  // namespace detail

/// Globally enable/disable metric updates (default: enabled). Disabling
/// freezes values; it does not clear them.
inline void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}
inline bool enabled() { return detail::on(); }

/// Monotonic event counter. Thread-safe (relaxed atomic).
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    if (detail::on()) v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  std::atomic<std::uint64_t> v_{0};
};

/// Last-written point-in-time value. Thread-safe (relaxed atomic).
class Gauge {
 public:
  void set(double v) {
    if (!detail::on()) return;
    v_.store(v, std::memory_order_relaxed);
    set_flag_.store(true, std::memory_order_relaxed);
  }
  /// Raise the value to `v` when `v` is larger (a high-water mark that
  /// concurrent writers share; an unset gauge reads 0).
  void set_max(double v) {
    if (!detail::on()) return;
    double cur = v_.load(std::memory_order_relaxed);
    while (v > cur &&
           !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
    set_flag_.store(true, std::memory_order_relaxed);
  }
  double value() const { return v_.load(std::memory_order_relaxed); }
  bool is_set() const { return set_flag_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  std::atomic<double> v_{0.0};
  std::atomic<bool> set_flag_{false};
};

/// Moments + log2-bucketed distribution. observe() is single-threaded;
/// shard per thread and merge for parallel paths. Callers pick integer-
/// friendly units (bytes, microseconds, permille) so the log2 buckets carry
/// information; negative values count as zeros in the buckets but are exact
/// in the moments.
class Histogram {
 public:
  void observe(double v) {
    if (!detail::on()) return;
    stats_.add(v);
    buckets_.add(v <= 0.0 ? 0 : static_cast<std::uint64_t>(v + 0.5));
  }
  const RunningStats& stats() const { return stats_; }
  const Log2Histogram& buckets() const { return buckets_; }

 private:
  friend class MetricsRegistry;
  RunningStats stats_;
  Log2Histogram buckets_;
};

enum class MetricKind { kCounter, kGauge, kHistogram };

/// One metric's value at snapshot time.
struct MetricEntry {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t counter = 0;                   // kCounter
  double gauge = 0.0;                          // kGauge
  bool gauge_set = false;                      // kGauge
  RunningStats hist_stats;                     // kHistogram
  Log2Histogram hist_buckets;                  // kHistogram
};

/// Point-in-time copy of every registered metric, sorted by name.
struct MetricsSnapshot {
  std::vector<MetricEntry> entries;

  /// Entry by exact name, or nullptr.
  const MetricEntry* find(std::string_view name) const;

  /// Counter value by name; 0 when absent or not a counter.
  std::uint64_t counter_or_zero(std::string_view name) const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every built-in instrumentation site feeds.
  /// Never destroyed: cached handles stay valid through static teardown.
  static MetricsRegistry& global();

  /// Get-or-create. Names are dot-hierarchical, [a-zA-Z0-9._-]; re-requesting
  /// a name with a different kind throws CheckFailure (name collision).
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Fold another registry into this one: counters add, set gauges
  /// overwrite, histograms merge. The canonical reduction for per-thread
  /// shards; concurrent merge_from() calls into the same target serialize
  /// internally. Kind mismatches throw CheckFailure.
  void merge_from(const MetricsRegistry& other);

  /// Scoped fold: like merge_from(other), but every source name lands under
  /// `prefix` + name in this registry. This is how per-session / per-tenant
  /// registries are published into the global one without name collisions
  /// ("bytes_logical" in a session scope becomes
  /// "service.tenant.alice.bytes_logical" globally). `prefix` must itself be
  /// a valid metric-name fragment (checked via the combined name).
  void merge_from(const MetricsRegistry& other, std::string_view prefix);

  /// Zero every value; registrations (and cached handles) survive.
  void reset();

  std::size_t size() const;

  MetricsSnapshot snapshot() const;

 private:
  struct Slot {
    MetricKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Slot& slot_for(std::string_view name, MetricKind kind) DEFRAG_EXCLUDES(mu_);
  Slot& slot_for_locked(std::string_view name, MetricKind kind)
      DEFRAG_REQUIRES(mu_);

  // mu_ guards the name->slot map, and merge_from() additionally holds it
  // across its whole fold so concurrent merges into the same target
  // serialize (histogram state is not atomic). The Counter/Gauge/Histogram
  // objects the slots point at are otherwise deliberately NOT guarded:
  // handles outlive the critical section (that is the whole point of slot
  // stability), and their own update rules — relaxed atomics for
  // Counter/Gauge, single-thread or shard-and-merge for Histogram — are
  // documented at the class definitions above.
  // Rank kMetricsRegistry: registration may be reached from under the
  // data-plane locks (store/index), never the other way around. merge_from()
  // deliberately snapshots the source BEFORE locking the target, so two
  // registries (same rank) are never held together.
  mutable Mutex mu_{lock_order::kMetricsRegistry};
  std::map<std::string, Slot, std::less<>> slots_ DEFRAG_GUARDED_BY(mu_);
};

/// Stable machine-readable export — schema "defrag.metrics.v1". This is the
/// ONE metrics serializer: defrag-cli --metrics-json, the bench harness and
/// tools/metrics_diff.py all speak exactly this format.
void write_metrics_json(const MetricsSnapshot& snapshot, std::ostream& os);

/// after[name] - before[name] for one counter (0 when absent either side).
/// Phase attribution against the cumulative global registry: snapshot before
/// and after, subtract.
std::uint64_t counter_delta(const MetricsSnapshot& before,
                            const MetricsSnapshot& after,
                            std::string_view name);

/// Lowercased metric-name segment from a free-form label: alnum preserved,
/// everything else collapsed to '_' ("DDFS-Like" -> "ddfs_like").
std::string slug(std::string_view label);

}  // namespace defrag::obs
