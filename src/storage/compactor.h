// Offline garbage collection + re-linearizing compaction.
//
// Backup systems retire old generations; the chunks only they referenced
// become garbage, but they sit interleaved with live chunks inside immutable
// containers. The compactor performs offline mark-and-sweep:
//
//   mark   walk the retained recipes and collect every live chunk location;
//   sweep  copy live chunks into a fresh container log — in the walk order
//          of the *newest* retained recipe first — and remap all retained
//          recipes onto the new locations.
//
// Copying in newest-recipe order is itself a defragmentation: the most
// likely restore target becomes fully linear, which is the offline
// counterpart of DeFrag's inline rewriting (and composes with it).
//
// This is an offline operation: engine read structures (indexes, caches,
// similarity tables) reference the old store and must be rebuilt or
// discarded afterwards; the compactor returns a fresh store + recipes.
//
// Thread safety: compact() is const and touches only its arguments plus
// process-wide metric counters (relaxed atomics), so one Compactor may be
// shared across threads — but each concurrent call needs its own source/
// destination stores and DiskSim, which are thread-compatible themselves.
#pragma once

#include <cstdint>
#include <vector>

#include "storage/container_store.h"
#include "storage/disk_model.h"
#include "storage/recipe.h"

namespace defrag {

struct CompactionResult {
  std::uint64_t live_bytes = 0;
  std::uint64_t dead_bytes = 0;
  std::size_t containers_before = 0;
  std::size_t containers_after = 0;
  IoStats io;
  double sim_seconds = 0.0;

  double reclaimed_fraction() const {
    const double total = static_cast<double>(live_bytes + dead_bytes);
    return total == 0.0 ? 0.0 : static_cast<double>(dead_bytes) / total;
  }
};

class Compactor {
 public:
  /// Compact `store` down to the chunks referenced by the recipes of
  /// `keep_generations` (must be sorted ascending, newest last). Live data
  /// is read container-by-container and written sequentially; both sides
  /// are charged to `sim`. Outputs a fresh store — with the source's
  /// container capacity and compress-on-seal setting — and the remapped
  /// recipes.
  CompactionResult compact(const ContainerStore& store,
                           const RecipeStore& recipes,
                           const std::vector<std::uint32_t>& keep_generations,
                           ContainerStore* new_store, RecipeStore* new_recipes,
                           DiskSim& sim) const;
};

}  // namespace defrag
