#include "storage/compactor.h"

#include <unordered_map>
#include <unordered_set>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/container.h"
#include "storage/container_store.h"
#include "storage/disk_model.h"
#include "storage/recipe.h"

namespace defrag {

namespace {
/// A chunk's physical identity during compaction: its old placement.
struct OldLocation {
  ContainerId container;
  std::uint32_t offset;

  friend bool operator==(const OldLocation&, const OldLocation&) = default;
};

struct OldLocationHash {
  std::size_t operator()(const OldLocation& l) const noexcept {
    return (static_cast<std::size_t>(l.container) << 32) ^ l.offset;
  }
};
}  // namespace

CompactionResult Compactor::compact(
    const ContainerStore& store, const RecipeStore& recipes,
    const std::vector<std::uint32_t>& keep_generations,
    ContainerStore* new_store, RecipeStore* new_recipes, DiskSim& sim) const {
  DEFRAG_CHECK(new_store != nullptr && new_recipes != nullptr);
  DEFRAG_CHECK_MSG(!keep_generations.empty(),
                   "compaction must retain at least one generation");

  const obs::TraceSpan span("compact", "storage");
  CompactionResult res;
  res.containers_before = store.container_count();

  *new_store =
      ContainerStore(store.container_capacity(), store.compress_on_seal());
  ContainerStore::StreamAppender out = new_store->open_stream();

  // Copy order: the newest retained recipe's walk first (re-linearizes the
  // most restore-relevant generation), then older recipes' residual chunks.
  std::vector<std::uint32_t> order(keep_generations.rbegin(),
                                   keep_generations.rend());

  std::unordered_map<OldLocation, ChunkLocation, OldLocationHash> relocation;
  SegmentId next_segment = 0;

  for (std::uint32_t gen : order) {
    const Recipe& recipe = recipes.get(gen);
    for (const RecipeEntry& e : recipe.entries()) {
      const OldLocation key{e.location.container, e.location.offset};
      if (relocation.contains(key)) continue;
      // Read the live chunk from its old container (container reads are
      // batched per source container in a real implementation; we charge
      // the transfer, and one seek per source-container switch below).
      const ByteView data = store.peek(e.location.container).read(e.location);
      sim.read(data.size());
      const ChunkLocation loc = out.append(e.fp, data, next_segment, sim);
      // Offline GC has no foreground ingest to hide behind: unlike the
      // engines' write-behind appends, the copy's sequential write blocks
      // the sweep. append() already counted the bytes; charge the time.
      sim.compute(sim.model().write_seconds(data.size()));
      relocation.emplace(key, loc);
      res.live_bytes += data.size();
    }
    ++next_segment;
  }

  // Seek accounting: one positioning per distinct source container (the
  // sweep reads each old container once, streaming its live extents).
  std::unordered_set<ContainerId> sources;
  for (const auto& [old_loc, _] : relocation) sources.insert(old_loc.container);
  for (std::size_t i = 0; i < sources.size(); ++i) sim.seek();

  out.close();
  res.containers_after = new_store->container_count();
  res.dead_bytes = store.total_data_bytes() - res.live_bytes;

  // Remap every retained recipe onto the new placements.
  *new_recipes = RecipeStore{};
  for (std::uint32_t gen : keep_generations) {
    const Recipe& old_recipe = recipes.get(gen);
    Recipe& fresh = new_recipes->create(gen, old_recipe.label());
    for (const RecipeEntry& e : old_recipe.entries()) {
      const OldLocation key{e.location.container, e.location.offset};
      const auto it = relocation.find(key);
      DEFRAG_CHECK_MSG(it != relocation.end(), "live chunk lost in sweep");
      fresh.add(e.fp, it->second);
    }
  }

  res.io = sim.stats();
  res.sim_seconds = sim.elapsed_seconds();

  auto& reg = obs::MetricsRegistry::global();
  reg.counter("storage.compactor.runs").add(1);
  reg.counter("storage.compactor.live_bytes_copied").add(res.live_bytes);
  reg.counter("storage.compactor.dead_bytes_reclaimed").add(res.dead_bytes);
  reg.counter("storage.compactor.source_containers")
      .add(static_cast<std::uint64_t>(sources.size()));
  reg.gauge("storage.compactor.last_reclaimed_fraction")
      .set(res.reclaimed_fraction());
  return res;
}

}  // namespace defrag
