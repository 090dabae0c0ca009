// Archival retention: a year of weekly backups under a keep-last-N policy.
// Shows the offline lifecycle around DeFrag: ingest -> scrub -> retire old
// generations with the re-linearizing compactor -> scrub again -> compare
// restore speed before/after.
//
//   $ ./archival_retention [weeks] [keep]    (default 16, keep 4)
#include <cstdio>
#include <cstdlib>

#include "common/table.h"
#include "common/units.h"
#include "core/dedup_system.h"
#include "dedup/integrity.h"
#include "dedup/restore_strategies.h"
#include "storage/compactor.h"
#include "workload/backup_series.h"

int main(int argc, char** argv) {
  using namespace defrag;
  const std::uint32_t weeks =
      argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : 16;
  const std::uint32_t keep =
      argc > 2 ? static_cast<std::uint32_t>(std::atoi(argv[2])) : 4;

  workload::FsParams fs;
  fs.initial_files = 32;
  fs.mean_file_bytes = 192 * 1024;
  fs.mutation.file_modify_prob = 0.4;
  workload::SingleUserSeries series(/*seed=*/2026, fs);

  EngineConfig cfg;
  DedupSystem sys(EngineKind::kDefrag, cfg);
  for (std::uint32_t g = 1; g <= weeks; ++g) {
    sys.ingest_as(g, series.next().stream);
  }
  const auto& base = dynamic_cast<const EngineBase&>(sys.engine());
  std::printf("%u weekly backups ingested: %s logical, %s physical (%.2fx)\n",
              weeks, format_bytes(sys.logical_bytes_ingested()).c_str(),
              format_bytes(sys.stored_bytes()).c_str(),
              sys.compression_ratio());

  // Pre-retirement scrub over the generations we intend to keep.
  std::vector<std::uint32_t> retained;
  for (std::uint32_t g = weeks - keep + 1; g <= weeks; ++g) retained.push_back(g);
  const IntegrityReport before_scrub =
      scrub(base.container_store(), base.recipe_store(), retained, cfg.disk);
  std::printf("pre-GC scrub: %llu entries, %s checked — %s\n",
              static_cast<unsigned long long>(before_scrub.entries_checked),
              format_bytes(before_scrub.bytes_checked).c_str(),
              before_scrub.clean() ? "clean" : "CORRUPT");

  // Retire everything but the last `keep` generations.
  Compactor compactor;
  ContainerStore fresh_store;
  RecipeStore fresh_recipes;
  DiskSim gc_sim(cfg.disk);
  const CompactionResult gc =
      compactor.compact(base.container_store(), base.recipe_store(), retained,
                        &fresh_store, &fresh_recipes, gc_sim);
  std::printf(
      "GC (keep last %u): reclaimed %s (%.1f%%), %zu -> %zu containers, "
      "%.2fs simulated\n",
      keep, format_bytes(gc.dead_bytes).c_str(),
      gc.reclaimed_fraction() * 100.0, gc.containers_before,
      gc.containers_after, gc.sim_seconds);

  const IntegrityReport after_scrub =
      scrub(fresh_store, fresh_recipes, retained, cfg.disk);
  std::printf("post-GC scrub: %s\n", after_scrub.clean() ? "clean" : "CORRUPT");

  RestoreOptions opt;
  opt.cache_containers = cfg.restore_cache_containers;
  Table t({"generation", "before_MB_s", "after_MB_s"});
  for (std::uint32_t g : retained) {
    const RestoreResult before = restore_with_strategy(
        base.container_store(), base.recipe_store().get(g), cfg.disk, opt,
        nullptr);
    const RestoreResult after = restore_with_strategy(
        fresh_store, fresh_recipes.get(g), cfg.disk, opt, nullptr);
    t.add_row({Table::integer(g), Table::num(before.read_mb_s(), 1),
               Table::num(after.read_mb_s(), 1)});
  }
  t.print();
  std::printf(
      "\nCompaction rewrote live chunks in newest-recipe order: retirement\n"
      "doubles as defragmentation for the backups that survive it.\n");
  return (before_scrub.clean() && after_scrub.clean()) ? 0 : 1;
}
