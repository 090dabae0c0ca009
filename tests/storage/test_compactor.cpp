#include "storage/compactor.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/sha256.h"
#include "core/dedup_system.h"
#include "dedup/restore_strategies.h"
#include "testing/data.h"
#include "testing/engine_config.h"
#include "workload/backup_series.h"

namespace defrag {
namespace {

/// Build a small multi-generation store through the DDFS engine and return
/// the system plus original stream digests.
struct Fixture {
  Fixture() : sys(EngineKind::kDdfs, testing::small_engine_config()) {
    workload::FsParams fs;
    fs.initial_files = 10;
    fs.mean_file_bytes = 48 * 1024;
    fs.mutation.file_modify_prob = 0.5;
    workload::SingleUserSeries series(9090, fs);
    for (std::uint32_t g = 1; g <= 5; ++g) {
      const auto b = series.next();
      digests.push_back(Sha256::hash(b.stream));
      sys.ingest_as(g, b.stream);
    }
  }

  const EngineBase& base() const {
    return dynamic_cast<const EngineBase&>(sys.engine());
  }

  DedupSystem sys;
  std::vector<Sha256::Digest> digests;
};

RestoreResult strategy_restore(const ContainerStore& store,
                               const Recipe& recipe, Bytes* out) {
  RestoreOptions opt;
  opt.cache_containers = 4;
  return restore_with_strategy(store, recipe, DiskModel{}, opt, out);
}

TEST(CompactorTest, RetainedGenerationsSurviveByteForByte) {
  Fixture fx;
  Compactor compactor;
  ContainerStore fresh_store;
  RecipeStore fresh_recipes;
  DiskSim sim;
  compactor.compact(fx.base().container_store(), fx.base().recipe_store(),
                    {3, 4, 5}, &fresh_store, &fresh_recipes, sim);

  for (std::uint32_t g : {3u, 4u, 5u}) {
    Bytes out;
    strategy_restore(fresh_store, fresh_recipes.get(g), &out);
    EXPECT_EQ(Sha256::hash(out), fx.digests[g - 1]) << "generation " << g;
  }
}

TEST(CompactorTest, DroppedGenerationsAreGone) {
  Fixture fx;
  Compactor compactor;
  ContainerStore fresh_store;
  RecipeStore fresh_recipes;
  DiskSim sim;
  compactor.compact(fx.base().container_store(), fx.base().recipe_store(),
                    {4, 5}, &fresh_store, &fresh_recipes, sim);
  EXPECT_FALSE(fresh_recipes.contains(1));
  EXPECT_FALSE(fresh_recipes.contains(3));
  EXPECT_TRUE(fresh_recipes.contains(5));
}

TEST(CompactorTest, ReclaimsDeadBytes) {
  Fixture fx;
  Compactor compactor;
  ContainerStore fresh_store;
  RecipeStore fresh_recipes;
  DiskSim sim;
  const CompactionResult r =
      compactor.compact(fx.base().container_store(), fx.base().recipe_store(),
                        {5}, &fresh_store, &fresh_recipes, sim);

  // Five churny generations retained down to one: there must be garbage.
  EXPECT_GT(r.dead_bytes, 0u);
  EXPECT_GT(r.reclaimed_fraction(), 0.0);
  EXPECT_EQ(r.live_bytes, fresh_store.total_data_bytes());
  EXPECT_LE(fresh_store.total_data_bytes(),
            fx.base().container_store().total_data_bytes());
  EXPECT_LE(r.containers_after, r.containers_before);
}

TEST(CompactorTest, CompactionRelinearizesNewestGeneration) {
  Fixture fx;
  const Recipe& old_recipe = fx.base().recipe_store().get(5);
  const RestoreResult before =
      strategy_restore(fx.base().container_store(), old_recipe, nullptr);

  Compactor compactor;
  ContainerStore fresh_store;
  RecipeStore fresh_recipes;
  DiskSim sim;
  compactor.compact(fx.base().container_store(), fx.base().recipe_store(),
                    {4, 5}, &fresh_store, &fresh_recipes, sim);

  const RestoreResult after =
      strategy_restore(fresh_store, fresh_recipes.get(5), nullptr);
  // Newest-recipe-first copy order makes generation 5 (near-)sequential.
  EXPECT_LE(after.container_loads, before.container_loads);
  EXPECT_LE(fresh_recipes.get(5).container_switches(),
            old_recipe.container_switches());
}

TEST(CompactorTest, ChargesReadsWritesAndSeeks) {
  Fixture fx;
  Compactor compactor;
  ContainerStore fresh_store;
  RecipeStore fresh_recipes;
  DiskSim sim;
  const CompactionResult r =
      compactor.compact(fx.base().container_store(), fx.base().recipe_store(),
                        {5}, &fresh_store, &fresh_recipes, sim);
  EXPECT_GT(r.io.seeks, 0u);
  EXPECT_GE(r.io.bytes_read, r.live_bytes);
  EXPECT_GE(r.io.bytes_written, r.live_bytes);
  EXPECT_GT(r.sim_seconds, 0.0);
}

TEST(CompactorTest, SharedChunksCopiedOnce) {
  // Two retained recipes referencing identical data must not duplicate the
  // chunks in the fresh store.
  DedupSystem sys(EngineKind::kDdfs, testing::small_engine_config());
  const Bytes stream = testing::random_bytes(256 * 1024, 9191);
  sys.ingest_as(1, stream);
  sys.ingest_as(2, stream);
  const auto& base = dynamic_cast<const EngineBase&>(sys.engine());

  Compactor compactor;
  ContainerStore fresh_store;
  RecipeStore fresh_recipes;
  DiskSim sim;
  const CompactionResult r = compactor.compact(
      base.container_store(), base.recipe_store(), {1, 2}, &fresh_store,
      &fresh_recipes, sim);
  EXPECT_EQ(r.live_bytes, stream.size());
}

TEST(CompactorTest, KeepsSourceCapacityAndCompression) {
  auto cfg = testing::small_engine_config();
  cfg.compress_containers = true;
  DedupSystem sys(EngineKind::kDdfs, cfg);
  workload::FsParams fs;
  fs.initial_files = 12;
  fs.mean_file_bytes = 64 * 1024;
  fs.text_fraction = 0.7;
  workload::SingleUserSeries series(9292, fs);
  std::vector<Sha256::Digest> digests;
  for (std::uint32_t g = 1; g <= 3; ++g) {
    const auto b = series.next();
    digests.push_back(Sha256::hash(b.stream));
    sys.ingest_as(g, b.stream);
  }
  const auto& base = dynamic_cast<const EngineBase&>(sys.engine());

  Compactor compactor;
  ContainerStore fresh_store;
  RecipeStore fresh_recipes;
  DiskSim sim;
  compactor.compact(base.container_store(), base.recipe_store(), {2, 3},
                    &fresh_store, &fresh_recipes, sim);

  EXPECT_EQ(fresh_store.container_capacity(), 256u * 1024u);
  EXPECT_TRUE(fresh_store.compress_on_seal());
  ASSERT_GT(fresh_store.container_count(), 1u);
  for (std::size_t id = 0; id < fresh_store.container_count(); ++id) {
    const Container& c = fresh_store.peek(static_cast<ContainerId>(id));
    EXPECT_TRUE(c.sealed());
    EXPECT_LE(c.data_bytes(), 256u * 1024u);
  }
  EXPECT_LT(fresh_store.total_stored_bytes(), fresh_store.total_data_bytes());
  for (std::uint32_t g : {2u, 3u}) {
    Bytes out;
    strategy_restore(fresh_store, fresh_recipes.get(g), &out);
    EXPECT_EQ(Sha256::hash(out), digests[g - 1]) << "generation " << g;
  }
}

TEST(CompactorTest, RejectsEmptyRetention) {
  Fixture fx;
  Compactor compactor;
  ContainerStore fresh_store;
  RecipeStore fresh_recipes;
  DiskSim sim;
  EXPECT_THROW(compactor.compact(fx.base().container_store(),
                                 fx.base().recipe_store(), {}, &fresh_store,
                                 &fresh_recipes, sim),
               CheckFailure);
}

}  // namespace
}  // namespace defrag
