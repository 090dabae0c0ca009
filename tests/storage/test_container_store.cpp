#include "storage/container_store.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "testing/data.h"

namespace defrag {
namespace {

TEST(ContainerStoreTest, RollsToNewContainerWhenFull) {
  ContainerStore store(128 * 1024);
  DiskSim sim;
  auto out = store.open_stream();
  const Bytes chunk = testing::random_bytes(50 * 1024, 50);
  // Three 50 KiB chunks into 128 KiB containers: the third must roll over.
  const auto l1 = out.append(Fingerprint::of(chunk), chunk, 0, sim);
  const auto l2 = out.append(Fingerprint::of(chunk), chunk, 0, sim);
  const auto l3 = out.append(Fingerprint::of(chunk), chunk, 0, sim);
  EXPECT_EQ(l1.container, 0u);
  EXPECT_EQ(l2.container, 0u);
  EXPECT_EQ(l3.container, 1u);
  EXPECT_EQ(store.container_count(), 2u);
  EXPECT_TRUE(store.peek(0).sealed());
  EXPECT_FALSE(store.peek(1).sealed());
}

TEST(ContainerStoreTest, AppendIsWriteBehind) {
  ContainerStore store;
  DiskSim sim;
  auto out = store.open_stream();
  const Bytes chunk = testing::random_bytes(4096, 51);
  out.append(Fingerprint::of(chunk), chunk, 0, sim);
  EXPECT_DOUBLE_EQ(sim.elapsed_seconds(), 0.0);
  EXPECT_EQ(sim.stats().bytes_written, 4096 + kContainerEntryBytes);
}

TEST(ContainerStoreTest, LoadChargesSeekAndTransfer) {
  ContainerStore store;
  DiskSim sim;
  auto out = store.open_stream();
  const Bytes chunk = testing::random_bytes(4096, 52);
  const auto loc = out.append(Fingerprint::of(chunk), chunk, 0, sim);
  out.close();

  DiskSim read_sim;
  const Container& c = store.load(loc.container, read_sim);
  EXPECT_EQ(read_sim.stats().seeks, 1u);
  EXPECT_EQ(read_sim.stats().bytes_read, c.data_bytes() + c.metadata_bytes());
  EXPECT_GT(read_sim.elapsed_seconds(), 0.0);
}

TEST(ContainerStoreTest, LoadMetadataChargesOnlyMetadata) {
  ContainerStore store;
  DiskSim sim;
  auto out = store.open_stream();
  const Bytes chunk = testing::random_bytes(4096, 53);
  const auto loc = out.append(Fingerprint::of(chunk), chunk, 7, sim);
  out.close();

  DiskSim meta_sim;
  const auto& entries = store.load_metadata(loc.container, meta_sim);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].segment, 7u);
  EXPECT_EQ(meta_sim.stats().seeks, 1u);
  EXPECT_EQ(meta_sim.stats().bytes_read, kContainerEntryBytes);
}

TEST(ContainerStoreTest, TotalDataBytes) {
  ContainerStore store;
  DiskSim sim;
  std::uint64_t expected = 0;
  auto out = store.open_stream();
  for (int i = 0; i < 10; ++i) {
    const Bytes chunk =
        testing::random_bytes(1000 + static_cast<std::size_t>(i), 54 + static_cast<std::uint64_t>(i));
    out.append(Fingerprint::of(chunk), chunk, 0, sim);
    expected += chunk.size();
  }
  out.close();
  EXPECT_EQ(store.total_data_bytes(), expected);
}

TEST(ContainerStoreTest, RejectsOversizedChunk) {
  ContainerStore store(64 * 1024);
  DiskSim sim;
  auto out = store.open_stream();
  const Bytes chunk = testing::random_bytes(65 * 1024, 55);
  EXPECT_THROW(out.append(Fingerprint::of(chunk), chunk, 0, sim),
               CheckFailure);
}

TEST(ContainerStoreTest, PeekRejectsUnknownId) {
  ContainerStore store;
  EXPECT_THROW(store.peek(0), CheckFailure);
}

TEST(ContainerStoreTest, OpenContainerTracking) {
  ContainerStore store;
  auto out = store.open_stream();
  // Opening allocates nothing: the first append creates container 0.
  EXPECT_EQ(store.container_count(), 0u);
  DiskSim sim;
  const Bytes chunk = testing::random_bytes(100, 56);
  EXPECT_EQ(out.append(Fingerprint::of(chunk), chunk, 0, sim).container, 0u);
  EXPECT_EQ(store.container_count(), 1u);
  EXPECT_FALSE(store.peek(0).sealed());
  EXPECT_FALSE(store.sealed_visible(0));
  out.close();
  EXPECT_TRUE(store.peek(0).sealed());
  EXPECT_TRUE(store.sealed_visible(0));
}

}  // namespace
}  // namespace defrag
