// DDFS-Like engine: exact inline deduplication in the style of Zhu et al.
// (FAST'08) — summary vector (Bloom filter) + on-disk full chunk index +
// locality-preserved caching of container fingerprint metadata.
//
// Lookup path per chunk:
//   1. metadata cache (RAM, free)            — hit: duplicate, no I/O;
//   2. Bloom filter (RAM, free)              — negative: definitely new;
//   3. on-disk paged index (seek on page-cache miss)
//        - found: duplicate; prefetch the owning container's metadata
//          section (one more seek) so the chunk's neighbours dedup from RAM;
//        - absent (Bloom false positive): new.
//
// As placement de-linearizes across generations, a stream's duplicates
// scatter over more containers, each metadata prefetch covers fewer
// subsequent chunks, and throughput decays — the effect of paper Fig. 2.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "chunking/segmenter.h"
#include "dedup/engine.h"
#include "dedup/metadata_cache.h"
#include "index/bloom_filter.h"
#include "index/paged_index.h"
#include "storage/container.h"
#include "storage/container_store.h"
#include "storage/disk_model.h"

namespace defrag {

class DdfsEngine : public EngineBase {
 public:
  explicit DdfsEngine(const EngineConfig& cfg);

  std::string name() const override { return "DDFS-Like"; }

  BackupResult backup(std::uint32_t generation, ByteView stream) override;

  const PagedIndex& index() const { return index_; }
  const BloomFilter& bloom() const { return bloom_; }
  const MetadataCache& metadata_cache() const { return metadata_cache_; }

 protected:
  /// Classify one chunk, charging lookup I/O. Returns the stored location
  /// if duplicate, nullopt if new. Shared with DeFrag (which layers its
  /// rewrite decision on this exact machinery).
  std::optional<IndexValue> classify(const StreamChunk& chunk, DiskSim& sim);

  /// Write a chunk as new data through the backup's appender and publish
  /// it in bloom + index.
  ChunkLocation store_chunk(ContainerStore::StreamAppender& out,
                            const StreamChunk& chunk, ByteView stream,
                            SegmentId segment, DiskSim& sim);

  /// Publish cumulative lookup-path state (metadata-cache hit/miss totals,
  /// bloom fill ratio) as gauges. Called after every backup, including by
  /// the derived DeFrag and CBR engines.
  void record_lookup_metrics();

  PagedIndex index_;
  BloomFilter bloom_;
  MetadataCache metadata_cache_;
};

}  // namespace defrag
