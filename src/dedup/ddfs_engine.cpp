#include "dedup/ddfs_engine.h"

#include "chunking/segmenter.h"
#include "common/check.h"
#include "dedup/engine.h"
#include "index/paged_index.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/container.h"
#include "storage/container_store.h"
#include "storage/disk_model.h"
#include "storage/recipe.h"

namespace defrag {

namespace {
// Summary-vector sizing: generous capacity at 1% target FP rate, as DDFS
// recommends. The filter never needs resizing within a run.
constexpr std::uint64_t kBloomCapacity = 8u << 20;
constexpr double kBloomFpRate = 0.01;
}  // namespace

DdfsEngine::DdfsEngine(const EngineConfig& cfg)
    : EngineBase(cfg),
      index_(cfg.index),
      bloom_(kBloomCapacity, kBloomFpRate),
      metadata_cache_(cfg.metadata_cache_containers) {}

std::optional<IndexValue> DdfsEngine::classify(const StreamChunk& chunk,
                                               DiskSim& sim) {
  // 1. Locality-preserved cache: free RAM hit.
  if (const auto hit = metadata_cache_.find(chunk.fp)) {
    return IndexValue{
        ChunkLocation{hit->container, hit->entry->offset, hit->entry->size},
        hit->entry->segment};
  }

  // 2. Summary vector: a negative proves the chunk is new — no disk touched.
  if (!bloom_.may_contain(chunk.fp)) return std::nullopt;

  // 3. Full index on disk: pays a seek unless the page is cached.
  const std::optional<IndexValue> hit = index_.lookup(chunk.fp, sim);
  if (!hit) return std::nullopt;  // Bloom false positive

  // Locality-preserved caching: pull the owning container's metadata section
  // so this chunk's neighbours (likely the stream's next duplicates) dedup
  // from RAM.
  const auto& entries = store_.load_metadata(hit->location.container, sim);
  metadata_cache_.insert(hit->location.container, entries);
  return hit;
}

ChunkLocation DdfsEngine::store_chunk(ContainerStore::StreamAppender& out,
                                      const StreamChunk& chunk,
                                      ByteView stream, SegmentId segment,
                                      DiskSim& sim) {
  const ByteView data = stream.subspan(chunk.stream_offset, chunk.size);
  const ChunkLocation loc = out.append(chunk.fp, data, segment, sim);
  bloom_.insert(chunk.fp);
  index_.insert(chunk.fp, IndexValue{loc, segment}, sim);
  return loc;
}

void DdfsEngine::record_lookup_metrics() {
  auto& reg = obs::MetricsRegistry::global();
  reg.gauge("dedup.metadata_cache.hits")
      .set(static_cast<double>(metadata_cache_.hits()));
  reg.gauge("dedup.metadata_cache.misses")
      .set(static_cast<double>(metadata_cache_.misses()));
  reg.gauge("dedup.metadata_cache.containers")
      .set(static_cast<double>(metadata_cache_.container_count()));
  reg.gauge("index.bloom.fill_ratio").set(bloom_.fill_ratio());
}

BackupResult DdfsEngine::backup(std::uint32_t generation, ByteView stream) {
  const obs::TraceSpan span("backup", "engine");
  DiskSim sim(cfg_.disk);
  BackupResult res;
  res.generation = generation;
  res.logical_bytes = stream.size();

  const std::vector<StreamChunk> chunks = prepare_chunks(stream);
  charge_compute(sim, stream.size());
  res.chunk_count = chunks.size();

  const std::vector<SegmentRef> segments = segmenter_.segment(chunks);
  res.segment_count = segments.size();

  Recipe& recipe = recipes_.create(generation, name());
  ContainerStore::StreamAppender out = store_.open_stream();

  for (const SegmentRef& seg : segments) {
    const SegmentId seg_id = allocate_segment_id();
    for (std::size_t i = seg.first; i < seg.last; ++i) {
      const StreamChunk& c = chunks[i];
      const bool truly_dup = ground_truth_duplicate(c.fp);
      if (truly_dup) res.redundant_bytes += c.size;

      const std::optional<IndexValue> dup = classify(c, sim);
      if (dup) {
        DEFRAG_CHECK_MSG(truly_dup, "classify() claimed a new chunk is dup");
        recipe.add(c.fp, dup->location);
        res.removed_bytes += c.size;
      } else {
        // DDFS is exact: classify() only misses when the chunk is truly new.
        DEFRAG_CHECK_MSG(!truly_dup, "exact engine missed a duplicate");
        const ChunkLocation loc = store_chunk(out, c, stream, seg_id, sim);
        recipe.add(c.fp, loc);
        res.unique_bytes += c.size;
      }
    }
  }
  out.close();

  res.io = sim.stats();
  res.sim_seconds = sim.elapsed_seconds();
  record_backup_metrics(res);
  record_lookup_metrics();
  return res;
}

}  // namespace defrag
