#include "core/cbr_engine.h"

#include <unordered_map>
#include <unordered_set>

#include "chunking/segmenter.h"
#include "common/check.h"
#include "common/fingerprint.h"
#include "dedup/ddfs_engine.h"
#include "dedup/engine.h"
#include "index/paged_index.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/container.h"
#include "storage/container_store.h"
#include "storage/disk_model.h"
#include "storage/recipe.h"

namespace defrag {

CbrEngine::CbrEngine(const EngineConfig& cfg, const CbrParams& params)
    : DdfsEngine(cfg), params_(params) {
  DEFRAG_CHECK(params_.utilization_threshold >= 0.0);
  DEFRAG_CHECK(params_.rewrite_budget >= 0.0);
}

BackupResult CbrEngine::backup(std::uint32_t generation, ByteView stream) {
  const obs::TraceSpan span("backup", "engine");
  std::uint64_t contexts_seen = 0;
  std::uint64_t contexts_rewritten = 0;
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

  const auto budget_bytes = static_cast<std::uint64_t>(
      static_cast<double>(stream.size()) * params_.rewrite_budget);
  std::uint64_t rewritten_so_far = 0;
  // Read before the first append: the appender allocates lazily, so every
  // container this backup creates has an ID at or above this count.
  ContainerStore::StreamAppender out = store_.open_stream();
  const auto first_container_this_gen =
      static_cast<ContainerId>(store_.container_count());

  for (const SegmentRef& seg : segments) {
    const SegmentId seg_id = allocate_segment_id();

    // Pass 1 — classify and measure per-container context utilization.
    struct Verdict {
      bool local = false;
      std::optional<IndexValue> hit;
    };
    std::vector<Verdict> verdicts;
    verdicts.reserve(seg.chunk_count());
    std::unordered_map<ContainerId, std::uint64_t> context_bytes;
    std::unordered_set<Fingerprint> seen_in_segment;

    for (std::size_t i = seg.first; i < seg.last; ++i) {
      const StreamChunk& c = chunks[i];
      const bool truly_dup = ground_truth_duplicate(c.fp);
      if (truly_dup) res.redundant_bytes += c.size;

      if (!seen_in_segment.insert(c.fp).second) {
        verdicts.push_back(Verdict{true, std::nullopt});
        continue;
      }
      std::optional<IndexValue> hit = classify(c, sim);
      DEFRAG_CHECK_MSG(!hit || truly_dup, "CBR classify fabricated a dup");
      DEFRAG_CHECK_MSG(hit || !truly_dup, "CBR classify missed a dup");
      if (hit) context_bytes[hit->location.container] += c.size;
      verdicts.push_back(Verdict{false, std::move(hit)});
    }

    // Rewrite decision per referenced container: utilization below the
    // threshold marks its duplicates for rewriting (budget permitting).
    std::unordered_map<ContainerId, bool> rewrite;
    for (const auto& [cid, bytes] : context_bytes) {
      const bool fresh = cid >= first_container_this_gen;
      const double utilization =
          static_cast<double>(bytes) /
          static_cast<double>(store_.peek(cid).data_bytes());
      const bool marked =
          !fresh && utilization < params_.utilization_threshold;
      rewrite.emplace(cid, marked);
      ++contexts_seen;
      if (marked) ++contexts_rewritten;
    }

    // Pass 2 — emit.
    std::unordered_map<Fingerprint, ChunkLocation> resolved;
    for (std::size_t i = seg.first; i < seg.last; ++i) {
      const StreamChunk& c = chunks[i];
      const Verdict& v = verdicts[i - seg.first];

      if (v.local) {
        const auto it = resolved.find(c.fp);
        DEFRAG_CHECK(it != resolved.end());
        recipe.add(c.fp, it->second);
        res.removed_bytes += c.size;
        continue;
      }
      if (!v.hit) {
        const ChunkLocation loc = store_chunk(out, c, stream, seg_id, sim);
        recipe.add(c.fp, loc);
        resolved.emplace(c.fp, loc);
        res.unique_bytes += c.size;
        continue;
      }
      const bool want_rewrite = rewrite.at(v.hit->location.container) &&
                                rewritten_so_far + c.size <= budget_bytes;
      if (want_rewrite) {
        const ByteView data = stream.subspan(c.stream_offset, c.size);
        const ChunkLocation loc = out.append(c.fp, data, seg_id, sim);
        index_.update(c.fp, IndexValue{loc, seg_id}, sim);
        recipe.add(c.fp, loc);
        resolved.emplace(c.fp, loc);
        res.rewritten_bytes += c.size;
        rewritten_so_far += c.size;
      } else {
        recipe.add(c.fp, v.hit->location);
        resolved.emplace(c.fp, v.hit->location);
        res.removed_bytes += c.size;
      }
    }
  }
  out.close();

  res.io = sim.stats();
  res.sim_seconds = sim.elapsed_seconds();
  {
    auto& reg = obs::MetricsRegistry::global();
    const std::string& p = metrics_prefix();
    reg.counter(p + "context_containers").add(contexts_seen);
    reg.counter(p + "rewrite_containers").add(contexts_rewritten);
  }
  record_backup_metrics(res);
  record_lookup_metrics();
  return res;
}

}  // namespace defrag
