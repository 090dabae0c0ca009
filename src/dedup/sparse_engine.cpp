#include "dedup/sparse_engine.h"

#include <algorithm>

#include "chunking/segmenter.h"
#include "common/check.h"
#include "common/fingerprint.h"
#include "dedup/engine.h"
#include "index/similarity_index.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/container.h"
#include "storage/container_store.h"
#include "storage/disk_model.h"
#include "storage/recipe.h"

namespace defrag {

SparseEngine::SparseEngine(const EngineConfig& cfg,
                           const SparseIndexingParams& params)
    : EngineBase(cfg), params_(params) {
  DEFRAG_CHECK(params_.sample_bits <= 20);
  DEFRAG_CHECK(params_.max_champions >= 1);
  DEFRAG_CHECK(params_.max_segments_per_hook >= 1);
}

std::vector<SegmentId> SparseEngine::elect_champions(
    const std::vector<StreamChunk>& chunks, const SegmentRef& seg) const {
  std::unordered_map<SegmentId, std::size_t> votes;
  auto vote_for = [&](const Fingerprint& fp) {
    auto it = hooks_.find(fp);
    if (it == hooks_.end()) return;
    for (SegmentId s : it->second) ++votes[s];
  };
  for (std::size_t i = seg.first; i < seg.last; ++i) {
    if (is_hook(chunks[i].fp)) vote_for(chunks[i].fp);
  }
  // The segment's minhash representative is always a hook, so even segments
  // whose bit-sampled hook set is empty (short segments, coarse sampling)
  // remain discoverable.
  vote_for(representative_fingerprint(chunks, seg));

  std::vector<std::pair<std::size_t, SegmentId>> ranked;
  ranked.reserve(votes.size());
  for (const auto& [s, v] : votes) ranked.emplace_back(v, s);
  // Most votes first; ties broken toward the newest segment (higher id),
  // whose placement is the least de-linearized.
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second > b.second;
  });

  std::vector<SegmentId> champions;
  for (const auto& [v, s] : ranked) {
    champions.push_back(s);
    if (champions.size() >= params_.max_champions) break;
  }
  return champions;
}

BackupResult SparseEngine::backup(std::uint32_t generation, ByteView stream) {
  const obs::TraceSpan span("backup", "engine");
  DiskSim sim(cfg_.disk);
  BackupResult res;
  res.generation = generation;
  res.logical_bytes = stream.size();
  decisions_ = SparseDecisionStats{};

  const std::vector<StreamChunk> chunks = prepare_chunks(stream);
  charge_compute(sim, stream.size());
  res.chunk_count = chunks.size();

  const std::vector<SegmentRef> segments = segmenter_.segment(chunks);
  res.segment_count = segments.size();

  Recipe& recipe = recipes_.create(generation, name());
  ContainerStore::StreamAppender out = store_.open_stream();

  for (const SegmentRef& seg : segments) {
    const SegmentId seg_id = allocate_segment_id();
    ++decisions_.segments;

    // Champion election + manifest loads (the only lookup I/O this scheme
    // ever pays: no Bloom filter, no full index).
    const std::vector<SegmentId> champions = elect_champions(chunks, seg);
    if (champions.empty()) ++decisions_.segments_without_champion;

    std::unordered_map<Fingerprint, ChunkLocation> candidate;
    for (SegmentId champ : champions) {
      const SegmentManifest& m = manifests_.at(champ);
      sim.seek();
      sim.read(m.metadata_bytes());
      ++decisions_.manifests_loaded;
      for (const auto& [fp, loc] : m.entries) candidate.emplace(fp, loc);
    }

    SegmentManifest manifest;
    manifest.id = seg_id;
    manifest.entries.reserve(seg.chunk_count());

    for (std::size_t i = seg.first; i < seg.last; ++i) {
      const StreamChunk& c = chunks[i];
      const bool truly_dup = ground_truth_duplicate(c.fp);
      if (truly_dup) res.redundant_bytes += c.size;

      ChunkLocation loc;
      if (auto it = candidate.find(c.fp); it != candidate.end()) {
        DEFRAG_CHECK_MSG(truly_dup, "champion matched a chunk never stored");
        loc = it->second;
        res.removed_bytes += c.size;
      } else {
        const ByteView data = stream.subspan(c.stream_offset, c.size);
        loc = out.append(c.fp, data, seg_id, sim);
        if (truly_dup) {
          res.missed_dup_bytes += c.size;
        } else {
          res.unique_bytes += c.size;
        }
        // Newly placed chunks dedup intra-segment repeats for free.
        candidate.emplace(c.fp, loc);
      }

      recipe.add(c.fp, loc);
      manifest.entries.emplace_back(c.fp, loc);

      if (is_hook(c.fp)) {
        ++decisions_.hook_count;
        auto& list = hooks_[c.fp];
        // Newest first; bounded per hook as in FAST'09.
        list.insert(list.begin(), seg_id);
        if (list.size() > params_.max_segments_per_hook) list.pop_back();
      }
    }
    // Register the guaranteed hook (see elect_champions).
    auto& rep_list = hooks_[representative_fingerprint(chunks, seg)];
    if (rep_list.empty() || rep_list.front() != seg_id) {
      rep_list.insert(rep_list.begin(), seg_id);
      if (rep_list.size() > params_.max_segments_per_hook) rep_list.pop_back();
    }

    manifests_.emplace(seg_id, std::move(manifest));
    // Manifest writes are sequential log appends.
    sim.write_behind(manifests_.at(seg_id).metadata_bytes());
  }
  out.close();

  res.io = sim.stats();
  res.sim_seconds = sim.elapsed_seconds();
  {
    auto& reg = obs::MetricsRegistry::global();
    const std::string& p = metrics_prefix();
    reg.counter(p + "manifests_loaded").add(decisions_.manifests_loaded);
    reg.counter(p + "segments_without_champion")
        .add(decisions_.segments_without_champion);
    reg.counter(p + "hooks").add(decisions_.hook_count);
  }
  record_backup_metrics(res);
  return res;
}

}  // namespace defrag
