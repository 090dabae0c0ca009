#include "core/defrag_engine.h"

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

namespace {
/// Pass-1 classification of one chunk within a segment.
struct Verdict {
  enum class Kind {
    kNew,    // never stored: write it
    kDup,    // stored copy exists; `value` names it
    kLocal,  // repeats an earlier chunk of this same segment
  };
  Kind kind = Kind::kNew;
  IndexValue value;
};
}  // namespace

DefragEngine::DefragEngine(const EngineConfig& cfg) : DdfsEngine(cfg) {
  DEFRAG_CHECK_MSG(cfg.defrag_alpha >= 0.0, "alpha must be non-negative");
}

BackupResult DefragEngine::backup(std::uint32_t generation, ByteView stream) {
  const obs::TraceSpan span("backup", "engine");
  // SPL decision telemetry, resolved once per backup: the distribution of
  // per-bin SPL values and of their margin against alpha (both in permille,
  // so the log2 buckets resolve the [0, 1] range), plus bin verdict totals.
  auto& reg = obs::MetricsRegistry::global();
  const std::string& prefix = metrics_prefix();
  obs::Histogram& spl_hist = reg.histogram(prefix + "spl_permille");
  obs::Histogram& margin_hist = reg.histogram(prefix + "alpha_margin_permille");
  DiskSim sim(cfg_.disk);
  BackupResult res;
  res.generation = generation;
  res.logical_bytes = stream.size();
  decisions_ = DefragDecisionStats{};

  const std::vector<StreamChunk> chunks = prepare_chunks(stream);
  charge_compute(sim, stream.size());
  res.chunk_count = chunks.size();

  const std::vector<SegmentRef> raw_segments = segmenter_.segment(chunks);
  res.segment_count = raw_segments.size();

  // FGDEFRAG-style grouping: merge every `defrag_group_segments` consecutive
  // segments into one SPL decision unit (width 1 = the paper's DeFrag).
  std::vector<SegmentRef> segments;
  const std::size_t width = std::max<std::size_t>(1, cfg_.defrag_group_segments);
  segments.reserve(raw_segments.size() / width + 1);
  for (std::size_t s = 0; s < raw_segments.size(); s += width) {
    SegmentRef merged = raw_segments[s];
    const std::size_t end = std::min(raw_segments.size(), s + width);
    for (std::size_t t = s + 1; t < end; ++t) {
      merged.last = raw_segments[t].last;
      merged.bytes += raw_segments[t].bytes;
    }
    segments.push_back(merged);
  }

  Recipe& recipe = recipes_.create(generation, name());

  // Containers created by this very backup hold chunks that are already
  // co-located with the incoming stream; duplicates resolving there are
  // kept regardless of SPL (rewriting them buys no locality). Read before
  // the first append: the appender allocates lazily.
  ContainerStore::StreamAppender out = store_.open_stream();
  const auto first_container_this_gen =
      static_cast<ContainerId>(store_.container_count());

  for (const SegmentRef& seg : segments) {
    const SegmentId seg_id = allocate_segment_id();

    // Pass 1 — classify every chunk through the DDFS machinery (this is
    // where the lookup I/O is charged) and bin distinct duplicates by the
    // stored placement unit — the container holding their existing copy,
    // i.e. what one disk seek retrieves (the premise of paper Eq. 2).
    std::vector<Verdict> verdicts;
    verdicts.reserve(seg.chunk_count());
    std::unordered_map<ContainerId, std::size_t> bin_sizes;
    std::unordered_set<Fingerprint> seen_in_segment;

    for (std::size_t i = seg.first; i < seg.last; ++i) {
      const StreamChunk& c = chunks[i];
      const bool truly_dup = ground_truth_duplicate(c.fp);
      if (truly_dup) res.redundant_bytes += c.size;

      if (!seen_in_segment.insert(c.fp).second) {
        // A repeat within this very segment: whatever the first occurrence
        // resolves to is already co-located — always reference it.
        verdicts.push_back(Verdict{Verdict::Kind::kLocal, {}});
        continue;
      }

      std::optional<IndexValue> hit = classify(c, sim);
      DEFRAG_CHECK_MSG(!hit || truly_dup,
                       "classify() claimed a new chunk is dup");
      DEFRAG_CHECK_MSG(hit || !truly_dup, "exact engine missed a duplicate");
      if (hit) {
        ++bin_sizes[hit->location.container];
        verdicts.push_back(Verdict{Verdict::Kind::kDup, *hit});
      } else {
        verdicts.push_back(Verdict{Verdict::Kind::kNew, {}});
      }
    }

    // SPL per (m, k) bin (paper Eq. 2): the fraction of this segment
    // retrievable with the single seek that fetches placement unit k.
    const auto seg_chunks = static_cast<double>(seg.chunk_count());
    std::unordered_map<ContainerId, bool> rewrite_bin;
    if (!bin_sizes.empty()) ++decisions_.segments_with_dups;
    for (const auto& [k, shared] : bin_sizes) {
      const double spl = static_cast<double>(shared) / seg_chunks;
      const bool fresh = k >= first_container_this_gen;
      const bool rewrite = !fresh && spl < cfg_.defrag_alpha;
      rewrite_bin.emplace(k, rewrite);
      ++decisions_.bins_total;
      decisions_.spl_sum += spl;
      if (rewrite) ++decisions_.bins_rewritten;
      spl_hist.observe(spl * 1000.0);
      margin_hist.observe((spl - cfg_.defrag_alpha) * 1000.0);
    }

    // Pass 2 — emit in stream order. Unique chunks and rewritten duplicates
    // are placed sequentially under this segment's id; kept duplicates are
    // referenced where they already live.
    std::unordered_map<Fingerprint, ChunkLocation> resolved;
    for (std::size_t i = seg.first; i < seg.last; ++i) {
      const StreamChunk& c = chunks[i];
      const Verdict& v = verdicts[i - seg.first];

      switch (v.kind) {
        case Verdict::Kind::kNew: {
          const ChunkLocation loc = store_chunk(out, c, stream, seg_id, sim);
          recipe.add(c.fp, loc);
          resolved.emplace(c.fp, loc);
          res.unique_bytes += c.size;
          break;
        }
        case Verdict::Kind::kDup: {
          if (rewrite_bin.at(v.value.location.container)) {
            // Low SPL: keeping the reference would cost a far-away seek for
            // a sliver of the segment. Rewrite the chunk next to its stream
            // neighbours and repoint the index at the better-located copy.
            const ByteView data = stream.subspan(c.stream_offset, c.size);
            const ChunkLocation loc = out.append(c.fp, data, seg_id, sim);
            index_.update(c.fp, IndexValue{loc, seg_id}, sim);
            recipe.add(c.fp, loc);
            resolved.emplace(c.fp, loc);
            res.rewritten_bytes += c.size;
          } else {
            recipe.add(c.fp, v.value.location);
            resolved.emplace(c.fp, v.value.location);
            res.removed_bytes += c.size;
          }
          break;
        }
        case Verdict::Kind::kLocal: {
          const auto it = resolved.find(c.fp);
          DEFRAG_CHECK_MSG(it != resolved.end(),
                           "local repeat before first occurrence");
          recipe.add(c.fp, it->second);
          res.removed_bytes += c.size;
          break;
        }
      }
    }
  }
  out.close();

  res.io = sim.stats();
  res.sim_seconds = sim.elapsed_seconds();
  reg.counter(prefix + "spl_bins").add(decisions_.bins_total);
  reg.counter(prefix + "rewrite_bins").add(decisions_.bins_rewritten);
  reg.counter(prefix + "segments_with_dups").add(decisions_.segments_with_dups);
  record_backup_metrics(res);
  record_lookup_metrics();
  return res;
}

}  // namespace defrag
