#include "core/parallel_ingest.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <future>
#include <optional>
#include <thread>

#include "chunking/chunker.h"
#include "chunking/segmenter.h"
#include "common/check.h"
#include "common/fingerprint.h"
#include "common/sha_mb.h"
#include "common/thread_pool.h"
#include "common/units.h"
#include "dedup/pipeline.h"
#include "index/paged_index.h"
#include "index/sharded_index.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/container.h"
#include "storage/container_store.h"
#include "storage/disk_model.h"
#include "storage/recipe.h"

namespace defrag {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// Abandons a held claim on unwind so kPending waiters never spin on a
/// claim whose append threw; dismissed on the publish that normally
/// follows the append immediately.
class ClaimGuard {
 public:
  ClaimGuard(ShardedPagedIndex& index, const Fingerprint& fp)
      : index_(index), fp_(fp) {}
  ~ClaimGuard() noexcept {
    if (armed_) index_.abandon_claim(fp_);
  }
  ClaimGuard(const ClaimGuard&) = delete;
  ClaimGuard& operator=(const ClaimGuard&) = delete;
  void dismiss() { armed_ = false; }

 private:
  ShardedPagedIndex& index_;
  const Fingerprint& fp_;
  bool armed_ = true;
};

/// A duplicate whose location was unknown when its chunk was processed
/// (the claimant had not published yet): its fingerprint, size and index
/// in the step's piece list (also its slot in the step's recipe entries).
struct PendingDup {
  Fingerprint fp;
  std::uint32_t size = 0;
  std::size_t piece = 0;
};

/// How long a stream end waits for another stream's in-flight claim before
/// declaring the process wedged. Claims publish microseconds after they
/// are observed pending; this bound only trips on a genuine liveness bug.
constexpr auto kPendingWaitLimit = std::chrono::seconds(120);

}  // namespace

double ParallelIngestResult::throughput_mb_s() const {
  return mb_per_sec(logical_bytes, wall_seconds);
}

ParallelIngestor::ParallelIngestor(const ParallelIngestParams& params)
    : params_(params),
      chunker_(make_chunker(params.chunker_kind, params.chunker)),
      index_(params.index_shards, params.index),
      store_(params.container_bytes, params.compress_containers) {
  // IngestStream's carry window is max_size: every chunk must fit it.
  params_.chunker.validate();
}

IngestStream ParallelIngestor::open_stream(Recipe* recipe) {
  return IngestStream(*this, recipe);
}

StreamIngestStats ParallelIngestor::ingest_stream(ByteView stream,
                                                  Recipe* recipe) {
  const obs::TraceSpan span("parallel_ingest.stream", "ingest");
  IngestStream s = open_stream(recipe);
  s.feed(stream);
  return s.finish();
}

IngestStream::IngestStream(ParallelIngestor& owner, Recipe* recipe)
    : owner_(&owner),
      recipe_(recipe),
      appender_(owner.store_.open_stream()),
      sim_(owner.params_.disk) {
  // With pipeline workers the stream gets its own SPSC pipeline (run() is
  // single-caller, so pipelines cannot be shared across streams);
  // otherwise it chunks and fingerprints synchronously on its own thread.
  if (owner.params_.pipeline_workers >= 1) {
    pipeline_ = std::make_unique<StreamPipeline>(
        *owner.chunker_, owner.params_.pipeline_workers,
        owner.params_.batch_chunks);
  }
  st_.stream = owner.next_stream_id_.fetch_add(1, std::memory_order_relaxed);
  carry_.reserve(owner.params_.chunker.max_size);
}

void IngestStream::feed(ByteView piece) {
  DEFRAG_CHECK_MSG(!finished_, "feed() after finish()");
  if (piece.empty()) return;
  const obs::TraceSpan span("parallel_ingest.feed", "ingest");
  const auto start = std::chrono::steady_clock::now();
  st_.logical_bytes += piece.size();
  step(piece, false);
  busy_seconds_ += seconds_since(start);
}

StreamIngestStats IngestStream::finish() {
  DEFRAG_CHECK_MSG(!finished_, "finish() called twice");
  const auto start = std::chrono::steady_clock::now();
  step(ByteView(), true);
  appender_.close();
  finished_ = true;
  DEFRAG_CHECK_MSG(charged_ == st_.pending_dup_chunks,
                   "charged published-location lookups != resolved "
                   "pending duplicates");
  // Chunking + fingerprinting CPU, charged like the serial engines: once,
  // from the total, so the clock does not depend on how the stream was cut.
  sim_.compute(static_cast<double>(st_.logical_bytes) / 1e6 /
               owner_->params_.cpu_mb_per_s);
  st_.io = sim_.stats();
  st_.sim_seconds = sim_.elapsed_seconds();
  busy_seconds_ += seconds_since(start);
  st_.wall_seconds = busy_seconds_;
  return st_;
}

void IngestStream::step(ByteView data, bool last) {
  const std::size_t max_size = owner_->params_.chunker.max_size;
  std::vector<Piece> pieces;  // terminated chunks, in stream order
  if (!carry_.empty()) {
    // The carry's chunk ends at most max_size bytes past its start, so the
    // carry plus enough new bytes to reach that point decides it.
    const std::size_t carried = carry_.size();
    const std::size_t take = std::min(data.size(), max_size - carried);
    carry_.insert(carry_.end(), data.begin(),
                  data.begin() + static_cast<std::ptrdiff_t>(take));
    std::vector<ChunkRef> refs;
    owner_->chunker_->split_to(ByteView(carry_),
                               [&](const ChunkRef& r) { refs.push_back(r); });
    if (!last && refs.size() == 1 && carry_.size() < max_size) {
      return;  // still unterminated; all of `data` joined the carry
    }
    if (!last) {
      DEFRAG_CHECK_MSG(refs.front().size >= carried,
                       "chunker placed a boundary inside the carry");
      refs.resize(1);  // later chunks are re-cut from `data` itself
      data = data.subspan(refs.front().size - carried);
    }
    for (const ChunkRef& r : refs) {
      pieces.push_back(
          Piece{Fingerprint{}, ByteView(carry_).subspan(r.offset, r.size)});
    }
  }
  const std::size_t from_carry = pieces.size();
  ByteView tail;
  if (!data.empty()) {
    if (pipeline_ != nullptr) {
      for (const StreamChunk& c : pipeline_->run(data)) {
        pieces.push_back(Piece{c.fp, data.subspan(c.stream_offset, c.size)});
      }
    } else {
      owner_->chunker_->split_to(data, [&](const ChunkRef& r) {
        pieces.push_back(Piece{Fingerprint{}, data.subspan(r.offset, r.size)});
      });
    }
    if (!last) {  // the final chunk may continue in the next piece
      tail = pieces.back().data;
      pieces.pop_back();
    }
  }
  // What the pipeline did not hash: the carry's chunks, or every chunk.
  fingerprint(pieces, pipeline_ != nullptr ? from_carry : pieces.size());
  st_.chunk_count += pieces.size();
  dedup(pieces);
  // Only now may the old carry go: the pieces above pointed into it.
  carry_.assign(tail.begin(), tail.end());
}

void IngestStream::fingerprint(std::vector<Piece>& pieces, std::size_t n) {
  if (n == 0) return;
  // Batched multi-buffer fingerprinting; the piece vector is stable while
  // the batch holds output pointers into it.
  simd::FingerprintBatch batch;
  for (std::size_t i = 0; i < n; ++i) batch.add(pieces[i].data, &pieces[i].fp);
  batch.flush();
  // Ingest threads run concurrently: shard + merge, same as the pipeline.
  obs::MetricsRegistry shard;
  auto& hist = shard.histogram("fingerprint.batch_size");
  for (const std::uint32_t s : batch.flush_sizes()) hist.observe(s);
  obs::MetricsRegistry::global().merge_from(shard);
}

void IngestStream::dedup(const std::vector<Piece>& pieces) {
  ShardedPagedIndex& index = owner_->index_;
  // Stream-ordered locations; pending duplicates get theirs at resolution.
  std::vector<RecipeEntry> entries;
  if (recipe_ != nullptr) entries.resize(pieces.size());
  std::vector<PendingDup> pending;

  for (std::size_t i = 0; i < pieces.size(); ++i) {
    const Piece& c = pieces[i];
    const auto size = static_cast<std::uint32_t>(c.data.size());
    ChunkLocation loc;
    const ShardedPagedIndex::ClaimResult claim =
        index.lookup_or_claim(c.fp, sim_);
    switch (claim.state) {
      case ShardedPagedIndex::ClaimState::kClaimed: {
        ClaimGuard guard(index, c.fp);
        loc = appender_.append(c.fp, c.data, kInvalidSegment, sim_);
        index.publish(c.fp, IndexValue{loc, kInvalidSegment}, sim_);
        guard.dismiss();
        ++st_.unique_chunks;
        st_.unique_bytes += size;
        break;
      }
      case ShardedPagedIndex::ClaimState::kPending:
        // The claimant has not published yet; queue the fingerprint and
        // resolve (and charge) its published-location lookup below.
        ++st_.pending_dup_chunks;
        pending.push_back(PendingDup{c.fp, size, i});
        ++st_.dup_chunks;
        st_.dup_bytes += size;
        break;
      case ShardedPagedIndex::ClaimState::kExisting:
        loc = claim.value.location;
        ++st_.dup_chunks;
        st_.dup_bytes += size;
        break;
    }
    if (recipe_ != nullptr) entries[i] = RecipeEntry{c.fp, loc};
  }

  // Resolve pending duplicates before this step's bytes go away: wait for
  // each claimant's publish (it lands chunk-by-chunk, microseconds after
  // the claim was observed) and pay the published-location lookup skipped
  // inline. If the claimant abandoned (unwound before publishing), contend
  // for the re-issued claim and store the chunk from this stream's bytes.
  const auto wait_start = std::chrono::steady_clock::now();
  for (const PendingDup& p : pending) {
    std::optional<ChunkLocation> loc;
    while (!loc.has_value()) {
      if (const std::optional<IndexValue> hit = index.peek(p.fp)) {
        index.lookup(p.fp, sim_);  // the charged lookup this dup skipped
        ++charged_;
        loc = hit->location;
        break;
      }
      if (!index.claim_pending(p.fp)) {
        // Claim abandoned (or published in between; the claim call below
        // re-tests). lookup_or_claim charges like the lookup either way.
        const ShardedPagedIndex::ClaimResult retry =
            index.lookup_or_claim(p.fp, sim_);
        ++charged_;
        if (retry.state == ShardedPagedIndex::ClaimState::kExisting) {
          loc = retry.value.location;
          break;
        }
        if (retry.state == ShardedPagedIndex::ClaimState::kClaimed) {
          ClaimGuard guard(index, p.fp);
          const ChunkLocation stored = appender_.append(
              p.fp, pieces[p.piece].data, kInvalidSegment, sim_);
          index.publish(p.fp, IndexValue{stored, kInvalidSegment}, sim_);
          guard.dismiss();
          // This chunk is unique after all — the original claimant never
          // stored it.
          ++st_.unique_chunks;
          st_.unique_bytes += p.size;
          --st_.dup_chunks;
          st_.dup_bytes -= p.size;
          --st_.pending_dup_chunks;
          --charged_;  // that was an append, not a dup-location lookup
          loc = stored;
          break;
        }
        // kPending again: another waiter re-claimed; keep waiting for its
        // publish (undo the speculative charge — the loop pays on success).
        --charged_;
      }
      DEFRAG_CHECK_MSG(
          std::chrono::steady_clock::now() - wait_start < kPendingWaitLimit,
          "pending duplicate's claimant neither published nor abandoned");
      std::this_thread::yield();
    }
    if (recipe_ != nullptr) entries[p.piece].location = *loc;
  }

  if (recipe_ != nullptr) {
    for (const RecipeEntry& e : entries) {
      DEFRAG_CHECK_MSG(e.location.valid(),
                       "recipe entry without a resolved location");
      recipe_->add(e.fp, e.location);
    }
  }
}

ParallelIngestResult ParallelIngestor::ingest(
    const std::vector<ByteView>& streams, std::vector<Recipe>* recipes) {
  const obs::TraceSpan span("parallel_ingest", "ingest");
  const auto wall_start = std::chrono::steady_clock::now();

  ParallelIngestResult res;
  res.streams.resize(streams.size());
  if (recipes != nullptr) {
    recipes->clear();
    recipes->resize(streams.size());
  }
  if (!streams.empty()) {
    ThreadPool pool(streams.size());
    std::vector<std::future<StreamIngestStats>> futures;
    futures.reserve(streams.size());
    for (std::size_t i = 0; i < streams.size(); ++i) {
      Recipe* recipe = recipes != nullptr ? &(*recipes)[i] : nullptr;
      futures.push_back(pool.submit([this, view = streams[i], recipe] {
        return ingest_stream(view, recipe);
      }));
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
      res.streams[i] = futures[i].get();
      // Report under the wave-stable position, not the ingestor-lifetime
      // stream id (batch callers label rows by position).
      res.streams[i].stream = i;
    }
  }
  res.wall_seconds = seconds_since(wall_start);

  std::uint64_t resolved = 0;
  auto& reg = obs::MetricsRegistry::global();
  for (const StreamIngestStats& st : res.streams) {
    res.logical_bytes += st.logical_bytes;
    res.chunk_count += st.chunk_count;
    res.unique_bytes += st.unique_bytes;
    res.dup_bytes += st.dup_bytes;
    resolved += st.pending_dup_chunks;
    reg.histogram("dedup.parallel.stream_wall_us")
        .observe(st.wall_seconds * 1e6);
  }
  reg.counter("dedup.parallel.ingests").add(1);
  reg.counter("dedup.parallel.streams").add(res.streams.size());
  reg.counter("dedup.parallel.logical_bytes").add(res.logical_bytes);
  reg.counter("dedup.parallel.chunks").add(res.chunk_count);
  reg.counter("dedup.parallel.unique_bytes").add(res.unique_bytes);
  reg.counter("dedup.parallel.dup_bytes").add(res.dup_bytes);
  reg.counter("dedup.parallel.pending_resolved").add(resolved);
  reg.gauge("dedup.parallel.last_throughput_mb_s").set(res.throughput_mb_s());

  // Every claim must have been published (or abandoned and re-resolved)
  // before the streams joined.
  DEFRAG_CHECK_MSG(index_.pending_claims() == 0,
                   "stream finished with unpublished claims");
  return res;
}

}  // namespace defrag
