// Parallel ingest fast path: N backup streams deduplicated concurrently
// against one shared store.
//
// Each stream runs with its own DiskSim (streams model independent backup
// clients; simulated time is per-stream, wall-clock speedup is what
// multi-streaming buys). The shared metadata path is the lock-striped
// ShardedPagedIndex; the shared data path is the ContainerStore's
// StreamAppender, which gives every stream a private open container so
// placement stays sequential *per stream*.
//
// Dedup across concurrent streams uses the index's claim/publish protocol:
// a chunk's first claimant appends and publishes it; every other stream
// sees kExisting or kPending and counts the chunk as a duplicate. Exactly
// one stream wins any fingerprint, so total unique bytes is deterministic
// under any interleaving. A kPending duplicate cannot pay the published-
// location lookup inline (the claimant has not published yet, and blocking
// on it would serialize the streams), so its fingerprint is queued; at
// the end of the piece it arrived in (see IngestStream) the stream waits
// for each queued claim's publish (claims are
// published chunk-by-chunk, microseconds after they are observed pending)
// and then pays the published-location lookup it skipped — so recipe-grade
// location metadata is available for every duplicate and the charged
// lookup count exactly equals the resolved-duplicate count (checked). If a
// claimant unwinds without publishing, its claim is abandoned and exactly
// one waiter re-claims and stores the chunk itself, so waiters never hang
// on a dead claim.
//
// Entry points:
//  - ingest(streams): the one-shot batch API — spawns one thread per
//    stream, joins them all, returns aggregate stats. Single caller at a
//    time per ingestor.
//  - open_stream(recipe): the service API — an IngestStream takes the
//    stream in pieces as they arrive; the defrag-serve session feeds it
//    each BACKUP_DATA frame (src/service/session.h). With a non-null
//    `recipe` it records one entry per chunk in stream order with a
//    published location for every duplicate, making the stream
//    restore-grade via dedup/restore_strategies.h.
//  - ingest_stream(stream, recipe): open_stream + one feed() + finish().
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "chunking/chunker.h"
#include "common/fingerprint.h"
#include "dedup/pipeline.h"
#include "index/paged_index.h"
#include "index/sharded_index.h"
#include "storage/container_store.h"
#include "storage/disk_model.h"
#include "storage/recipe.h"

namespace defrag {

struct ParallelIngestParams {
  ChunkerKind chunker_kind = ChunkerKind::kGear;
  ChunkerParams chunker;
  std::uint64_t container_bytes = 4ull << 20;
  bool compress_containers = false;
  PagedIndexParams index;
  /// Lock stripes in the shared index (power of two).
  std::size_t index_shards = ShardedPagedIndex::kDefaultShards;
  /// Per-stream SPSC fingerprint pipeline workers; 0 = each stream chunks
  /// and fingerprints synchronously on its own thread.
  std::size_t pipeline_workers = 0;
  /// Chunks per pipeline batch (when pipeline_workers >= 1).
  std::size_t batch_chunks = 256;
  DiskModel disk;
  /// Combined chunking+fingerprinting rate used to charge simulated CPU.
  double cpu_mb_per_s = 220.0;
};

/// Per-stream outcome of one ingest() / ingest_stream() call.
struct StreamIngestStats {
  std::size_t stream = 0;
  std::uint64_t logical_bytes = 0;
  std::uint64_t chunk_count = 0;
  std::uint64_t unique_chunks = 0;
  std::uint64_t unique_bytes = 0;
  std::uint64_t dup_chunks = 0;
  std::uint64_t dup_bytes = 0;
  /// Duplicates resolved against another stream's in-flight claim
  /// (kPending) rather than a published entry. Their published-location
  /// lookups are charged to this stream's sim at stream end, so `io` and
  /// `sim_seconds` include them.
  std::uint64_t pending_dup_chunks = 0;
  IoStats io;
  double sim_seconds = 0.0;
  double wall_seconds = 0.0;
};

struct ParallelIngestResult {
  std::vector<StreamIngestStats> streams;
  std::uint64_t logical_bytes = 0;
  std::uint64_t chunk_count = 0;
  std::uint64_t unique_bytes = 0;
  std::uint64_t dup_bytes = 0;
  /// Wall-clock time of the whole ingest() call (all streams).
  double wall_seconds = 0.0;

  /// Aggregate wall-clock ingest throughput (MB/s over all streams).
  double throughput_mb_s() const;
};

class IngestStream;

class ParallelIngestor {
 public:
  explicit ParallelIngestor(const ParallelIngestParams& params = {});

  /// Ingest all streams concurrently (one thread per stream). Blocks until
  /// every stream finished; rethrows the first stream failure. One caller
  /// at a time per ingestor (it owns the worker pool for the call); use
  /// ingest_stream() for externally threaded callers. With a non-null
  /// `recipes` the vector is resized to streams.size() and recipes[i]
  /// receives stream i's restore-grade recipe.
  ParallelIngestResult ingest(const std::vector<ByteView>& streams,
                              std::vector<Recipe>* recipes = nullptr);

  /// Open one incremental stream. Thread-safe: streams may be opened and
  /// fed concurrently from any number of threads, arriving at arbitrary
  /// times. `recipe`, when non-null, must outlive the stream.
  IngestStream open_stream(Recipe* recipe = nullptr);

  /// Ingest one whole stream on the calling thread: open_stream(), one
  /// feed(), finish(). Thread-safe like open_stream(). When `recipe` is
  /// non-null it receives one entry per chunk (stream order, published
  /// locations), so the caller can restore the stream bit-identically with
  /// restore_with_strategy(); the stream's own containers are sealed
  /// before the call returns.
  StreamIngestStats ingest_stream(ByteView stream, Recipe* recipe = nullptr);

  const ShardedPagedIndex& index() const { return index_; }
  const ContainerStore& store() const { return store_; }
  const ParallelIngestParams& params() const { return params_; }

 private:
  friend class IngestStream;

  ParallelIngestParams params_;
  std::unique_ptr<Chunker> chunker_;
  ShardedPagedIndex index_;
  ContainerStore store_;
  /// Stream ids for stats attribution; monotonically increasing across the
  /// ingestor's lifetime (service sessions interleave arbitrarily).
  std::atomic<std::size_t> next_stream_id_{0};
};

/// One backup stream ingested piece by piece. Boundaries of the gear,
/// rabin and fixed chunkers depend only on the bytes from a chunk's start
/// (never on where the stream was cut into pieces), so between pieces the
/// stream keeps only its last, possibly unterminated chunk — the carry, at
/// most `chunker.max_size` bytes — and re-splits it with the next piece's
/// first bytes. The chunks, recipe entries, StreamIngestStats (simulated
/// clock included) and containers are exactly those of one feed() of the
/// whole stream, however it was cut.
///
/// Each feed() chunks, fingerprints and deduplicates its terminated chunks
/// before returning — including waiting out the kPending duplicates it met
/// and re-storing any whose claimant abandoned — so the caller may release
/// the piece's bytes as soon as feed() returns. Chunking + fingerprinting
/// CPU is charged once, in finish(), from the stream's total bytes.
///
/// The stream's containers stay open between pieces; a restore that
/// references one waits in ContainerStore::wait_sealed until finish() or
/// destruction seals it. Destroying an unfinished stream (the writer
/// failed or went away) seals through the appender's non-injecting
/// finish() and commits nothing; chunks already stored stay in the store
/// and index. One thread at a time per stream.
class IngestStream {
 public:
  IngestStream(IngestStream&&) noexcept = default;
  IngestStream& operator=(IngestStream&&) = delete;
  IngestStream(const IngestStream&) = delete;
  IngestStream& operator=(const IngestStream&) = delete;
  ~IngestStream() noexcept = default;

  /// Ingest the next piece of the stream. Empty pieces are no-ops.
  void feed(ByteView piece);

  /// Ingest the carry, seal the stream's containers and return its stats
  /// (`wall_seconds` is the busy time inside feed() and finish()). Call
  /// once; no feed() after it.
  StreamIngestStats finish();

  /// Stream bytes this object holds between feeds (the carry's buffer).
  std::uint64_t buffered_bytes() const { return carry_.capacity(); }

 private:
  friend class ParallelIngestor;
  IngestStream(ParallelIngestor& owner, Recipe* recipe);

  /// A terminated chunk whose bytes are alive for the current step.
  struct Piece {
    Fingerprint fp;
    ByteView data;
  };

  /// Chunk `data` behind the carry; with `last` the carry and every chunk
  /// are terminated, otherwise the final chunk becomes the new carry.
  void step(ByteView data, bool last);
  /// Fingerprint the first `n` pieces in one multi-buffer batch.
  void fingerprint(std::vector<Piece>& pieces, std::size_t n);
  /// Claim/append/publish every piece, resolve the pending duplicates met
  /// and record recipe entries.
  void dedup(const std::vector<Piece>& pieces);

  ParallelIngestor* owner_;
  Recipe* recipe_;
  std::unique_ptr<StreamPipeline> pipeline_;  // when pipeline_workers >= 1
  ContainerStore::StreamAppender appender_;
  DiskSim sim_;
  StreamIngestStats st_;
  /// Published-location lookups paid for resolved pending duplicates.
  std::uint64_t charged_ = 0;
  Bytes carry_;
  double busy_seconds_ = 0.0;
  bool finished_ = false;
};

}  // namespace defrag
