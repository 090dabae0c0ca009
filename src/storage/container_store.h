// Append-only container store: the simulated disk's data log.
//
// Writers stream chunks into the open container; when it fills it is sealed
// and flushed (sequential write, charged to the caller's DiskSim). Readers
// load whole containers or just their metadata sections, each costing one
// seek plus the transfer.
//
// Every write goes through a StreamAppender opened with open_stream(): an
// engine's backup, a compaction sweep and each concurrent ingest stream
// alike. An appender owns a private open container and appends to it
// without touching the store lock; only rolling to a fresh container (and
// close()) takes the store's internal Mutex to register the new container
// or publish its seal. This preserves the paper's sequential-placement
// invariant *per stream*: one stream's chunks land back-to-back in that
// stream's containers, so SPL/rewrite decisions computed over a stream's
// containers do not depend on how many streams write at once. Container
// IDs interleave across concurrent streams (allocation order), which is
// irrelevant to locality — locality is within-container. An appender
// allocates its first container on its first append, so with one writer
// container_count() read after open_stream() is the lowest ID this stream
// can receive (how the engines tell this backup's containers apart).
//
// Accounting that reads container payloads (total_*_bytes) requires
// quiescence — close every appender first; this is DCHECKed. Readers may
// load/peek sealed containers concurrently with other streams' appends
// only if the container's seal happened-before the read (join the writer,
// or observe its close()) — or by going through wait_sealed()/
// load_sealed(), which block until the seal is *published* under the
// store mutex and are therefore safe from any thread at any time (the
// concurrent-restore path of the service daemon). The appending thread
// itself may read its own open container (an engine's intra-backup
// duplicates resolve there).
//
// The ObsHandles counters are process-wide relaxed atomics (see
// obs/metrics.h) and safe from any thread.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/fingerprint.h"
#include "common/sync.h"
#include "obs/metrics.h"
#include "storage/container.h"
#include "storage/disk_model.h"

namespace defrag {

class ContainerStore {
 public:
  /// `compress_on_seal` enables DDFS-style local LZSS compression of each
  /// container when it seals; reads then transfer the compressed size.
  explicit ContainerStore(std::uint64_t container_capacity = 4ull << 20,
                          bool compress_on_seal = false);

  /// Moves are quiescence-only (no concurrent access to either store, no
  /// open appenders — DCHECKed); the compactor uses them to swap in a
  /// rewritten store. The mutex itself is not moved.
  ContainerStore(ContainerStore&& other) noexcept
      DEFRAG_NO_THREAD_SAFETY_ANALYSIS;
  ContainerStore& operator=(ContainerStore&& other) noexcept
      DEFRAG_NO_THREAD_SAFETY_ANALYSIS;
  ContainerStore(const ContainerStore&) = delete;
  ContainerStore& operator=(const ContainerStore&) = delete;

  /// One stream's private append handle (see file comment). Movable,
  /// non-copyable; the destructor seals any open container.
  class StreamAppender {
   public:
    StreamAppender(StreamAppender&& other) noexcept;
    StreamAppender& operator=(StreamAppender&&) = delete;
    StreamAppender(const StreamAppender&) = delete;
    StreamAppender& operator=(const StreamAppender&) = delete;
    ~StreamAppender() noexcept;

    /// Append a chunk to this stream's open container, rolling to a fresh
    /// one as needed. Charges the sequential write to `sim`.
    ChunkLocation append(const Fingerprint& fp, ByteView data,
                         SegmentId segment, DiskSim& sim);

    /// Seal the open container and release the appender slot. Idempotent.
    /// After close() the stream's containers are safely readable by threads
    /// that synchronize with the closer. Carries the "store.stream_seal"
    /// failpoint (before any mutation), so explicit closes are injectable;
    /// the destructor seals through the noexcept finish() path instead.
    void close();

   private:
    friend class ContainerStore;
    explicit StreamAppender(ContainerStore* store) : store_(store) {}

    /// Seal + release without fault injection (dtor-safe cleanup half).
    void finish() noexcept;

    ContainerStore* store_ = nullptr;
    Container* open_ = nullptr;  // exclusively owned until sealed
  };

  /// Open an append handle: the store's only write path. Allocates nothing
  /// until the first append.
  StreamAppender open_stream();

  /// Load a container for data access (restore path): one seek + full
  /// container transfer.
  const Container& load(ContainerId id, DiskSim& sim) const;

  /// Whether `id` exists and its seal has been *published* to the store
  /// (all seal sites publish under mu_, so a true return from any thread
  /// happens-after the sealing writes — the payload is safely readable).
  bool sealed_visible(ContainerId id) const;

  /// Block until container `id` exists and its seal is published. The
  /// concurrent-restore barrier: a service session restoring a recipe that
  /// references another stream's container waits here until that stream
  /// rolls or closes its appender, then reads race-free. Containers seal no
  /// later than appender close(), so waits are bounded by the writing
  /// session's lifetime.
  void wait_sealed(ContainerId id) const;

  /// wait_sealed() + load(): the safe read path under concurrent appends.
  const Container& load_sealed(ContainerId id, DiskSim& sim) const;

  /// Load only the metadata section (DDFS locality-preserved caching):
  /// one seek + metadata transfer.
  const std::vector<ContainerEntry>& load_metadata(ContainerId id,
                                                   DiskSim& sim) const;

  /// Direct in-memory access without I/O charging (tests, accounting).
  const Container& peek(ContainerId id) const;

  std::size_t container_count() const;
  std::uint64_t container_capacity() const { return capacity_; }

  /// Total (raw) data bytes stored across all containers. Requires
  /// quiescence: no open StreamAppender (DCHECKed).
  std::uint64_t total_data_bytes() const;

  /// Total physical bytes on disk (<= total_data_bytes when local
  /// compression is on). Requires quiescence like total_data_bytes().
  std::uint64_t total_stored_bytes() const;

  bool compress_on_seal() const { return compress_on_seal_; }

 private:
  /// Register and return a fresh container for an appender.
  Container* allocate_container() DEFRAG_EXCLUDES(mu_);

  /// Appender bookkeeping around close().
  void appender_closed() DEFRAG_EXCLUDES(mu_);

  /// Seal an appender's container off-lock, then publish the seal under
  /// mu_ (the happens-before edge readers rely on) and wake wait_sealed()
  /// waiters.
  void seal_and_publish(Container& c) DEFRAG_EXCLUDES(mu_);

  const Container& container_at(ContainerId id) const DEFRAG_EXCLUDES(mu_);

  std::uint64_t capacity_;
  bool compress_on_seal_;

  // Outermost data-plane lock: nothing else is acquired while mu_ is held
  // (obs counters are lock-free handles resolved at construction).
  mutable Mutex mu_{lock_order::kContainerStore};
  std::vector<std::unique_ptr<Container>> containers_ DEFRAG_GUARDED_BY(mu_);
  // Store-side seal publication, parallel to containers_. StreamAppenders
  // seal their private container off-lock; readers must never touch a
  // container's own state concurrently, so seals become *visible* only via
  // this vector, written under mu_ by seal_and_publish().
  std::vector<bool> seal_published_ DEFRAG_GUARDED_BY(mu_);
  mutable CondVar seal_cv_;
  std::size_t active_appenders_ DEFRAG_GUARDED_BY(mu_) = 0;

  // Hot-path handles into the process-wide registry ("storage.container.*"),
  // resolved once at construction; pointers so stores stay assignable.
  // Shared by every store in the process.
  struct ObsHandles {
    obs::Counter* appends;
    obs::Counter* bytes_appended;
    obs::Counter* seals;
    obs::Counter* loads;
    obs::Counter* bytes_loaded;
    obs::Counter* metadata_loads;
  };
  ObsHandles obs_;
};

}  // namespace defrag
