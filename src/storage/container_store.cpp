#include "storage/container_store.h"

#include <utility>

#include "common/check.h"
#include "common/failpoint.h"
#include "common/fingerprint.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/container.h"
#include "storage/disk_model.h"

namespace defrag {

ContainerStore::ContainerStore(std::uint64_t container_capacity,
                               bool compress_on_seal)
    : capacity_(container_capacity),
      compress_on_seal_(compress_on_seal),
      obs_{&obs::MetricsRegistry::global().counter("storage.container.appends"),
           &obs::MetricsRegistry::global().counter(
               "storage.container.bytes_appended"),
           &obs::MetricsRegistry::global().counter("storage.container.seals"),
           &obs::MetricsRegistry::global().counter("storage.container.loads"),
           &obs::MetricsRegistry::global().counter(
               "storage.container.bytes_loaded"),
           &obs::MetricsRegistry::global().counter(
               "storage.container.metadata_loads")} {
  DEFRAG_CHECK(capacity_ >= 64 * 1024);
}

// Quiescence-only move: both stores are exclusively owned by the caller, so
// no lock is needed (or analyzable from an init list) — hence the
// DEFRAG_NO_THREAD_SAFETY_ANALYSIS on the declarations.
ContainerStore::ContainerStore(ContainerStore&& other) noexcept
    : capacity_(other.capacity_),
      compress_on_seal_(other.compress_on_seal_),
      containers_(std::move(other.containers_)),
      seal_published_(std::move(other.seal_published_)),
      active_appenders_(other.active_appenders_),
      obs_(other.obs_) {
  DEFRAG_DCHECK(active_appenders_ == 0);
  other.containers_.clear();
  other.seal_published_.clear();
}

ContainerStore& ContainerStore::operator=(ContainerStore&& other) noexcept {
  if (this == &other) return *this;
  DEFRAG_DCHECK(active_appenders_ == 0 && other.active_appenders_ == 0);
  capacity_ = other.capacity_;
  compress_on_seal_ = other.compress_on_seal_;
  containers_ = std::move(other.containers_);
  seal_published_ = std::move(other.seal_published_);
  obs_ = other.obs_;
  other.containers_.clear();
  other.seal_published_.clear();
  return *this;
}

ContainerStore::StreamAppender ContainerStore::open_stream() {
  MutexLock lock(mu_);
  ++active_appenders_;
  return StreamAppender(this);
}

Container* ContainerStore::allocate_container() {
  MutexLock lock(mu_);
  containers_.push_back(std::make_unique<Container>(
      static_cast<ContainerId>(containers_.size()), capacity_));
  seal_published_.push_back(false);
  return containers_.back().get();
}

void ContainerStore::seal_and_publish(Container& c) {
  c.seal(compress_on_seal_);
  obs_.seals->add(1);
  MutexLock lock(mu_);
  DEFRAG_CHECK_MSG(c.id() < seal_published_.size(),
                   "publishing unknown container");
  seal_published_[c.id()] = true;
  // Tagged with the requesting session's rid (RequestScope), this instant
  // places each container seal on the request's trace track — the deepest
  // point the service's request context reaches. Lock order fine: trace(40)
  // above container_store(10).
  obs::TraceRecorder::global().record_instant("store.seal", "storage");
  seal_cv_.notify_all();
}

bool ContainerStore::sealed_visible(ContainerId id) const {
  MutexLock lock(mu_);
  return id < seal_published_.size() && seal_published_[id];
}

void ContainerStore::wait_sealed(ContainerId id) const {
  MutexLock lock(mu_);
  while (id >= seal_published_.size() || !seal_published_[id]) {
    seal_cv_.wait(mu_);
  }
}

const Container& ContainerStore::load_sealed(ContainerId id,
                                             DiskSim& sim) const {
  wait_sealed(id);
  return load(id, sim);
}

void ContainerStore::appender_closed() {
  MutexLock lock(mu_);
  DEFRAG_CHECK(active_appenders_ >= 1);
  --active_appenders_;
}

ContainerStore::StreamAppender::StreamAppender(StreamAppender&& other) noexcept
    : store_(std::exchange(other.store_, nullptr)),
      open_(std::exchange(other.open_, nullptr)) {}

ContainerStore::StreamAppender::~StreamAppender() noexcept { finish(); }

ChunkLocation ContainerStore::StreamAppender::append(const Fingerprint& fp,
                                                     ByteView data,
                                                     SegmentId segment,
                                                     DiskSim& sim) {
  DEFRAG_CHECK_MSG(store_ != nullptr, "append on a closed StreamAppender");
  DEFRAG_CHECK_MSG(data.size() <= store_->capacity_,
                   "chunk larger than container capacity");
  DEFRAG_FAILPOINT("store.stream_append");
  // The open container is exclusively ours until sealed, so appends run
  // lock-free; only rolling to a fresh container touches the store.
  if (open_ != nullptr && !open_->fits(static_cast<std::uint32_t>(data.size()))) {
    store_->seal_and_publish(*std::exchange(open_, nullptr));
  }
  if (open_ == nullptr) open_ = store_->allocate_container();
  sim.write_behind(data.size() + kContainerEntryBytes);
  store_->obs_.appends->add(1);
  store_->obs_.bytes_appended->add(data.size());
  return open_->append(fp, data, segment);
}

void ContainerStore::StreamAppender::close() {
  // The failpoint fires only on the explicit close() path — before any
  // mutation, so an injected fault leaves the appender open and retryable.
  // The destructor seals via finish() directly (noexcept cleanup must not
  // inject throws).
  if (store_ == nullptr) return;
  DEFRAG_FAILPOINT("store.stream_seal");
  finish();
}

void ContainerStore::StreamAppender::finish() noexcept {
  if (store_ == nullptr) return;
  if (open_ != nullptr) store_->seal_and_publish(*std::exchange(open_, nullptr));
  store_->appender_closed();
  store_ = nullptr;
}

const Container& ContainerStore::container_at(ContainerId id) const {
  MutexLock lock(mu_);
  DEFRAG_CHECK_MSG(id < containers_.size(), "unknown container id");
  // Containers are heap-allocated and never removed, so the reference stays
  // valid after the table lock drops.
  return *containers_[id];
}

const Container& ContainerStore::load(ContainerId id, DiskSim& sim) const {
  DEFRAG_FAILPOINT("store.load");
  const Container& c = container_at(id);
  sim.seek();
  sim.read(c.stored_bytes() + c.metadata_bytes());
  obs_.loads->add(1);
  obs_.bytes_loaded->add(c.stored_bytes() + c.metadata_bytes());
  return c;
}

const std::vector<ContainerEntry>& ContainerStore::load_metadata(
    ContainerId id, DiskSim& sim) const {
  const Container& c = container_at(id);
  sim.seek();
  sim.read(c.metadata_bytes());
  obs_.metadata_loads->add(1);
  return c.entries();
}

const Container& ContainerStore::peek(ContainerId id) const {
  return container_at(id);
}

std::size_t ContainerStore::container_count() const {
  MutexLock lock(mu_);
  return containers_.size();
}

std::uint64_t ContainerStore::total_data_bytes() const {
  MutexLock lock(mu_);
  DEFRAG_DCHECK(active_appenders_ == 0);
  std::uint64_t total = 0;
  for (const auto& c : containers_) total += c->data_bytes();
  return total;
}

std::uint64_t ContainerStore::total_stored_bytes() const {
  MutexLock lock(mu_);
  DEFRAG_DCHECK(active_appenders_ == 0);
  std::uint64_t total = 0;
  for (const auto& c : containers_) total += c->stored_bytes();
  return total;
}

}  // namespace defrag
