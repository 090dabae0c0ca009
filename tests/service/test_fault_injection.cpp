// Fault-injection tests: every registered failpoint armed at least once
// (tools/throw_graph_lint.py enforces this pairing), proving the error
// paths the throw-graph analyzer certifies statically are also *executed*
// paths. Three layers:
//   - substrate-direct: store/index sites injected through their
//     public APIs, asserting the typed FailpointError surfaces and the
//     object survives for a clean retry;
//   - wire: frame send/recv sites injected on a socketpair, no server;
//   - service: sites injected under a live multi-tenant Server, asserting
//     the failing session reports a typed ERROR and dies cleanly while
//     concurrent tenants keep serving — including the acceptance scenario
//     (an injected CheckFailure leaves other tenants bit-identical).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "common/bytes.h"
#include "common/check.h"
#include "common/failpoint.h"
#include "index/sharded_index.h"
#include "obs/metrics.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/socket.h"
#include "service/wire.h"
#include "storage/container_store.h"
#include "storage/disk_model.h"
#include "testing/data.h"

namespace defrag::service {
namespace {

using failpoint::Action;
using failpoint::FailpointError;

std::string unique_socket_path() {
  static std::atomic<int> counter{0};
  return "/tmp/defrag-fault-" + std::to_string(::getpid()) + "-" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

bool wait_counter_at_least(const char* name, std::uint64_t target) {
  auto& counter = obs::MetricsRegistry::global().counter(name);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (counter.value() < target) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

class FaultInjectionTest : public ::testing::Test {
 protected:
  void start(const SchedulerLimits& limits = {}) {
    ServerConfig config;
    config.socket_path = unique_socket_path();
    config.limits = limits;
    server_ = std::make_unique<Server>(config);
    server_thread_ = std::thread([this] { server_->run(); });
  }

  void TearDown() override {
    // Disarm before the drain: shutdown traffic must not consume or trip
    // leftover armings from a failed assertion path.
    failpoint::disarm_all();
    if (server_ != nullptr) server_->request_stop();
    if (server_thread_.joinable()) server_thread_.join();
    server_.reset();
  }

  const std::string& path() const { return server_->socket_path(); }

  /// Arm `name` one-shot and run a backup of fresh data for `tenant`;
  /// the injected fault must surface as a typed ERROR frame (RemoteError
  /// client-side) and must have fired exactly once.
  void expect_backup_fault(const char* name, std::uint64_t seed) {
    const std::uint64_t before = failpoint::hit_count(name);
    const Bytes data = testing::random_bytes(512 * 1024, seed);
    Client client(path(), "faulty");
    failpoint::arm(name, Action::kThrow);
    EXPECT_THROW(client.backup("doomed", ByteView(data)), RemoteError)
        << "failpoint " << name;
    EXPECT_EQ(failpoint::hit_count(name), before + 1) << "failpoint " << name;
  }

  std::unique_ptr<Server> server_;
  std::thread server_thread_;
};

// ---- substrate-direct injections ------------------------------------------

TEST_F(FaultInjectionTest, StreamAppendFaultIsTypedAndRetryable) {
  ContainerStore store;
  DiskSim sim;
  auto out = store.open_stream();
  const Bytes chunk = testing::random_bytes(4096, 9001);
  failpoint::arm("store.stream_append", Action::kThrow);
  EXPECT_THROW(out.append(Fingerprint::of(chunk), chunk, 0, sim),
               FailpointError);
  // The site fires before any mutation: the retry lands cleanly.
  EXPECT_NO_THROW(out.append(Fingerprint::of(chunk), chunk, 0, sim));
  EXPECT_EQ(store.container_count(), 1u);
  EXPECT_EQ(store.peek(0).entries().size(), 1u);
}

TEST_F(FaultInjectionTest, StreamSealFaultIsTypedAndRetryable) {
  ContainerStore store;
  DiskSim sim;
  auto out = store.open_stream();
  const Bytes chunk = testing::random_bytes(4096, 9002);
  out.append(Fingerprint::of(chunk), chunk, 0, sim);
  failpoint::arm("store.stream_seal", Action::kThrow);
  EXPECT_THROW(out.close(), FailpointError);
  // The fault left the appender open: nothing sealed, and it still appends.
  EXPECT_FALSE(store.sealed_visible(0));
  EXPECT_NO_THROW(out.append(Fingerprint::of(chunk), chunk, 0, sim));
  EXPECT_NO_THROW(out.close());
  EXPECT_TRUE(store.peek(0).sealed());
  EXPECT_EQ(store.total_data_bytes(), 2u * chunk.size());
}

TEST_F(FaultInjectionTest, StoreLoadFaultIsTypedAndRetryable) {
  ContainerStore store;
  DiskSim sim;
  const Bytes chunk = testing::random_bytes(4096, 9003);
  auto out = store.open_stream();
  const ChunkLocation loc = out.append(Fingerprint::of(chunk), chunk, 0, sim);
  out.close();
  failpoint::arm("store.load", Action::kThrow);
  EXPECT_THROW(store.load(loc.container, sim), FailpointError);
  EXPECT_NO_THROW(store.load(loc.container, sim));
}

TEST_F(FaultInjectionTest, IndexInsertFaultIsTypedAndRetryable) {
  ShardedPagedIndex index(8);
  DiskSim sim;
  const Fingerprint fp = Fingerprint::of(testing::random_bytes(64, 9004));
  const IndexValue value{ChunkLocation{0, 0, 4096}, kInvalidSegment};
  failpoint::arm("index.insert", Action::kThrow);
  EXPECT_THROW(index.insert(fp, value, sim), FailpointError);
  EXPECT_NO_THROW(index.insert(fp, value, sim));
  EXPECT_EQ(index.size(), 1u);
}

// ---- wire-layer injections (socketpair, no server, no races) ---------------

TEST_F(FaultInjectionTest, SendFrameFaultLeavesNoPartialFrame) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Conn sender(fds[0]);
  Conn receiver(fds[1]);
  const Bytes payload = testing::random_bytes(128, 9005);

  failpoint::arm("service.send_frame", Action::kThrow);
  EXPECT_THROW(sender.send_frame(ByteView(payload)), FailpointError);
  // The site fires before the length header: nothing hit the wire, so the
  // retry produces one well-formed frame.
  sender.send_frame(ByteView(payload));
  const std::optional<Bytes> got = receiver.recv_frame();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
}

TEST_F(FaultInjectionTest, RecvFrameFaultIsTypedAndRetryable) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Conn sender(fds[0]);
  Conn receiver(fds[1]);
  const Bytes payload = testing::random_bytes(128, 9006);
  sender.send_frame(ByteView(payload));

  failpoint::arm("service.recv_frame", Action::kThrow);
  EXPECT_THROW(receiver.recv_frame(), FailpointError);
  // The frame is still queued in the socket buffer; the retry reads it.
  const std::optional<Bytes> got = receiver.recv_frame();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
}

// ---- service-path injections: typed ERROR, session dies, daemon lives -----

TEST_F(FaultInjectionTest, StreamAppendFaultFailsBackupWithTypedError) {
  start();
  expect_backup_fault("store.stream_append", 9010);
}

// A fault inside the first of three BACKUP_DATA frames is held while the
// other two are drained unread, then reported at BACKUP_END as a typed
// ERROR — not a connection reset mid-upload. Nothing is committed, the
// site fires exactly once, and another tenant's data is untouched.
TEST_F(FaultInjectionTest, FaultInFirstFrameIsReportedAtBackupEnd) {
  start();
  const Bytes safe = testing::random_bytes(1 << 20, 9030);
  Client bystander(path(), "bystander");
  const std::uint32_t safe_id = bystander.backup("safe", ByteView(safe))
                                    .backup_id;
  const std::uint64_t internal_before =
      obs::MetricsRegistry::global()
          .counter("service.session_internal_errors")
          .value();

  const Bytes data = testing::random_bytes(12 << 20, 9031);  // 3 frames
  const std::uint64_t before = failpoint::hit_count("store.stream_append");
  Client client(path(), "faulty");
  failpoint::arm("store.stream_append", Action::kThrow);
  EXPECT_THROW(client.backup("doomed", ByteView(data)), RemoteError);
  EXPECT_EQ(failpoint::hit_count("store.stream_append"), before + 1);
  EXPECT_TRUE(wait_counter_at_least("service.session_internal_errors",
                                    internal_before + 1));
  EXPECT_TRUE(server_->catalog().list("faulty").empty());

  EXPECT_EQ(bystander.restore(safe_id), safe);
}

TEST_F(FaultInjectionTest, StreamSealFaultFailsBackupWithTypedError) {
  start();
  expect_backup_fault("store.stream_seal", 9011);
}

TEST_F(FaultInjectionTest, IndexClaimFaultFailsBackupWithTypedError) {
  start();
  expect_backup_fault("index.claim", 9012);
}

TEST_F(FaultInjectionTest, IndexPublishFaultFailsBackupWithTypedError) {
  start();
  expect_backup_fault("index.publish", 9013);
}

TEST_F(FaultInjectionTest, IndexLookupFaultIsTypedAndRetryable) {
  // The service ingest only issues a charged lookup() on the cross-stream
  // pending-duplicate race path, so this site is injected substrate-direct.
  ShardedPagedIndex index(8);
  DiskSim sim;
  const Fingerprint fp = Fingerprint::of(testing::random_bytes(64, 9014));
  index.insert(fp, IndexValue{ChunkLocation{0, 0, 4096}, kInvalidSegment},
               sim);
  failpoint::arm("index.lookup", Action::kThrow);
  EXPECT_THROW(index.lookup(fp, sim), FailpointError);
  const std::optional<IndexValue> hit = index.lookup(fp, sim);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->location.container, 0u);
}

TEST_F(FaultInjectionTest, StoreLoadFaultFailsRestoreWithTypedError) {
  start();
  const Bytes data = testing::random_bytes(512 * 1024, 9015);
  Client client(path(), "faulty");
  const BackupDoneResponse done = client.backup("gen", ByteView(data));

  Client victim(path(), "faulty");
  failpoint::arm("store.load", Action::kThrow);
  EXPECT_THROW(victim.restore(done.backup_id), RemoteError);
  // The data is intact; a fresh session restores it bit-identically.
  Client retry(path(), "faulty");
  EXPECT_EQ(retry.restore(done.backup_id), data);
}

// A failed session is ONE dead session, not a dead daemon: the error is
// counted, the peer gets a typed ERROR, and other tenants never notice.
TEST_F(FaultInjectionTest, InjectedFaultLeavesOtherTenantsServing) {
  start();
  const Bytes stable_data = testing::random_bytes(1 << 20, 9020);
  Client stable(path(), "stable");
  const BackupDoneResponse kept = stable.backup("keep", ByteView(stable_data));

  expect_backup_fault("store.stream_append", 9021);

  // The long-lived session of the other tenant is untouched.
  EXPECT_EQ(stable.restore(kept.backup_id), stable_data);
}

// ISSUE acceptance: a CheckFailure injected into one session's work leaves
// every concurrent tenant bit-identical on restore. store.load runs on the
// session thread, so this exercises Session::run's CheckFailure handler
// (the declared catch boundary), the internal-error metric, and admission
// of new sessions afterwards.
TEST_F(FaultInjectionTest, InjectedCheckFailureKillsOneSessionOnly) {
  start();
  const Bytes stable_data = testing::random_bytes(1 << 20, 9030);
  Client stable(path(), "stable");
  const BackupDoneResponse kept = stable.backup("keep", ByteView(stable_data));

  const Bytes faulty_data = testing::random_bytes(512 * 1024, 9031);
  Client faulty(path(), "faulty");
  const BackupDoneResponse done = faulty.backup("mine", ByteView(faulty_data));

  const std::uint64_t errors_before = obs::MetricsRegistry::global()
                                          .counter("service.session_internal_errors")
                                          .value();
  failpoint::arm("store.load", Action::kCheck);
  EXPECT_THROW(faulty.restore(done.backup_id), RemoteError);
  EXPECT_TRUE(
      wait_counter_at_least("service.session_internal_errors",
                            errors_before + 1));

  // The concurrent tenant's session never blinked, and its data is
  // bit-identical.
  EXPECT_EQ(stable.restore(kept.backup_id), stable_data);
  // The daemon still admits sessions — including for the faulted tenant —
  // and the faulted tenant's own data survived the injected failure.
  Client fresh(path(), "faulty");
  EXPECT_EQ(fresh.restore(done.backup_id), faulty_data);
}

}  // namespace
}  // namespace defrag::service
