// One connected client's protocol loop (runs on its own scheduler thread).
//
// A Session owns its Conn and drives the request/response state machine of
// protocol.h: HELLO (admission via the SessionScheduler), then any number
// of backup / restore / list / metrics / shutdown operations until the
// client disconnects or a malformed frame closes the connection. STATS and
// HEALTH are answered with or without admission, so monitoring keeps
// working while the server is full or draining.
//
// Observability (the service's per-request contract):
//  - admission mints a request id from the server-wide counter, answers
//    HELLO_OK with it, and installs an obs::RequestScope for the rest of
//    the session — every log line and trace span below this thread
//    (catalog commit, ingest_stream, container seals) carries the rid;
//  - every request runs under timed(): a "service.<op>" trace span, a
//    sample in the service.request.<op>_us histogram, and — over the
//    configured slow threshold — a service.slow_request warning plus the
//    service.requests_slow counter. BACKUP_DATA frames have no response
//    of their own: each frame's ingest time is added to the backup's
//    service.request.backup_us sample, observed once at BACKUP_DONE, so
//    that sample is the server's busy time for the whole backup.
//
// Data plane: BACKUP_BEGIN opens a ParallelIngestor::open_stream() with
// the backup's Recipe; every BACKUP_DATA frame is fed into it as it
// arrives, and BACKUP_END finishes the stream and commits the recipe into
// the tenant's namespace. Between frames the session holds at most the
// stream's carry (one chunk), never the backup. A failure inside a frame's
// ingest is held, the remaining frames are drained unread, and the
// failure is rethrown at BACKUP_END so the client gets its ERROR there;
// the size cap (kMaxBackupBytes) is still a WireError at the frame that
// crosses it. RESTORE fetches the recipe, waits for every container it
// references to be *sealed* (ContainerStore::wait_sealed — the barrier
// that makes restoring concurrently with other sessions' in-flight
// backups race-free; a backup's containers stay open until its
// BACKUP_END or disconnect), and replays it through
// restore_with_strategy() into one reused RESTORE_DATA frame buffer that
// is sent each time it fills.
//
// Metrics: session-scoped values accumulate in a session-local
// MetricsRegistry under the tenant's "service.tenant.<slug>." scope and
// are folded into the global registry after every completed operation
// (merge + reset, so counters never double-count), which also keeps
// histogram observation single-threaded per session. Process-wide
// service.* counters are updated directly (they are atomic).
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <optional>
#include <string>

#include "common/bytes.h"
#include "core/parallel_ingest.h"
#include "obs/metrics.h"
#include "obs/request_context.h"
#include "service/protocol.h"
#include "service/scheduler.h"
#include "service/socket.h"
#include "service/tenant.h"
#include "storage/recipe.h"

namespace defrag::service {

/// Cap on one backup stream (the service is an in-memory simulation; a
/// runaway client should fail cleanly, not OOM the daemon's store).
inline constexpr std::uint64_t kMaxBackupBytes = 1ull << 30;

/// Everything a session borrows from its Server. All references outlive
/// the session (the scheduler joins every session thread before the
/// Server's members destruct).
struct SessionEnv {
  SessionScheduler& scheduler;
  TenantCatalog& catalog;
  ParallelIngestor& ingestor;
  std::function<void()> request_stop;
  /// Daemon start (steady clock) for STATS/HEALTH uptime.
  std::chrono::steady_clock::time_point server_start{};
  /// Quotas echoed in STATS occupancy rows.
  SchedulerLimits limits;
  /// Requests slower than this log service.slow_request; 0 disables.
  std::uint64_t slow_request_us = 0;
  /// Server-wide request-id mint (never null; ids start at 1, so rid 0
  /// always means "no request scope").
  std::atomic<std::uint64_t>* next_request_id = nullptr;
};

class Session {
 public:
  Session(Conn conn, const SessionEnv& env);
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Run the protocol loop to completion. Never throws — this is the
  /// session thread's declared catch boundary (error_policy.h
  /// "Session::run"): peer-caused failures (WireError/SocketError) close
  /// the connection; internal failures (CheckFailure, any std::exception)
  /// are logged with the rid, counted in service.session_internal_errors,
  /// answered with ERROR when the socket still writes, and end only this
  /// session. Admission state and metrics are always released/flushed on
  /// the way out.
  void run();

 private:
  /// First-contact requests: HELLO, or unadmitted STATS/HEALTH. Returns
  /// false to close the connection.
  bool handle_unadmitted(ByteView payload);
  bool handle_hello(ByteView body);
  /// One post-admission request. Returns false to close the connection.
  bool handle(ByteView payload);
  bool do_backup_begin(ByteView body);
  /// Ingest one BACKUP_DATA frame into the open stream, or drain it once
  /// an earlier frame failed. `frame_bytes` is the whole received payload.
  void do_backup_data(ByteView body, std::size_t frame_bytes);
  bool do_backup_end();
  /// Drop the open backup (stream sealed, nothing committed).
  void end_backup() noexcept;
  bool do_restore(const RestoreRequest& req);
  bool do_list();
  bool do_metrics();
  bool do_stats();
  bool do_health();
  bool do_shutdown();
  /// Run `body` as one named request: trace span, latency histogram,
  /// slow-request accounting. `op` must be one of the documented
  /// service.request.<op>_us names. `prior_us` is server time the request
  /// already spent before this call (a backup's frame ingests).
  bool timed(const char* op, const std::function<bool()>& body,
             double prior_us = 0.0);
  void send(const Bytes& payload) { conn_.send_frame(payload); }
  /// Fold the session-local registry into the global one and clear it.
  void flush_metrics();
  /// Boundary bookkeeping for an internal error: count, log at ERROR with
  /// the rid, best-effort ERROR response.
  void report_internal_error(const char* event, const char* what);

  Conn conn_;
  SessionEnv env_;

  bool admitted_ = false;
  std::uint64_t rid_ = 0;
  /// Installed at admission; keeps this thread's log lines and trace
  /// spans tagged with rid_ until the session object dies.
  std::optional<obs::RequestScope> rid_scope_;
  std::string tenant_;
  std::string scope_;  // "service.tenant.<slug>."
  obs::MetricsRegistry local_;

  bool in_backup_ = false;
  std::optional<Recipe> backup_recipe_;
  /// Open between BACKUP_BEGIN and BACKUP_END; points at backup_recipe_.
  std::optional<IngestStream> backup_stream_;
  std::uint64_t backup_bytes_ = 0;
  /// Server time spent ingesting this backup's frames so far.
  double backup_busy_us_ = 0.0;
  /// First failure inside a BACKUP_DATA frame, rethrown at BACKUP_END.
  std::exception_ptr backup_failure_;
};

}  // namespace defrag::service
