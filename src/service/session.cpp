#include "service/session.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "common/bytes.h"
#include "common/check.h"
#include "core/parallel_ingest.h"
#include "dedup/engine.h"
#include "dedup/restore_strategies.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/introspect.h"
#include "service/protocol.h"
#include "service/scheduler.h"
#include "service/socket.h"
#include "service/tenant.h"
#include "service/wire.h"
#include "storage/container_store.h"
#include "storage/recipe.h"

namespace defrag::service {

namespace {

/// RESTORE_DATA framing granularity (well under kMaxFramePayload).
constexpr std::uint64_t kRestoreDataChunk = 4ull << 20;

double us_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

Session::Session(Conn conn, const SessionEnv& env)
    : conn_(std::move(conn)), env_(env) {}

void Session::run() {
  auto& reg = obs::MetricsRegistry::global();
  try {
    while (true) {
      const std::optional<Bytes> payload = conn_.recv_frame();
      if (!payload.has_value()) break;  // clean EOF
      const bool keep =
          admitted_ ? handle(*payload) : handle_unadmitted(*payload);
      if (!keep) break;
    }
  } catch (const WireError& e) {
    reg.counter("service.wire_errors").add(1);
    DEFRAG_LOG_WARN("session.wire_error", {"reason", e.what()});
    try {
      send(encode_error(e.what()));
    } catch (const SocketError&) {
      // Peer already gone; nothing left to tell it.
    } catch (const WireError&) {
      // Reason string itself unencodable; just close.
    }
  } catch (const SocketError&) {
    // Peer vanished mid-write; admission/metrics cleanup below still runs.
    DEFRAG_LOG_WARN("session.socket_error", {"tenant", tenant_});
  } catch (const CheckFailure& e) {
    // Invariant failure inside this session's work. Escaping this thread
    // would be std::terminate for every tenant, so the boundary converts
    // it to one dead session: log it loudly (rid is on the log scope),
    // count it, and tell the peer if the socket still writes. Ordered
    // before std::exception (CheckFailure derives std::logic_error).
    report_internal_error("session.check_failure", e.what());
  } catch (const std::exception& e) {
    // Any other taxonomy type reaching the boundary (FailpointError, a
    // storage-layer escape) — same containment: session dies, daemon lives.
    report_internal_error("session.internal_error", e.what());
  }
  // A backup still open here was abandoned (disconnect or error): seal its
  // containers now, so restores waiting on them proceed.
  end_backup();
  if (admitted_) {
    flush_metrics();
    env_.scheduler.release(tenant_);
    reg.gauge("service.active_sessions")
        .set(static_cast<double>(env_.scheduler.active_sessions()));
    DEFRAG_LOG_INFO("session.end", {"tenant", tenant_});
  }
  conn_.close();
}

void Session::report_internal_error(const char* event, const char* what) {
  obs::MetricsRegistry::global().counter("service.session_internal_errors")
      .add(1);
  DEFRAG_LOG_ERROR(event, {"tenant", tenant_}, {"reason", what});
  try {
    send(encode_error("internal server error"));
  } catch (const SocketError&) {
    // Peer already gone; the log line and counter are the record.
  } catch (const WireError&) {
    // Frame unencodable; just close.
  }
}

bool Session::handle_unadmitted(ByteView payload) {
  const FrameType type = frame_type(payload);
  const ByteView body = frame_body(payload);
  switch (type) {
    case FrameType::kHello:
      return handle_hello(body);
    // Introspection never consumes an admission slot: a monitoring probe
    // must keep answering while the server is full or draining.
    case FrameType::kStats:
      parse_empty(body);
      return timed("stats", [this] { return do_stats(); });
    case FrameType::kHealth:
      parse_empty(body);
      return timed("health", [this] { return do_health(); });
    default:
      throw WireError("expected HELLO");
  }
}

bool Session::handle_hello(ByteView body) {
  auto& reg = obs::MetricsRegistry::global();
  const auto start = std::chrono::steady_clock::now();
  const HelloRequest hello = parse_hello(body);
  if (hello.version != kProtocolVersion) {
    DEFRAG_LOG_WARN("session.reject", {"tenant", hello.tenant},
                    {"reason", "protocol version mismatch"},
                    {"peer_version", hello.version});
    send(encode_rejected("protocol version mismatch"));
    return false;
  }
  const SessionScheduler::Admission verdict =
      env_.scheduler.admit(hello.tenant);
  if (verdict != SessionScheduler::Admission::kAdmitted) {
    reg.counter("service.sessions_rejected").add(1);
    reg.counter(TenantCatalog::metric_scope(hello.tenant) + "rejected")
        .add(1);
    DEFRAG_LOG_WARN("session.reject", {"tenant", hello.tenant},
                    {"reason", SessionScheduler::reason(verdict)});
    send(encode_rejected(SessionScheduler::reason(verdict)));
    return false;
  }
  admitted_ = true;
  tenant_ = hello.tenant;
  scope_ = TenantCatalog::metric_scope(tenant_);
  // Mint the request id and scope the rest of this session (this thread)
  // to it: every log line, trace span and histogram below carries rid_.
  rid_ = env_.next_request_id->fetch_add(1, std::memory_order_relaxed);
  rid_scope_.emplace(rid_);
  local_.counter(scope_ + "sessions").add(1);
  reg.counter("service.sessions_accepted").add(1);
  reg.gauge("service.active_sessions")
      .set(static_cast<double>(env_.scheduler.active_sessions()));
  local_.histogram("service.request.hello_us").observe(us_since(start));
  flush_metrics();
  DEFRAG_LOG_INFO("session.start", {"tenant", tenant_});
  HelloOkResponse ok;
  ok.session_id = rid_;
  send(encode(ok));
  return true;
}

bool Session::handle(ByteView payload) {
  const FrameType type = frame_type(payload);
  const ByteView body = frame_body(payload);
  switch (type) {
    case FrameType::kHello:
      throw WireError("duplicate HELLO");
    case FrameType::kBackupBegin:
      return do_backup_begin(body);
    case FrameType::kBackupData:
      if (!in_backup_) throw WireError("BACKUP_DATA outside a backup");
      if (backup_bytes_ + body.size() > kMaxBackupBytes) {
        throw WireError("backup stream exceeds size cap");
      }
      do_backup_data(body, payload.size());
      return true;
    case FrameType::kBackupEnd:
      parse_empty(body);
      if (!in_backup_) throw WireError("BACKUP_END outside a backup");
      return timed(
          "backup", [this] { return do_backup_end(); }, backup_busy_us_);
    case FrameType::kRestore: {
      // The open backup's containers seal only at its END or disconnect,
      // so a restore waiting on one of them from this session would wait
      // on itself.
      if (in_backup_) throw WireError("RESTORE inside a backup");
      const RestoreRequest req = parse_restore(body);
      return timed("restore", [this, &req] { return do_restore(req); });
    }
    case FrameType::kList:
      parse_empty(body);
      return timed("list", [this] { return do_list(); });
    case FrameType::kMetrics:
      parse_empty(body);
      return timed("metrics", [this] { return do_metrics(); });
    case FrameType::kStats:
      parse_empty(body);
      return timed("stats", [this] { return do_stats(); });
    case FrameType::kHealth:
      parse_empty(body);
      return timed("health", [this] { return do_health(); });
    case FrameType::kShutdown:
      parse_empty(body);
      return timed("shutdown", [this] { return do_shutdown(); });
    default:
      throw WireError("unexpected frame type from client");
  }
}

bool Session::timed(const char* op, const std::function<bool()>& body,
                    double prior_us) {
  const auto start = std::chrono::steady_clock::now();
  bool keep = false;
  {
    std::string span_name = "service.";
    span_name += op;
    obs::TraceSpan span(span_name, "service");
    keep = body();
  }
  const double us = prior_us + us_since(start);
  // Name built at runtime; the documented set is registered literally in
  // Server's constructor, one per FrameType op.
  std::string metric = "service.request.";
  metric += op;
  metric += "_us";
  local_.histogram(metric).observe(us);
  flush_metrics();
  if (env_.slow_request_us > 0 &&
      us > static_cast<double>(env_.slow_request_us)) {
    obs::MetricsRegistry::global().counter("service.requests_slow").add(1);
    DEFRAG_LOG_WARN("service.slow_request", {"op", op},
                    {"us", us}, {"tenant", tenant_},
                    {"threshold_us", env_.slow_request_us});
  }
  return keep;
}

bool Session::do_backup_begin(ByteView body) {
  if (in_backup_) throw WireError("BACKUP_BEGIN inside a backup");
  const BackupBeginRequest req = parse_backup_begin(body);
  backup_recipe_.emplace(req.label.empty() ? tenant_ : req.label);
  backup_stream_.emplace(env_.ingestor.open_stream(&*backup_recipe_));
  in_backup_ = true;
  backup_bytes_ = 0;
  backup_busy_us_ = 0.0;
  send(encode_empty(FrameType::kOk));
  return true;
}

void Session::do_backup_data(ByteView body, std::size_t frame_bytes) {
  backup_bytes_ += body.size();
  if (backup_failure_) return;  // drained; reported at BACKUP_END
  const auto start = std::chrono::steady_clock::now();
  // Held, not thrown: the client is still streaming frames, and an ERROR
  // it cannot read until BACKUP_END must not arrive as a connection reset
  // mid-upload. The same two types the session boundary handles; both
  // reach it unchanged through the rethrow in do_backup_end().
  try {
    backup_stream_->feed(body);
  } catch (const CheckFailure&) {
    backup_failure_ = std::current_exception();
  } catch (const std::exception&) {
    backup_failure_ = std::current_exception();
  }
  backup_busy_us_ += us_since(start);
  // The received frame plus what the stream holds between frames.
  obs::MetricsRegistry::global()
      .gauge("service.session.buffered_bytes_high_water")
      .set_max(static_cast<double>(frame_bytes +
                                   backup_stream_->buffered_bytes()));
  if (backup_failure_) backup_stream_.reset();  // seal what it stored
}

void Session::end_backup() noexcept {
  backup_stream_.reset();
  backup_recipe_.reset();
  backup_failure_ = nullptr;
  in_backup_ = false;
}

bool Session::do_backup_end() {
  if (backup_failure_) {
    const std::exception_ptr failure = backup_failure_;
    end_backup();
    std::rethrow_exception(failure);
  }
  const auto start = std::chrono::steady_clock::now();
  const StreamIngestStats st = backup_stream_->finish();
  const std::uint32_t id =
      env_.catalog.commit(tenant_, std::move(*backup_recipe_));
  end_backup();

  local_.counter(scope_ + "backups").add(1);
  local_.counter(scope_ + "logical_bytes").add(st.logical_bytes);
  local_.counter(scope_ + "unique_bytes").add(st.unique_bytes);
  local_.counter(scope_ + "dup_bytes").add(st.dup_bytes);
  local_.histogram(scope_ + "backup_wall_us")
      .observe(backup_busy_us_ + us_since(start));
  auto& reg = obs::MetricsRegistry::global();
  reg.counter("service.backups").add(1);
  reg.counter("service.bytes_ingested").add(st.logical_bytes);
  flush_metrics();
  DEFRAG_LOG_INFO("session.backup", {"tenant", tenant_},
                  {"backup_id", id},
                  {"logical_bytes", st.logical_bytes},
                  {"unique_bytes", st.unique_bytes});

  BackupDoneResponse resp;
  resp.backup_id = id;
  resp.logical_bytes = st.logical_bytes;
  resp.chunk_count = st.chunk_count;
  resp.unique_bytes = st.unique_bytes;
  resp.dup_bytes = st.dup_bytes;
  send(encode(resp));
  return true;
}

bool Session::do_restore(const RestoreRequest& req) {
  const auto start = std::chrono::steady_clock::now();
  const std::shared_ptr<const Recipe> recipe =
      env_.catalog.find(tenant_, req.backup_id);
  if (recipe == nullptr) {
    send(encode_error("unknown backup id for this tenant"));
    return true;  // unservable but well-formed; session continues
  }

  // Another session's in-flight backup may still hold a referenced
  // container open; wait for every distinct container's seal to be
  // published before reading (bounded by that backup's BACKUP_END or
  // disconnect, which seal its containers).
  std::set<ContainerId> referenced;
  for (const RecipeEntry& e : recipe->entries()) {
    referenced.insert(e.location.container);
  }
  const ContainerStore& store = env_.ingestor.store();
  for (const ContainerId id : referenced) store.wait_sealed(id);

  // One RESTORE_DATA frame, filled straight from container memory and sent
  // each time it holds kRestoreDataChunk bytes, then reused.
  Bytes frame = encode_empty(FrameType::kRestoreData);
  const std::size_t header = frame.size();
  frame.reserve(header + kRestoreDataChunk);
  const auto flush_frame = [&] {
    send(frame);
    frame.resize(header);
  };
  const RestoreOptions options;
  const RestoreResult rr = restore_with_strategy(
      store, *recipe, env_.ingestor.params().disk, options,
      [&](ByteView bytes) {
        while (!bytes.empty()) {
          const std::size_t n = std::min<std::size_t>(
              bytes.size(), header + kRestoreDataChunk - frame.size());
          frame.insert(frame.end(), bytes.begin(),
                       bytes.begin() + static_cast<std::ptrdiff_t>(n));
          bytes = bytes.subspan(n);
          if (frame.size() == header + kRestoreDataChunk) flush_frame();
        }
      });
  if (frame.size() > header) flush_frame();

  local_.counter(scope_ + "restores").add(1);
  local_.counter(scope_ + "restored_bytes").add(rr.logical_bytes);
  local_.histogram(scope_ + "restore_wall_us").observe(us_since(start));
  auto& reg = obs::MetricsRegistry::global();
  reg.counter("service.restores").add(1);
  reg.counter("service.bytes_restored").add(rr.logical_bytes);
  flush_metrics();
  DEFRAG_LOG_INFO("session.restore", {"tenant", tenant_},
                  {"backup_id", req.backup_id},
                  {"bytes", rr.logical_bytes},
                  {"container_loads", rr.container_loads});

  RestoreDoneResponse resp;
  resp.logical_bytes = rr.logical_bytes;
  resp.container_loads = rr.container_loads;
  send(encode(resp));
  return true;
}

bool Session::do_list() {
  BackupListResponse resp;
  resp.backups = env_.catalog.list(tenant_);
  send(encode(resp));
  return true;
}

bool Session::do_metrics() {
  std::ostringstream os;
  obs::write_metrics_json(obs::MetricsRegistry::global().snapshot(), os);
  send(encode_metrics_json(os.str()));
  return true;
}

bool Session::do_stats() {
  send(encode(collect_stats(env_.scheduler, env_.catalog, env_.limits,
                            env_.server_start)));
  return true;
}

bool Session::do_health() {
  send(encode(collect_health(env_.scheduler, env_.server_start)));
  return true;
}

bool Session::do_shutdown() {
  // Acknowledge first: once the drain starts, this session's next read
  // sees EOF and the loop exits cleanly.
  DEFRAG_LOG_INFO("session.shutdown_request", {"tenant", tenant_});
  send(encode_empty(FrameType::kOk));
  env_.request_stop();
  return true;
}

void Session::flush_metrics() {
  obs::MetricsRegistry::global().merge_from(local_);
  local_.reset();
}

}  // namespace defrag::service
