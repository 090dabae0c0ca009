// perfbench: the measurement half of the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--clients 1|2] [--scale default|tiny] [--socket <path>]
//
// Prints progress on stderr and one JSON object of raw measurements as the
// last line of stdout; perfbench/run.py turns it into the named metrics.
//
// Workloads (why each exists is recorded in BENCHMARK.json, which leaves
// out first-write as too noisy for its bounds; see README.md):
//   first-write         fresh incompressible streams: every chunk unique
//   generations         SingleUserSeries generations, each restored after
//                       it is written: second writes beside reads
//   restore-fragmented  a long series written during set-up, then restores
//                       of its latest and earliest generation
//   engine-series       DedupSystem(kDefrag, paper_engine_config()) through
//                       a series: Bloom filter, locality cache, SPL rewrite
//
// Load model: the daemon (service::Server) runs in this process and is
// driven over AF_UNIX by at most two clients, each on its own thread, in a
// closed loop (one client unless --clients 2). A run is a fixed number of
// rounds derived from --seconds, after an untimed warm-up round; every
// round starts a fresh daemon (or DedupSystem) and replays the same
// seed-derived inputs, so per-round counts repeat exactly. Inputs are
// generated before any timed interval, and restores are compared byte for
// byte with them after the interval that timed them.
//
// --trace 1 adds the per-layer ledger. After a warm-up round it runs cycles
// of one round untraced and one traced (the TraceRecorder on, metrics
// exports taken around the phase), each followed by timing the public
// entry points of each layer (chunker, FingerprintBatch, ShardedPagedIndex,
// ContainerStore, restore assembly, ParallelIngestor, TenantCatalog, wire
// framing) on that round's inputs.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/socket.h>

#include <algorithm>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "chunking/chunker.h"
#include "common/bytes.h"
#include "common/cpu.h"
#include "common/fingerprint.h"
#include "common/rng.h"
#include "common/sha_mb.h"
#include "core/dedup_system.h"
#include "core/parallel_ingest.h"
#include "dedup/engine.h"
#include "dedup/restore_strategies.h"
#include "harness.h"
#include "index/sharded_index.h"
#include "obs/json_writer.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/socket.h"
#include "service/tenant.h"
#include "service/wire.h"
#include "storage/container_store.h"
#include "storage/lru_cache.h"
#include "storage/recipe.h"
#include "workload/backup_series.h"

namespace {

using namespace defrag;
using Clock = std::chrono::steady_clock;
using service::FrameType;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------- options

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t clients = 1;
  bool tiny = false;
  std::string socket = ".bench_build/perfbench.sock";
};

std::optional<Options> parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      o.workload = val;
    } else if (key == "--seed") {
      o.seed = std::stoull(val);
    } else if (key == "--seconds") {
      o.seconds = std::stod(val);
    } else if (key == "--trace") {
      o.trace = val == "1";
    } else if (key == "--clients") {
      o.clients = std::stoul(val);
    } else if (key == "--scale") {
      o.tiny = val == "tiny";
    } else if (key == "--socket") {
      o.socket = val;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || o.workload.empty() || o.clients < 1 || o.clients > 2) {
    return std::nullopt;
  }
  return o;
}

// ------------------------------------------------------------ raw samples

/// What one client (or the engine loop) observed. Merged after the join.
struct Samples {
  std::vector<double> backup_s;
  std::vector<double> restore_s;
  std::vector<double> ttfb_s;
  std::uint64_t backup_bytes = 0;
  std::uint64_t restore_bytes = 0;
  std::uint64_t restore_loads = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void fail(const std::string& what) {
    ++failed;
    if (errors.size() < 8) errors.push_back(what);
  }

  void merge(const Samples& o) {
    backup_s.insert(backup_s.end(), o.backup_s.begin(), o.backup_s.end());
    restore_s.insert(restore_s.end(), o.restore_s.begin(), o.restore_s.end());
    ttfb_s.insert(ttfb_s.end(), o.ttfb_s.begin(), o.ttfb_s.end());
    backup_bytes += o.backup_bytes;
    restore_bytes += o.restore_bytes;
    restore_loads += o.restore_loads;
    attempted += o.attempted;
    failed += o.failed;
    for (const std::string& e : o.errors) {
      if (errors.size() < 8) errors.push_back(e);
    }
  }
};

/// Bytes and summed request time of one round, per direction.
struct RoundTotals {
  double backup_bytes = 0, backup_s = 0, restore_bytes = 0, restore_s = 0;
};

RoundTotals totals(const std::vector<const Samples*>& parts) {
  RoundTotals t;
  for (const Samples* s : parts) {
    t.backup_bytes += static_cast<double>(s->backup_bytes);
    t.restore_bytes += static_cast<double>(s->restore_bytes);
    for (const double v : s->backup_s) t.backup_s += v;
    for (const double v : s->restore_s) t.restore_s += v;
  }
  return t;
}

/// Simulated (DiskSim) clock totals.
struct SimTotals {
  std::uint64_t backup_bytes = 0;
  double backup_s = 0.0;
  std::uint64_t restore_bytes = 0;
  double restore_s = 0.0;
};

/// Physical bytes a store occupies: container payloads (after local
/// compression, when on) plus their metadata sections.
std::uint64_t physical_bytes(const ContainerStore& store) {
  std::uint64_t total = 0;
  const auto n = static_cast<ContainerId>(store.container_count());
  for (ContainerId id = 0; id < n; ++id) {
    const Container& c = store.peek(id);
    total += c.stored_bytes() + c.metadata_bytes();
  }
  return total;
}

std::string metrics_export() {
  std::ostringstream os;
  obs::write_metrics_json(obs::MetricsRegistry::global().snapshot(), os);
  return os.str();
}

// ----------------------------------------------------------------- inputs

/// Streams of one workload, generated from the seed before any timing.
using Inputs = std::vector<Bytes>;

std::uint64_t total_bytes(const Inputs& in) {
  std::uint64_t n = 0;
  for (const Bytes& s : in) n += s.size();
  return n;
}

Bytes random_stream(std::uint64_t seed, std::uint64_t size) {
  Bytes out(size);
  Xoshiro256 rng(seed);
  rng.fill(out);
  return out;
}

/// Series shape. Many small files keep a generation's size and churn
/// nearly the same from seed to seed (~28 MB generations). With `churn`
/// (~37 MB generations, heavier per-generation edits) a generation's chunks
/// spread over more containers sooner: after 12 generations the latest
/// references more containers than the daemon's 32-container restore
/// cache holds.
workload::FsParams series_fs(bool tiny, bool churn) {
  workload::FsParams fs;
  fs.initial_files = tiny ? 64 : (churn ? 1024 : 768);
  fs.mean_file_bytes = 16 * 1024;
  fs.mean_extent_bytes = 8 * 1024;
  if (churn) {
    fs.mutation.file_modify_prob = 0.55;
    fs.mutation.extent_replace_prob = 0.16;
    fs.mutation.extent_insert_prob = 0.03;
    fs.mutation.extent_delete_prob = 0.03;
  }
  return fs;
}

void append_series(std::uint64_t seed, const workload::FsParams& fs,
                   std::uint32_t generations, Inputs& in) {
  workload::SingleUserSeries series(seed, fs);
  for (std::uint32_t g = 0; g < generations; ++g) {
    in.push_back(series.next().stream);
  }
}

// ----------------------------------------------------------- wire client

/// One client connection speaking the protocol frame by frame, so a
/// restore's first RESTORE_DATA frame can be timed (service::Client returns
/// only at RESTORE_DONE).
class WireClient {
 public:
  WireClient(const std::string& socket, const std::string& tenant)
      : conn_(service::connect_unix(socket)) {
    service::HelloRequest hello;
    hello.tenant = tenant;
    conn_.send_frame(service::encode(hello));
    service::parse_hello_ok(expect(FrameType::kHelloOk));
  }

  service::BackupDoneResponse backup(ByteView stream) {
    conn_.send_frame(service::encode(service::BackupBeginRequest{"perfbench"}));
    expect(FrameType::kOk);
    for (std::uint64_t off = 0; off < stream.size(); off += kDataFrame) {
      const std::uint64_t n = std::min(kDataFrame, stream.size() - off);
      conn_.send_frame(service::encode_backup_data(stream.subspan(off, n)));
    }
    conn_.send_frame(service::encode_empty(FrameType::kBackupEnd));
    return service::parse_backup_done(expect(FrameType::kBackupDone));
  }

  /// Restores `id` into `out`; `first_frame` is set when the first
  /// RESTORE_DATA frame has been received.
  service::RestoreDoneResponse restore(std::uint32_t id, Bytes& out,
                                       Clock::time_point& first_frame) {
    conn_.send_frame(service::encode(service::RestoreRequest{id}));
    bool first = true;
    for (;;) {
      const Bytes payload = next_frame();
      const FrameType type = service::frame_type(payload);
      const ByteView body = service::frame_body(payload);
      if (type == FrameType::kRestoreData) {
        if (first) first_frame = Clock::now();
        first = false;
        out.insert(out.end(), body.begin(), body.end());
      } else if (type == FrameType::kRestoreDone) {
        if (first) first_frame = Clock::now();
        return service::parse_restore_done(body);
      } else {
        throw service::WireError("unexpected frame during restore: " +
                                 service::to_string(type));
      }
    }
  }

  std::string metrics_json() {
    conn_.send_frame(service::encode_empty(FrameType::kMetrics));
    return service::parse_metrics_json(expect(FrameType::kMetricsJson));
  }

 private:
  static constexpr std::uint64_t kDataFrame = 4ull << 20;  // as service::Client

  Bytes next_frame() {
    std::optional<Bytes> payload = conn_.recv_frame();
    if (!payload.has_value()) {
      throw service::WireError("server closed the connection");
    }
    const FrameType type = service::frame_type(*payload);
    if (type == FrameType::kError || type == FrameType::kRejected) {
      throw service::WireError(service::to_string(type) + ": " +
                               service::parse_reason(
                                   service::frame_body(*payload)));
    }
    return std::move(*payload);
  }

  Bytes expect(FrameType expected) {
    const Bytes payload = next_frame();
    if (service::frame_type(payload) != expected) {
      throw service::WireError(
          "unexpected response " +
          service::to_string(service::frame_type(payload)));
    }
    return to_bytes(service::frame_body(payload));
  }

  service::Conn conn_;
};

// ---------------------------------------------------------------- daemon

/// An in-process defrag-serve: the Server plus the thread running its
/// accept loop. Destruction drains it.
class Daemon {
 public:
  explicit Daemon(const std::string& socket)
      : server_(config(socket)), loop_([this] { serve(); }) {}
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() noexcept {
    server_.request_stop();
    loop_.join();
  }

  service::Server& server() { return server_; }

 private:
  static service::ServerConfig config(const std::string& socket) {
    service::ServerConfig cfg;  // defrag-serve's defaults
    cfg.socket_path = socket;
    return cfg;
  }

  void serve() noexcept {
    try {
      server_.run();
    } catch (const std::exception& e) {
      // Clients would wait forever on a dead accept loop.
      std::fprintf(stderr, "perfbench: daemon failed: %s\n", e.what());
      std::_Exit(3);
    }
  }

  service::Server server_;
  std::thread loop_;
};

// ------------------------------------------------------- service scripts

/// One step of a client's closed loop. A backup of inputs[input] stores the
/// id the daemon assigns at ids[input]; a restore of that id must return
/// exactly inputs[input]; a warm-up restore is checked the same way but not
/// timed; a barrier waits until every client reaches it.
enum class OpKind { kBackup, kRestore, kWarmRestore, kBarrier };

struct Op {
  OpKind kind = OpKind::kBackup;
  std::size_t input = 0;
};

struct Script {
  std::string tenant;
  std::vector<Op> ops;
};

/// A service workload: its inputs and each client's loop, plus (for
/// restore-fragmented) a series one client writes during set-up.
struct ServicePlan {
  Inputs inputs;
  std::vector<Script> clients;
  std::size_t rounds = 1;
  // The set-up series is generated while it is written, so only its first
  // and last generation stay in memory, as inputs 0 and 1.
  std::uint32_t preload_gens = 0;
  std::uint64_t preload_seed = 0;
  workload::FsParams preload_fs;
};

std::string tenant_name(std::size_t i) { return "tenant-" + std::to_string(i); }

/// Rounds in a run: --seconds over the workload's round time on a 4-core
/// reference host. A run is a fixed amount of work, so every commit
/// measures the same requests, however fast it serves them.
std::size_t rounds_for(const Options& o, double round_seconds) {
  if (o.tiny) return 1;
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(o.seconds / round_seconds)));
}

/// A run starts no new round once this many times --seconds have passed,
/// so on a host far slower than the reference it still ends in bounded
/// time, with fewer rounds (perfbench/run.py reports the shortfall).
constexpr double kMaxRunFactor = 1.25;

bool time_left(const Options& o, Clock::time_point start) {
  return since(start) < kMaxRunFactor * o.seconds;
}

/// Traced cycles in a --trace 1 run: each is an untraced round, a traced
/// round and the layer replay, about four rounds' worth of work.
std::size_t trace_cycles(std::size_t rounds) {
  return std::max<std::size_t>(1, rounds / 4);
}

ServicePlan plan_service(const Options& o) {
  ServicePlan p;
  const std::size_t k = o.clients;
  if (o.workload == "first-write") {
    const std::size_t per_client = o.tiny ? 3 : 4;
    const std::uint64_t size = o.tiny ? (1ull << 20) : (16ull << 20);
    for (std::size_t c = 0; c < k; ++c) {
      Script s{tenant_name(c), {}};
      for (std::size_t i = 0; i < per_client; ++i) {
        const std::size_t idx = c * per_client + i;
        p.inputs.push_back(random_stream(derive_seed(o.seed, idx), size));
        s.ops.push_back(Op{OpKind::kBackup, idx});
      }
      // Once every client has written, read every backup back once: the
      // restore of freshly written, sequentially placed data (and the check
      // that it was stored). An untimed restore goes first: a session's
      // first restore after its backups pays for fresh restore buffers,
      // and as one restore in four it would set the tail percentiles.
      s.ops.push_back(Op{OpKind::kBarrier});
      s.ops.push_back(Op{OpKind::kWarmRestore, c * per_client});
      for (std::size_t i = 0; i < per_client; ++i) {
        s.ops.push_back(Op{OpKind::kRestore, c * per_client + i});
      }
      p.clients.push_back(std::move(s));
    }
  } else if (o.workload == "generations") {
    const std::uint32_t gens = o.tiny ? 3 : 5;
    for (std::size_t c = 0; c < k; ++c) {
      append_series(derive_seed(o.seed, c), series_fs(o.tiny, false), gens,
                    p.inputs);
      // The clients move in step: both write a generation, then both read
      // it back, so each request meets the same concurrent load every round.
      Script s{tenant_name(c), {}};
      for (std::uint32_t g = 0; g < gens; ++g) {
        const std::size_t idx = c * gens + g;
        s.ops.push_back(Op{OpKind::kBackup, idx});
        s.ops.push_back(Op{OpKind::kBarrier});
        s.ops.push_back(Op{OpKind::kRestore, idx});
        s.ops.push_back(Op{OpKind::kBarrier});
      }
      p.clients.push_back(std::move(s));
    }
  } else if (o.workload == "restore-fragmented") {
    p.preload_gens = o.tiny ? 4 : 12;
    p.preload_seed = o.seed;
    p.preload_fs = series_fs(o.tiny, true);
    workload::SingleUserSeries series(p.preload_seed, p.preload_fs);
    for (std::uint32_t g = 0; g < p.preload_gens; ++g) {
      Bytes stream = series.next().stream;
      if (g == 0 || g + 1 == p.preload_gens) {
        p.inputs.push_back(std::move(stream));
      }
    }
    // Two restores of the latest generation for each of the earliest, so
    // the latency median and tail fall among the fragmented restores.
    const std::size_t restores = o.tiny ? 3 : 36;
    for (std::size_t c = 0; c < k; ++c) {
      Script s{tenant_name(0), {}};
      for (std::size_t i = 0; i < restores; ++i) {
        s.ops.push_back(Op{OpKind::kRestore, (i + c) % 3 == 2 ? 0u : 1u});
      }
      p.clients.push_back(std::move(s));
    }
  } else {
    throw std::invalid_argument("unknown workload " + o.workload);
  }
  p.rounds = rounds_for(o, o.workload == "first-write"   ? 0.32
                           : o.workload == "generations" ? 0.62
                                                         : 6.0);
  return p;
}

/// Every backup of a round: the set-up series (regenerated), then each
/// client's backups.
void for_each_backup(const ServicePlan& p,
                     const std::function<void(const Bytes&)>& body) {
  if (p.preload_gens > 0) {
    workload::SingleUserSeries series(p.preload_seed, p.preload_fs);
    for (std::uint32_t g = 0; g < p.preload_gens; ++g) body(series.next().stream);
  }
  for (const Script& s : p.clients) {
    for (const Op& op : s.ops) {
      if (op.kind == OpKind::kBackup) body(p.inputs[op.input]);
    }
  }
}

/// One timed backup, its BACKUP_DONE checked; returns the daemon's id.
std::uint32_t timed_backup(WireClient& client, const Bytes& src, Samples& out) {
  ++out.attempted;
  const auto t0 = Clock::now();
  const service::BackupDoneResponse done = client.backup(src);
  const double dt = since(t0);
  if (done.unique_bytes + done.dup_bytes != done.logical_bytes ||
      done.logical_bytes != src.size()) {
    out.fail("BACKUP_DONE accounting: unique " +
             std::to_string(done.unique_bytes) + " + dup " +
             std::to_string(done.dup_bytes) + " vs logical " +
             std::to_string(done.logical_bytes) + " vs sent " +
             std::to_string(src.size()));
  } else {
    out.backup_s.push_back(dt);
    out.backup_bytes += src.size();
  }
  return done.backup_id;
}

/// One timed restore, compared byte for byte with `src` afterwards.
void timed_restore(WireClient& client, std::uint32_t id, const Bytes& src,
                   Samples& out) {
  ++out.attempted;
  Bytes got;
  got.reserve(src.size());
  Clock::time_point first;
  const auto t0 = Clock::now();
  const service::RestoreDoneResponse done = client.restore(id, got, first);
  const double dt = since(t0);
  if (done.logical_bytes != got.size() || got != src) {
    out.fail("restore of backup " + std::to_string(id) +
             " is not bit-identical to its source");
    return;
  }
  out.restore_s.push_back(dt);
  out.ttfb_s.push_back(std::chrono::duration<double>(first - t0).count());
  out.restore_bytes += got.size();
  out.restore_loads += done.container_loads;
}

/// Run `ops` over `client` in a closed loop. The first transport failure
/// ends the loop (the connection state is unknown after it) and leaves
/// `sync`, so the other clients do not wait for this one.
void run_ops(WireClient& client, const std::vector<Op>& ops,
             const Inputs& in, std::vector<std::uint32_t>& ids,
             std::barrier<>& sync, Samples& out) {
  std::size_t i = 0;
  try {
    for (; i < ops.size(); ++i) {
      const Op& op = ops[i];
      const Bytes& src = in[op.input];
      switch (op.kind) {
        case OpKind::kBackup:
          ids[op.input] = timed_backup(client, src, out);
          break;
        case OpKind::kRestore:
          timed_restore(client, ids[op.input], src, out);
          break;
        case OpKind::kWarmRestore: {
          Samples warm;
          ++out.attempted;
          timed_restore(client, ids[op.input], src, warm);
          for (const std::string& e : warm.errors) out.fail(e);
          break;
        }
        case OpKind::kBarrier:
          sync.arrive_and_wait();
          break;
      }
    }
  } catch (const std::exception& e) {
    out.fail(e.what());
    const bool waits_left =
        std::any_of(ops.begin() + static_cast<std::ptrdiff_t>(i), ops.end(),
                    [](const Op& op) { return op.kind == OpKind::kBarrier; });
    if (waits_left) sync.arrive_and_drop();
  }
}

/// Write the set-up series through `client`, generating each generation
/// just before it is sent. Returns the seconds spent generating, which the
/// caller keeps out of the set-up time.
double write_preload(WireClient& client, const ServicePlan& p,
                     std::vector<std::uint32_t>& ids, Samples& out) {
  double generating = 0.0;
  try {
    workload::SingleUserSeries series(p.preload_seed, p.preload_fs);
    for (std::uint32_t g = 0; g < p.preload_gens; ++g) {
      const auto t = Clock::now();
      const Bytes stream = series.next().stream;
      generating += since(t);
      const std::uint32_t id = timed_backup(client, stream, out);
      if (g == 0) ids[0] = id;
      if (g + 1 == p.preload_gens) ids[1] = id;
    }
  } catch (const std::exception& e) {
    out.fail(e.what());
  }
  return generating;
}

// ------------------------------------------------------- per-layer ledger

/// Busy seconds and work counts per layer, by name (perfbench/run.py reads
/// them), summed over the replayed requests and the replay threads.
using Ledger = std::map<std::string, double>;

/// Run `body(i)` on one thread per index and join them all.
template <typename F>
void on_threads(std::size_t n, F body) {
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (std::size_t i = 0; i < n; ++i) threads.emplace_back(body, i);
  for (std::thread& t : threads) t.join();
}

/// Run `body(c, ledger)` for each of `k` clients on its own thread, as the
/// daemon's sessions run, and sum their ledgers into `l`. A failure on a
/// replay thread fails the run (the replay is the benchmark's own code).
template <typename F>
void per_client_threads(std::size_t k, Ledger& l, F body) {
  std::vector<Ledger> parts(k);
  on_threads(k, [&](std::size_t c) {
    try {
      body(c, parts[c]);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: layer replay failed: %s\n", e.what());
      std::_Exit(1);
    }
  });
  for (const Ledger& part : parts) {
    for (const auto& [name, value] : part) l[name] += value;
  }
}

/// Per-client inputs of a plan's timed phase, for one kind of request.
std::vector<std::vector<const Bytes*>> streams_of(const ServicePlan& p,
                                                  OpKind kind) {
  std::vector<std::vector<const Bytes*>> out;
  for (const Script& s : p.clients) {
    std::vector<const Bytes*> mine;
    for (const Op& op : s.ops) {
      if (op.kind == kind) mine.push_back(&p.inputs[op.input]);
    }
    out.push_back(std::move(mine));
  }
  return out;
}

/// Chunk + fingerprint one stream as ParallelIngestor does (boundaries
/// first, then one multi-buffer batch), timing each stage.
std::vector<StreamChunk> chunk_and_fingerprint(const Chunker& chunker,
                                               ByteView stream, Ledger& l) {
  auto t = Clock::now();
  std::vector<ChunkRef> refs;
  refs.reserve(stream.size() / ChunkerParams{}.avg_size + 1);
  chunker.split_to(stream, [&](const ChunkRef& r) { refs.push_back(r); });
  l["chunk_s"] += since(t);
  l["chunk_bytes"] += static_cast<double>(stream.size());
  l["chunks"] += static_cast<double>(refs.size());

  t = Clock::now();
  std::vector<StreamChunk> chunks(refs.size());
  simd::FingerprintBatch batch;
  for (std::size_t i = 0; i < refs.size(); ++i) {
    chunks[i] = StreamChunk{Fingerprint{}, refs[i].offset, refs[i].size};
    batch.add(stream.subspan(refs[i].offset, refs[i].size), &chunks[i].fp);
  }
  batch.flush();
  l["fp_s"] += since(t);
  l["fp_flushes"] += static_cast<double>(batch.flush_sizes().size());
  return chunks;
}

/// Stage-by-stage replay of a client's backups against a shared index and
/// store: chunk, fingerprint, index claim/publish, container append/seal.
void replay_backup_stages(const ParallelIngestParams& params,
                          ShardedPagedIndex& index, ContainerStore& store,
                          const std::vector<const Bytes*>& streams, Ledger& l) {
  const std::unique_ptr<Chunker> chunker =
      make_chunker(params.chunker_kind, params.chunker);
  DiskSim sim(params.disk);
  double index_s = 0, append_s = 0, appended = 0;
  for (const Bytes* s : streams) {
    const ByteView stream(*s);
    const std::vector<StreamChunk> chunks =
        chunk_and_fingerprint(*chunker, stream, l);
    ContainerStore::StreamAppender appender = store.open_stream();
    for (const StreamChunk& c : chunks) {
      auto t = Clock::now();
      const ShardedPagedIndex::ClaimResult claim =
          index.lookup_or_claim(c.fp, sim);
      index_s += since(t);
      if (claim.state != ShardedPagedIndex::ClaimState::kClaimed) continue;
      t = Clock::now();
      const ChunkLocation loc = appender.append(
          c.fp, stream.subspan(c.stream_offset, c.size), kInvalidSegment, sim);
      append_s += since(t);
      appended += c.size;
      t = Clock::now();
      index.publish(c.fp, IndexValue{loc, kInvalidSegment}, sim);
      index_s += since(t);
    }
    const auto t = Clock::now();
    appender.close();
    append_s += since(t);
  }
  l["index_s"] += index_s;
  l["append_s"] += append_s;
  l["appended_bytes"] += appended;
}

void replay_service_backups(const ServicePlan& p,
                            const ParallelIngestParams& params, Ledger& l) {
  const auto per_client = streams_of(p, OpKind::kBackup);
  const std::size_t k = per_client.size();

  // The composed path the daemon calls: ParallelIngestor::ingest_stream,
  // once untimed so both replays run on an equally warm heap.
  std::vector<std::vector<Recipe>> recipes(k);
  for (const bool timed : {false, true}) {
    ParallelIngestor ingestor(params);
    Ledger discard;
    per_client_threads(k, timed ? l : discard, [&](std::size_t c, Ledger& m) {
      for (const Bytes* s : per_client[c]) {
        Recipe recipe("replay");
        const auto t = Clock::now();
        const StreamIngestStats st = ingestor.ingest_stream(*s, &recipe);
        m["core_s"] += since(t);
        m["core_chunks"] += static_cast<double>(st.chunk_count);
        m["core_dup_chunks"] += static_cast<double>(st.dup_chunks);
        m["core_dup_bytes"] += static_cast<double>(st.dup_bytes);
        m["core_logical"] += static_cast<double>(st.logical_bytes);
        m["core_pending"] += static_cast<double>(st.pending_dup_chunks);
        if (timed) recipes[c].push_back(std::move(recipe));
      }
    });
  }

  // The stages, against one shared index and store.
  ShardedPagedIndex index(params.index_shards, params.index);
  ContainerStore store(params.container_bytes, params.compress_containers);
  per_client_threads(k, l, [&](std::size_t c, Ledger& m) {
    replay_backup_stages(params, index, store, per_client[c], m);
  });
  l["seals"] += static_cast<double>(store.container_count());

  service::TenantCatalog catalog;
  for (std::size_t c = 0; c < k; ++c) {
    for (Recipe& r : recipes[c]) {
      const auto t = Clock::now();
      catalog.commit("replay-" + tenant_name(c), std::move(r));
      l["commit_s"] += since(t);
    }
  }
}

/// Load and assembly of one restore, split apart from the container-LRU
/// walk restore_with_strategy interleaves them in.
void replay_restore(const ContainerStore& store, const Recipe& recipe,
                    const DiskModel& disk, std::size_t cache_containers,
                    Ledger& l) {
  {
    DiskSim sim(disk);
    LruCache<ContainerId, char> cache(cache_containers);
    double hits = 0, loads = 0, loaded = 0;
    const auto t = Clock::now();
    for (const RecipeEntry& e : recipe.entries()) {
      if (cache.get(e.location.container) != nullptr) {
        ++hits;
        continue;
      }
      loaded += static_cast<double>(
          store.load(e.location.container, sim).stored_bytes());
      cache.put(e.location.container, 0);
      ++loads;
    }
    l["load_s"] += since(t);
    l["restore_hits"] += hits;
    l["restore_lookups"] += static_cast<double>(recipe.entries().size());
    l["loads"] += loads;
    l["loaded_bytes"] += loaded;
  }
  {
    Bytes out;
    out.reserve(recipe.logical_bytes());
    const auto t = Clock::now();
    for (const RecipeEntry& e : recipe.entries()) {
      const ByteView b = store.peek(e.location.container).read(e.location);
      out.insert(out.end(), b.begin(), b.end());
    }
    l["assemble_s"] += since(t);
    l["restored_bytes"] += static_cast<double>(out.size());
  }
  l["switches"] += static_cast<double>(recipe.container_switches());
  l["distinct"] += static_cast<double>(recipe.distinct_containers());
}

/// Encode + Conn send/recv of `streams` as 4 MiB data frames over a
/// socketpair, the receiver collecting each stream into one buffer as both
/// ends of the daemon do: the wire layer's cost for those bytes, isolated.
double time_framing(const std::vector<const Bytes*>& streams, bool restore) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throw std::runtime_error("socketpair failed");
  }
  service::Conn tx(fds[0]);
  service::Conn rx(fds[1]);
  constexpr std::uint64_t kFrame = 4ull << 20;
  const auto t = Clock::now();
  std::thread reader([&rx, &streams] {
    try {
      for (const Bytes* s : streams) {
        Bytes got;
        got.reserve(s->size());
        while (got.size() < s->size()) {
          const std::optional<Bytes> f = rx.recv_frame();
          if (!f.has_value()) return;
          const ByteView body = service::frame_body(*f);
          got.insert(got.end(), body.begin(), body.end());
        }
      }
    } catch (const std::exception&) {
      // The sender saw the same failure and reports it.
    }
  });
  try {
    for (const Bytes* s : streams) {
      const ByteView v(*s);
      for (std::uint64_t off = 0; off < v.size(); off += kFrame) {
        const ByteView part = v.subspan(off, std::min(kFrame, v.size() - off));
        tx.send_frame(restore ? service::encode_restore_data(part)
                              : service::encode_backup_data(part));
      }
    }
  } catch (...) {
    tx.close();  // unblocks the reader
    reader.join();
    throw;
  }
  reader.join();
  return since(t);
}

// ------------------------------------------------------------ JSON output

class Json {
 public:
  Json& key(const std::string& k) {
    sep();
    os_ << obs::json_quote(k) << ": ";
    fresh_ = true;
    return *this;
  }
  Json& num(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    os_ << buf;
    fresh_ = false;
    return *this;
  }
  Json& str(const std::string& s) {
    os_ << obs::json_quote(s);
    fresh_ = false;
    return *this;
  }
  Json& raw(const std::string& s) {
    os_ << s;
    fresh_ = false;
    return *this;
  }
  Json& nums(const std::vector<double>& v) {
    os_ << "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%s%.17g", i ? ", " : "", v[i]);
      os_ << buf;
    }
    os_ << "]";
    fresh_ = false;
    return *this;
  }
  Json& open() {
    sep();
    os_ << "{";
    fresh_ = true;
    return *this;
  }
  Json& close() {
    os_ << "}";
    fresh_ = false;
    return *this;
  }
  std::string text() const { return os_.str(); }

 private:
  void sep() {
    if (!fresh_) os_ << ", ";
  }
  std::ostringstream os_;
  bool fresh_ = true;
};

void write_ledger(Json& j, const Ledger& l) {
  j.key("ledger").open();
  for (const auto& [name, value] : l) j.key(name).num(value);
  j.close();
}

// ------------------------------------------------------------- the runs

/// Everything a run measured, in raw form.
struct RunResult {
  std::vector<double> setup_s;
  std::vector<RoundTotals> rounds;
  std::size_t rounds_planned = 0;  // rounds, or traced cycles
  Samples samples;
  SimTotals sim;
  std::uint64_t logical_ingested = 0;  // one round, set-up writes included
  std::uint64_t physical_stored = 0;   // one round
  std::uint64_t latest_distinct_containers = 0;
  int cpu = -1;  // the core every thread runs on; -1 when pinning failed
  /// High-water RSS once set-up and the warm-up round have run. Later
  /// rounds raise it only by what the allocator kept from earlier rounds'
  /// daemons, which grows with the number of rounds a host fits in.
  double peak_rss_mib = 0;
  // --trace 1 only.
  double untraced_wall_s = 0, traced_wall_s = 0;
  std::uint64_t trace_events = 0;
  double client_backup_s = 0, client_restore_s = 0;
  /// defrag.metrics.v1 exports taken before and after each traced phase.
  std::vector<std::pair<std::string, std::string>> exports;
  Ledger ledger;
};

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// After the warm-up round: record the high-water RSS, then forget the
/// round's timings, keeping its request counts, failures and per-round
/// counts. The warm-up round pays for first-touch memory and lazy set-up
/// that later rounds do not.
void drop_timings(RunResult& r) {
  r.peak_rss_mib = peak_rss_mib();
  r.setup_s.clear();
  r.rounds.clear();
  Samples& s = r.samples;
  s.backup_s.clear();
  s.restore_s.clear();
  s.ttfb_s.clear();
  s.backup_bytes = s.restore_bytes = s.restore_loads = 0;
}

using Inspect =
    std::function<void(service::Server&, const std::vector<std::uint32_t>&)>;

/// One service round: a fresh daemon, the set-up writes, then the clients'
/// closed loops (the phase). With `traced` the daemon's TraceRecorder runs
/// over the phase and its metrics export is fetched around it. `inspect`
/// runs once the clients are done, while the daemon is still up. Returns
/// the phase's wall time.
double service_round(const Options& o, const ServicePlan& p, bool traced,
                     RunResult& r, Samples& phase, const Inspect& inspect) {
  std::vector<std::uint32_t> ids(p.inputs.size(), 0);
  const auto t0 = Clock::now();
  Daemon daemon(o.socket);
  std::vector<std::unique_ptr<WireClient>> clients;
  for (const Script& s : p.clients) {
    clients.push_back(std::make_unique<WireClient>(o.socket, s.tenant));
  }
  double generating = 0.0;
  Samples preload;
  if (p.preload_gens > 0) {
    WireClient writer(o.socket, tenant_name(0));
    generating = write_preload(writer, p, ids, preload);
  }
  r.setup_s.push_back(since(t0) - generating);

  if (traced) {
    r.exports.emplace_back(
        WireClient(o.socket, "perfbench-probe").metrics_json(), "");
    obs::TraceRecorder::global().clear();
    obs::TraceRecorder::global().enable();
  }
  std::vector<Samples> per_client(clients.size());
  const auto phase_start = Clock::now();
  std::barrier<> sync(static_cast<std::ptrdiff_t>(clients.size()));
  on_threads(clients.size(), [&](std::size_t c) {
    run_ops(*clients[c], p.clients[c].ops, p.inputs, ids, sync,
            per_client[c]);
  });
  const double wall = since(phase_start);
  clients.clear();
  if (traced) {
    obs::TraceRecorder::global().disable();
    r.trace_events += obs::TraceRecorder::global().event_count();
    obs::TraceRecorder::global().clear();
    r.exports.back().second =
        WireClient(o.socket, "perfbench-probe").metrics_json();
  }
  std::vector<const Samples*> parts{&preload};
  for (const Samples& s : per_client) parts.push_back(&s);
  r.rounds.push_back(totals(parts));
  r.samples.merge(preload);
  for (const Samples& s : per_client) phase.merge(s);
  inspect(daemon.server(), ids);
  return wall;
}

/// The recipes each client's restores of a round read, from the daemon's
/// catalog.
std::vector<std::vector<std::shared_ptr<const Recipe>>> restore_recipes(
    service::Server& server, const ServicePlan& p,
    const std::vector<std::uint32_t>& ids) {
  std::vector<std::vector<std::shared_ptr<const Recipe>>> out;
  for (const Script& s : p.clients) {
    std::vector<std::shared_ptr<const Recipe>> mine;
    for (const Op& op : s.ops) {
      if (op.kind != OpKind::kRestore) continue;
      if (auto recipe = server.catalog().find(s.tenant, ids[op.input])) {
        mine.push_back(std::move(recipe));
      }
    }
    out.push_back(std::move(mine));
  }
  return out;
}

void run_service(const Options& o, RunResult& r) {
  const ServicePlan plan = plan_service(o);
  std::fprintf(stderr, "perfbench: %s: %.1f MB of inputs in %zu streams\n",
               o.workload.c_str(),
               static_cast<double>(total_bytes(plan.inputs)) / 1e6,
               plan.inputs.size());
  const ParallelIngestParams params = service::ServerConfig{}.ingest;
  const RestoreOptions restore_options;  // what the daemon's sessions use

  // The daemon's state after the first round: space, how fragmented the
  // set-up's latest backup is, and the DiskSim restore clock over the
  // daemon's own store and recipes.
  const Inspect inspect_state = [&](service::Server& server,
                                    const std::vector<std::uint32_t>& ids) {
    const ContainerStore& store = server.ingestor().store();
    r.physical_stored = physical_bytes(store);
    for (const auto& mine : restore_recipes(server, plan, ids)) {
      for (const auto& recipe : mine) {
        const RestoreResult rr = restore_with_strategy(
            store, *recipe, params.disk, restore_options, nullptr);
        r.sim.restore_bytes += rr.logical_bytes;
        r.sim.restore_s += rr.sim_seconds;
      }
    }
    if (plan.preload_gens > 0) {
      const auto latest = server.catalog().find(tenant_name(0), ids[1]);
      if (latest != nullptr) {
        r.latest_distinct_containers = latest->distinct_containers();
      }
    }
  };
  const Inspect nothing = [](service::Server&,
                             const std::vector<std::uint32_t>&) {};

  r.rounds_planned = o.trace ? trace_cycles(plan.rounds) : plan.rounds;
  const auto start = Clock::now();
  if (!o.trace) {
    service_round(o, plan, false, r, r.samples, inspect_state);  // warm-up
    drop_timings(r);
    for (std::size_t i = 0; i < plan.rounds && (i == 0 || time_left(o, start));
         ++i) {
      service_round(o, plan, false, r, r.samples, nothing);
    }
  } else {
    // A warm-up round, then cycles of the same round untraced and traced,
    // each followed by the layer replay on the traced round's inputs and
    // daemon state. Totals sum over the cycles.
    service_round(o, plan, false, r, r.samples, inspect_state);
    r.peak_rss_mib = peak_rss_mib();
    const Inspect replay_restores = [&](service::Server& server,
                                        const std::vector<std::uint32_t>& ids) {
      const ContainerStore& store = server.ingestor().store();
      const auto recipes = restore_recipes(server, plan, ids);
      per_client_threads(recipes.size(), r.ledger,
                         [&](std::size_t c, Ledger& m) {
                           for (const auto& recipe : recipes[c]) {
                             replay_restore(store, *recipe, params.disk,
                                            restore_options.cache_containers,
                                            m);
                           }
                         });
    };
    const auto backups = streams_of(plan, OpKind::kBackup);
    const auto restores = streams_of(plan, OpKind::kRestore);
    for (std::size_t i = 0;
         i < trace_cycles(plan.rounds) && (i == 0 || time_left(o, start)); ++i) {
      r.untraced_wall_s +=
          service_round(o, plan, false, r, r.samples, nothing);
      Samples traced;
      r.traced_wall_s +=
          service_round(o, plan, true, r, traced, replay_restores);
      for (const double s : traced.backup_s) r.client_backup_s += s;
      for (const double s : traced.restore_s) r.client_restore_s += s;
      r.samples.merge(traced);
      replay_service_backups(plan, params, r.ledger);
      per_client_threads(backups.size(), r.ledger,
                         [&](std::size_t c, Ledger& m) {
                           m["frame_backup_s"] += time_framing(backups[c], false);
                           m["frame_restore_s"] += time_framing(restores[c], true);
                         });
    }
  }

  // DiskSim backup clock: a round's backups, serially, through a fresh
  // ingestor with the daemon's parameters.
  ParallelIngestor ingestor(params);
  for_each_backup(plan, [&](const Bytes& stream) {
    const StreamIngestStats st = ingestor.ingest_stream(stream);
    r.sim.backup_bytes += st.logical_bytes;
    r.sim.backup_s += st.sim_seconds;
  });
  r.logical_ingested = r.sim.backup_bytes;
}

// ---------------------------------------------------------- engine-series

/// One engine round: a fresh DedupSystem, every generation backed up, then
/// every generation restored and compared with its source. `first` records
/// the round's counts and DiskSim clocks; `traced` runs the TraceRecorder
/// over the round, takes the metrics export around it and then replays the
/// layers into r.ledger. Returns the round's wall time.
double engine_round(const Inputs& in, RunResult& r, bool first, bool traced) {
  const EngineConfig cfg = bench::paper_engine_config();
  const auto t0 = Clock::now();
  DedupSystem sys(EngineKind::kDefrag, cfg);
  r.setup_s.push_back(since(t0));
  Samples out;
  Ledger& l = r.ledger;
  if (traced) {
    r.exports.emplace_back(metrics_export(), "");
    obs::TraceRecorder::global().clear();
    obs::TraceRecorder::global().enable();
  }
  const auto start = Clock::now();
  try {
    for (const Bytes& s : in) {
      ++out.attempted;
      const auto t = Clock::now();
      const BackupResult b = sys.ingest(s);
      const double dt = since(t);
      if (b.logical_bytes != s.size()) {
        out.fail("engine backup accounted " + std::to_string(b.logical_bytes) +
                 " of " + std::to_string(s.size()) + " bytes");
        continue;
      }
      out.backup_s.push_back(dt);
      out.backup_bytes += s.size();
      if (first) {
        r.sim.backup_bytes += b.logical_bytes;
        r.sim.backup_s += b.sim_seconds;
      }
      if (traced) {
        l["engine_backup_s"] += dt;
        l["engine_rewritten"] += static_cast<double>(b.rewritten_bytes);
      }
    }
    // An untimed restore goes first: the first restore after the backups
    // pays for fresh memory for its output and, as one restore in ten, set
    // the p90 tail or not depending on the seed.
    ++out.attempted;
    if (sys.restore_bytes(1) != in[0]) {
      out.fail("engine warm-up restore of generation 1 is not bit-identical "
               "to its source");
    }
    for (std::uint32_t g = 1; g <= in.size(); ++g) {
      ++out.attempted;
      RestoreResult rr;
      const auto t = Clock::now();
      const Bytes got = sys.restore_bytes(g, &rr);
      const double dt = since(t);
      if (got != in[g - 1]) {
        out.fail("engine restore of generation " + std::to_string(g) +
                 " is not bit-identical to its source");
        continue;
      }
      out.restore_s.push_back(dt);
      out.ttfb_s.push_back(dt);  // the engine returns a restore whole
      out.restore_bytes += got.size();
      out.restore_loads += rr.container_loads;
      if (first) {
        r.sim.restore_bytes += rr.logical_bytes;
        r.sim.restore_s += rr.sim_seconds;
      }
      if (traced) l["engine_restore_s"] += dt;
    }
  } catch (const std::exception& e) {
    out.fail(e.what());
  }
  const double wall = since(start);
  r.rounds.push_back(totals({&out}));
  r.samples.merge(out);

  const auto& base = dynamic_cast<const EngineBase&>(sys.engine());
  const auto last = static_cast<std::uint32_t>(in.size());
  if (first) {
    r.physical_stored = physical_bytes(base.container_store());
    r.logical_ingested = sys.logical_bytes_ingested();
    if (base.recipe_store().contains(last)) {
      r.latest_distinct_containers =
          base.recipe_store().get(last).distinct_containers();
    }
  }
  if (traced) {
    obs::TraceRecorder::global().disable();
    r.trace_events += obs::TraceRecorder::global().event_count();
    obs::TraceRecorder::global().clear();
    r.exports.back().second = metrics_export();
    for (std::uint32_t g = 1; g <= last; ++g) {
      if (!base.recipe_store().contains(g)) continue;
      replay_restore(base.container_store(), base.recipe_store().get(g),
                     cfg.disk, cfg.restore_cache_containers, l);
    }
    const std::unique_ptr<Chunker> chunker =
        make_chunker(cfg.chunker_kind, cfg.chunker);
    for (const Bytes& s : in) chunk_and_fingerprint(*chunker, s, l);
  }
  return wall;
}

void run_engine(const Options& o, RunResult& r) {
  Inputs in;
  append_series(o.seed, series_fs(o.tiny, false), o.tiny ? 4 : 10, in);
  const std::size_t rounds = rounds_for(o, 0.71);
  r.rounds_planned = o.trace ? trace_cycles(rounds) : rounds;
  const auto start = Clock::now();
  std::fprintf(stderr, "perfbench: %s: %.1f MB of inputs in %zu streams\n",
               o.workload.c_str(), static_cast<double>(total_bytes(in)) / 1e6,
               in.size());
  if (o.trace) {
    engine_round(in, r, true, false);  // warm-up
    r.peak_rss_mib = peak_rss_mib();
    for (std::size_t i = 0;
         i < trace_cycles(rounds) && (i == 0 || time_left(o, start)); ++i) {
      r.untraced_wall_s += engine_round(in, r, false, false);
      r.traced_wall_s += engine_round(in, r, false, true);
    }
    r.client_backup_s = r.ledger["engine_backup_s"];
    r.client_restore_s = r.ledger["engine_restore_s"];
    return;
  }
  engine_round(in, r, true, false);  // warm-up
  drop_timings(r);
  for (std::size_t i = 0; i < rounds && (i == 0 || time_left(o, start)); ++i) {
    engine_round(in, r, false, false);
  }
}

// ------------------------------------------------------------- reporting

/// A JSON document on one line (the report must be the last stdout line).
std::string one_line(std::string json) {
  std::replace(json.begin(), json.end(), '\n', ' ');
  return json;
}

std::string report(const Options& o, const RunResult& r) {
  const Samples& s = r.samples;
  Json j;
  j.open();
  j.key("workload").str(o.workload);
  j.key("seed").num(static_cast<double>(o.seed));
  j.key("clients").num(static_cast<double>(o.clients));
  j.key("scale").str(o.tiny ? "tiny" : "default");
  j.key("env").open();
  j.key("hardware_concurrency")
      .num(static_cast<double>(std::thread::hardware_concurrency()));
  j.key("isa_level").num(static_cast<double>(cpu::active_isa_level()));
  j.key("isa_name").str(cpu::isa_level_name(cpu::active_isa_level()));
  const char* scalar = std::getenv("DEFRAG_FORCE_SCALAR");
  j.key("force_scalar").str(scalar != nullptr ? scalar : "");
  j.key("build_type").str(PERFBENCH_BUILD_TYPE);
  j.key("pinned_cpu").num(static_cast<double>(r.cpu));
  j.key("service_cpu_mb_per_s").num(service::ServerConfig{}.ingest.cpu_mb_per_s);
  j.key("engine_cpu_mb_per_s").num(bench::paper_engine_config().cpu_mb_per_s);
  j.close();
  j.key("rounds_planned").num(static_cast<double>(r.rounds_planned));
  j.key("setup_s").nums(r.setup_s);
  j.key("rounds").raw("[");
  for (std::size_t i = 0; i < r.rounds.size(); ++i) {
    const RoundTotals& t = r.rounds[i];
    j.raw(i ? ", " : "").nums({t.backup_bytes, t.backup_s, t.restore_bytes,
                               t.restore_s});
  }
  j.raw("]");
  j.key("backup_s").nums(s.backup_s);
  j.key("restore_s").nums(s.restore_s);
  j.key("ttfb_s").nums(s.ttfb_s);
  j.key("backup_bytes").num(static_cast<double>(s.backup_bytes));
  j.key("restore_bytes").num(static_cast<double>(s.restore_bytes));
  j.key("restore_loads").num(static_cast<double>(s.restore_loads));
  j.key("attempted").num(static_cast<double>(s.attempted));
  j.key("failed").num(static_cast<double>(s.failed));
  j.key("errors").raw("[");
  for (std::size_t i = 0; i < s.errors.size(); ++i) {
    j.raw(i ? ", " : "").str(s.errors[i]);
  }
  j.raw("]");
  j.key("logical_ingested").num(static_cast<double>(r.logical_ingested));
  j.key("physical_stored").num(static_cast<double>(r.physical_stored));
  j.key("latest_distinct_containers")
      .num(static_cast<double>(r.latest_distinct_containers));
  j.key("sim_backup_bytes").num(static_cast<double>(r.sim.backup_bytes));
  j.key("sim_backup_s").num(r.sim.backup_s);
  j.key("sim_restore_bytes").num(static_cast<double>(r.sim.restore_bytes));
  j.key("sim_restore_s").num(r.sim.restore_s);
  j.key("peak_rss_mib").num(r.peak_rss_mib);
  if (o.trace) {
    j.key("trace").open();
    j.key("untraced_wall_s").num(r.untraced_wall_s);
    j.key("traced_wall_s").num(r.traced_wall_s);
    j.key("trace_events").num(static_cast<double>(r.trace_events));
    j.key("client_backup_s").num(r.client_backup_s);
    j.key("client_restore_s").num(r.client_restore_s);
    j.key("exports").raw("[");
    for (std::size_t i = 0; i < r.exports.size(); ++i) {
      j.raw(i ? ", [" : "[").raw(one_line(r.exports[i].first));
      j.raw(", ").raw(one_line(r.exports[i].second)).raw("]");
    }
    j.raw("]");
    write_ledger(j, r.ledger);
    j.close();
  }
  j.close();
  return j.text();
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<Options> opts;
  try {
    opts = parse_options(argc, argv);
  } catch (const std::exception&) {
    opts.reset();  // a number that does not parse
  }
  if (!opts.has_value()) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--clients 1|2] [--scale default|tiny] "
                 "[--socket <path>]\n");
    return 2;
  }
  // One allocator regime for every run. glibc raises its mmap and trim
  // thresholds as a process frees large buffers, so whether a buffer came
  // from fresh mmap'd (page-faulting) memory or from warm heap depended on
  // what earlier rounds had freed, and the same restore ran at 1x or 2.5x
  // from seed to seed. Start at the values a long-running daemon reaches:
  // the 32 MiB mmap ceiling and twice that as the trim threshold.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);
  RunResult r;
  // Every thread (clients, sessions, accept loop) runs on one core. On a
  // VM whose host other tenants share, a thread woken on another, idle
  // vCPU waits until the host runs that vCPU again. A restore hands its
  // socket between the session and the client a few hundred times, and
  // its latency swung 2x with the other tenants' load; on one core those
  // hand-offs are local context switches.
  cpu_set_t one;
  CPU_ZERO(&one);
  const int cpu = sched_getcpu();
  if (cpu >= 0) {
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof one, &one) == 0) r.cpu = cpu;
  }
  // The daemon logs at its default level, as defrag-serve does; the lines
  // are formatted but dropped so they do not interleave with the report.
  obs::Logger::global().set_sink([](std::string_view) {});
  try {
    if (opts->workload == "engine-series") {
      run_engine(*opts, r);
    } else {
      run_service(*opts, r);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  std::printf("%s\n", report(*opts, r).c_str());
  return 0;
}
