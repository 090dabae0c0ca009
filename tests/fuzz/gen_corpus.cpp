// Seed-corpus generator for tests/fuzz/.
//
// Writes one deterministic seed set per harness into <out-dir>/<harness>/.
// The checked-in corpora under tests/fuzz/corpus/ were produced by this
// tool (then extended with minimized crashers as fuzzing finds them); to
// regenerate after a protocol change:
//
//   cmake --build build --target fuzz_gen_corpus
//   ./build/tests/fuzz/fuzz_gen_corpus tests/fuzz/corpus
//
// Seeds are *valid* instances — the fuzzer's job is to mutate them into
// invalid ones, and libFuzzer reaches deep parse paths orders of magnitude
// faster when every branch of the happy path is already covered.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "service/protocol.h"
#include "service/wire.h"

namespace fs = std::filesystem;
using namespace defrag;
using namespace defrag::service;

namespace {

void write_seed(const fs::path& dir, const std::string& name,
                const Bytes& data) {
  fs::create_directories(dir);
  std::ofstream out(dir / name, std::ios::binary);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
}

Bytes from_string(const std::string& s) {
  return Bytes(s.begin(), s.end());
}

void gen_wire(const fs::path& dir) {
  // Harness input: [script_len u8][script ops][frame body].
  {
    Bytes body;
    WireWriter w(body);
    w.u8(0x42);
    w.u32(0xdeadbeefu);
    w.u64(0x0123456789abcdefull);
    w.str("tenant-a");
    Bytes seed = {4, 0, 1, 2, 3};  // ops: u8, u32, u64, str
    seed.insert(seed.end(), body.begin(), body.end());
    write_seed(dir, "primitives.bin", seed);
  }
  {
    Bytes body;
    WireWriter w(body);
    w.str("");
    w.raw(from_string("raw tail"));
    Bytes seed = {2, 3, 5};  // ops: str, rest
    seed.insert(seed.end(), body.begin(), body.end());
    write_seed(dir, "empty_string_then_rest.bin", seed);
  }
  {
    // bytes(20) over a fingerprint-sized field: op 4 + 6*20 = 124.
    Bytes body(20, 0xaa);
    Bytes seed = {1, 124};
    seed.insert(seed.end(), body.begin(), body.end());
    write_seed(dir, "fixed_bytes_20.bin", seed);
  }
  {
    Bytes body;
    WireWriter w(body);
    w.u32(3);  // truncated u64 follows
    Bytes seed = {2, 1, 2};
    seed.insert(seed.end(), body.begin(), body.end());
    write_seed(dir, "truncated_u64.bin", seed);
  }
}

void gen_protocol_request(const fs::path& dir) {
  HelloRequest hello;
  hello.tenant = "alice";
  write_seed(dir, "hello.bin", encode(hello));

  BackupBeginRequest begin;
  begin.label = "daily-2026-08-08";
  write_seed(dir, "backup_begin.bin", encode(begin));

  write_seed(dir, "backup_data.bin",
             encode_backup_data(ByteView(from_string("chunk payload bytes"))));
  write_seed(dir, "backup_end.bin", encode_empty(FrameType::kBackupEnd));

  RestoreRequest restore;
  restore.backup_id = 7;
  write_seed(dir, "restore.bin", encode(restore));

  write_seed(dir, "list.bin", encode_empty(FrameType::kList));
  write_seed(dir, "metrics.bin", encode_empty(FrameType::kMetrics));
  write_seed(dir, "shutdown.bin", encode_empty(FrameType::kShutdown));
  write_seed(dir, "stats.bin", encode_empty(FrameType::kStats));
  write_seed(dir, "health.bin", encode_empty(FrameType::kHealth));
}

void gen_protocol_response(const fs::path& dir) {
  write_seed(dir, "ok.bin", encode_empty(FrameType::kOk));
  write_seed(dir, "rejected.bin", encode_rejected("server full"));
  write_seed(dir, "error.bin", encode_error("unknown backup id"));

  BackupDoneResponse done;
  done.backup_id = 3;
  done.logical_bytes = 1 << 20;
  done.chunk_count = 137;
  done.unique_bytes = 1 << 19;
  done.dup_bytes = 1 << 19;
  write_seed(dir, "backup_done.bin", encode(done));

  write_seed(dir, "restore_data.bin",
             encode_restore_data(ByteView(from_string("restored bytes"))));

  RestoreDoneResponse rdone;
  rdone.logical_bytes = 4096;
  rdone.container_loads = 5;
  write_seed(dir, "restore_done.bin", encode(rdone));

  BackupListResponse list;
  list.backups.push_back(BackupInfo{1, "gen-1", 8192});
  list.backups.push_back(BackupInfo{2, "gen-2", 16384});
  write_seed(dir, "backup_list.bin", encode(list));

  write_seed(dir, "metrics_json.bin",
             encode_metrics_json("{\"schema\": \"defrag.metrics.v1\", "
                                 "\"metrics\": {}}"));

  HelloOkResponse hello_ok;
  hello_ok.session_id = 42;
  write_seed(dir, "hello_ok.bin", encode(hello_ok));

  StatsResponse stats;
  stats.uptime_us = 1000000;
  stats.active_sessions = 2;
  stats.max_sessions = 8;
  stats.sessions_accepted = 10;
  stats.sessions_served = 8;
  stats.backups = 5;
  stats.bytes_ingested = 1 << 22;
  stats.tenants.push_back(TenantStatsRow{"alice", 1, 4, 3, 1 << 21});
  stats.tenants.push_back(TenantStatsRow{"bob", 1, 4, 2, 1 << 21});
  write_seed(dir, "stats_result.bin", encode(stats));

  HealthResponse health;
  health.uptime_us = 2000000;
  health.active_sessions = 1;
  write_seed(dir, "health_result.bin", encode(health));
}

void gen_chunker(const fs::path& dir) {
  // Harness input: [param-selector u8][stream bytes].
  {
    Bytes seed(1 + 8192, 0x00);
    write_seed(dir, "zeros_8k.bin", seed);
  }
  {
    Bytes seed;
    seed.push_back(1);
    SplitMix64 rng(0xc0ffee);
    for (int i = 0; i < 16384; ++i) {
      seed.push_back(static_cast<std::uint8_t>(rng.next()));
    }
    write_seed(dir, "random_16k.bin", seed);
  }
  {
    Bytes seed;
    seed.push_back(2);
    const std::string phrase = "the quick brown fox jumps over the lazy dog ";
    while (seed.size() < 4096) {
      seed.insert(seed.end(), phrase.begin(), phrase.end());
    }
    write_seed(dir, "text_4k.bin", seed);
  }
  {
    Bytes seed = {3, 'x'};  // degenerate params, single byte stream
    write_seed(dir, "tiny.bin", seed);
  }
}

void gen_sha_mb(const fs::path& dir) {
  // Harness input: [capacity u8][(len_hi len_lo) msg bytes...]*.
  auto push_len = [](Bytes& b, std::size_t len) {
    b.push_back(static_cast<std::uint8_t>(len >> 8));
    b.push_back(static_cast<std::uint8_t>(len & 0xff));
  };
  {
    // Padding-edge lengths around the 55/56 one-vs-two tail-block split and
    // exact block multiples, content from a fixed RNG.
    Bytes seed = {8};
    SplitMix64 rng(0x5a5a);
    for (const std::size_t len : {0u, 1u, 55u, 56u, 57u, 63u, 64u, 65u,
                                  119u, 120u, 127u, 128u, 129u}) {
      push_len(seed, len);
      for (std::size_t i = 0; i < len; ++i) {
        seed.push_back(static_cast<std::uint8_t>(rng.next()));
      }
    }
    write_seed(dir, "padding_edges.bin", seed);
  }
  {
    // More messages than lanes, uneven lengths: exercises group scheduling
    // and the zero-block churn for early-finishing lanes.
    Bytes seed = {4};
    SplitMix64 rng(0xbeef);
    for (std::size_t m = 0; m < 13; ++m) {
      const std::size_t len = (m * 97) % 600;
      push_len(seed, len);
      for (std::size_t i = 0; i < len; ++i) {
        seed.push_back(static_cast<std::uint8_t>(rng.next()));
      }
    }
    write_seed(dir, "uneven_13.bin", seed);
  }
  {
    Bytes seed = {0};  // capacity 1: every add flushes
    push_len(seed, 40);
    for (int i = 0; i < 40; ++i) seed.push_back(0xff);
    push_len(seed, 0);
    write_seed(dir, "capacity_one.bin", seed);
  }
  {
    // One long message next to empties: max blocks vs min in one group.
    Bytes seed = {16};
    push_len(seed, 0);
    push_len(seed, 2000);
    for (int i = 0; i < 2000; ++i) {
      seed.push_back(static_cast<std::uint8_t>(i));
    }
    push_len(seed, 0);
    write_seed(dir, "long_and_empty.bin", seed);
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus-output-dir>\n", argv[0]);
    return 2;
  }
  const fs::path out(argv[1]);
  gen_wire(out / "fuzz_wire");
  gen_protocol_request(out / "fuzz_protocol_request");
  gen_protocol_response(out / "fuzz_protocol_response");
  gen_chunker(out / "fuzz_chunker");
  gen_sha_mb(out / "fuzz_sha_mb");
  std::fprintf(stderr, "seed corpora written under %s\n", out.c_str());
  return 0;
}
