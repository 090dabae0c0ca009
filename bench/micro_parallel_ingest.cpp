// Micro-bench of the parallel ingest fast path (wall-clock, real machine).
//
// Two sweeps over one synthetic stream (256 MiB, or 16 MiB under
// DEFRAG_BENCH_SCALE=tiny):
//
//   1. multi-stream scaling — the stream is sliced into W independent
//      streams ingested concurrently through one ParallelIngestor
//      (lock-striped index + per-stream container appenders), W in
//      {1, 2, 4, 8};
//   2. SPSC pipeline sweep — one stream through StreamPipeline with
//      {1, 2, 4} fingerprint workers against the synchronous baseline
//      (same chunker, same FingerprintBatch hashing, one thread),
//      reporting the per-stage busy times and achieved overlap.
//
// Speedups here are *wall-clock* and bounded by the host's core count —
// `system.bench.hardware_concurrency` is recorded alongside the results so
// a committed snapshot is interpretable (on a single-core host the
// expected scaling is ~1.0x and the interesting numbers are the contention
// overhead and the pipeline overlap accounting). Unlike the fig*_ benches,
// nothing here depends on the simulated disk clock.
//
// DEFRAG_METRICS_JSON=<path> dumps the registry (defrag.metrics.v1) on
// exit, including the sweep results under `system.bench.*`.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/fingerprint.h"
#include "common/rng.h"
#include "common/sha_mb.h"
#include "core/parallel_ingest.h"
#include "dedup/pipeline.h"
#include "harness.h"
#include "obs/metrics.h"

namespace defrag {
namespace {

Bytes bench_stream(std::size_t n) {
  // Incompressible noise: every chunk is unique, so the index takes the
  // all-miss (claim + publish) worst case for lock contention and the
  // store appends every byte — the heaviest load on both shared paths.
  Bytes b(n);
  Xoshiro256 rng(20120701);
  rng.fill(b);
  return b;
}

int run() {
  bench::resolve_scale();  // arms the DEFRAG_METRICS_JSON exit hook
  const char* scale_env = std::getenv("DEFRAG_BENCH_SCALE");
  const bool tiny = scale_env != nullptr && std::strcmp(scale_env, "tiny") == 0;
  const std::size_t total_bytes = (tiny ? 16ull : 256ull) << 20;
  const Bytes data = bench_stream(total_bytes);
  const ByteView view(data);

  auto& reg = obs::MetricsRegistry::global();
  const unsigned cores = std::thread::hardware_concurrency();
  reg.gauge("system.bench.hardware_concurrency").set(cores);
  reg.gauge("system.bench.parallel_ingest.stream_bytes")
      .set(static_cast<double>(total_bytes));

  std::printf("micro_parallel_ingest: %zu MiB stream, %u hardware threads\n\n",
              total_bytes >> 20, cores);

  std::printf("multi-stream scaling (one ParallelIngestor, W streams):\n");
  std::printf("  %-8s %10s %10s %9s\n", "streams", "wall_s", "MB/s",
              "speedup");
  double base_mb_s = 0.0;
  for (const std::size_t w : {1u, 2u, 4u, 8u}) {
    ParallelIngestor ingestor;  // fresh store+index per W
    std::vector<ByteView> streams;
    const std::size_t slice = total_bytes / w;
    for (std::size_t i = 0; i < w; ++i) {
      streams.push_back(view.subspan(i * slice, slice));
    }
    const ParallelIngestResult res = ingestor.ingest(streams);
    const double mb_s = res.throughput_mb_s();
    if (w == 1) base_mb_s = mb_s;
    const double speedup = base_mb_s > 0.0 ? mb_s / base_mb_s : 0.0;
    std::printf("  %-8zu %10.3f %10.1f %8.2fx\n", w, res.wall_seconds, mb_s,
                speedup);
    const std::string suffix = "_w" + std::to_string(w);
    reg.gauge("system.bench.parallel_ingest.mb_s" + suffix).set(mb_s);
    reg.gauge("system.bench.parallel_ingest.speedup" + suffix).set(speedup);
  }

  std::printf("\nSPSC pipeline sweep (one stream, W fingerprint workers):\n");
  std::printf("  %-8s %10s %10s %10s %10s %10s\n", "workers", "wall_s",
              "chunk_s", "fp_s", "stall_s", "overlap_s");
  const auto chunker = make_chunker(ChunkerKind::kGear, {});
  {
    // Synchronous baseline: chunk, then fingerprint in multi-buffer
    // batches on the same thread — what ParallelIngestor does with
    // pipeline_workers == 0, and what each pipeline worker runs per batch,
    // so the rows below differ only in the threading.
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<StreamChunk> chunks;
    chunker->split_to(view, [&](const ChunkRef& r) {
      chunks.push_back(StreamChunk{Fingerprint{}, r.offset, r.size});
    });
    simd::FingerprintBatch batch;
    for (StreamChunk& c : chunks) {
      batch.add(view.subspan(c.stream_offset, c.size), &c.fp);
    }
    batch.flush();
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    std::printf("  %-8s %10.3f %10s %10s %10s %10s   (%zu chunks)\n", "sync",
                wall, "-", "-", "-", "-", chunks.size());
    reg.gauge("system.bench.pipeline.wall_s_sync").set(wall);
  }
  for (const std::size_t w : {1u, 2u, 4u}) {
    StreamPipeline pipeline(*chunker, w);
    PipelineStats st;
    pipeline.run(view, &st);
    std::printf("  %-8zu %10.3f %10.3f %10.3f %10.3f %10.3f\n", w,
                st.wall_seconds, st.chunk_seconds, st.fingerprint_seconds,
                st.producer_stall_seconds, st.overlap_seconds());
    const std::string suffix = "_w" + std::to_string(w);
    reg.gauge("system.bench.pipeline.wall_s" + suffix).set(st.wall_seconds);
    reg.gauge("system.bench.pipeline.overlap_s" + suffix)
        .set(st.overlap_seconds());
  }
  return 0;
}

}  // namespace
}  // namespace defrag

int main() { return defrag::run(); }
