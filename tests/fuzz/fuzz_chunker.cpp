// Fuzz harness: chunker properties over arbitrary bytes.
//
// Byte 0 selects the ChunkerParams triple (all valid: the params are our
// configuration, not attacker data — what is untrusted is the STREAM);
// the rest is the stream. For Rabin and Gear (FastCDC-normalized) the
// harness checks the boundary contract on arbitrary input:
//
//   - chunks tile the stream exactly (contiguous, full coverage) — the
//     "reassembled output is bit-identical to the input" property, stated
//     on boundaries;
//   - every chunk respects max_size, and every non-final chunk min_size;
//   - split() is deterministic and identical to incremental split_to();
//   - StreamPipeline at worker counts {1, 2} reproduces the synchronous
//     chunk sequence exactly (offsets, sizes, fingerprints) — the
//     pipelined fast path may not depend on data content to stay correct;
//   - the SIMD gear-scan dispatch is a pure performance knob: splitting
//     with the ISA level pinned to scalar and to kAvx512 (where the host
//     has it) yields bit-identical boundaries on arbitrary content.
#include <cstdint>
#include <memory>
#include <vector>

#include "chunking/chunker.h"
#include "chunking/segmenter.h"
#include "common/bytes.h"
#include "common/cpu.h"
#include "common/fingerprint.h"
#include "dedup/pipeline.h"
#include "fuzz/fuzz_util.h"

using defrag::ByteView;
using defrag::Chunker;
using defrag::ChunkerKind;
using defrag::ChunkerParams;
using defrag::ChunkRef;
using defrag::Fingerprint;
using defrag::make_chunker;
using defrag::StreamChunk;
using defrag::StreamPipeline;

namespace {

/// Small min/avg/max so even short fuzz inputs span several chunks.
constexpr struct {
  std::uint32_t min, avg, max;
} kParamTable[] = {
    {64, 256, 1024},
    {16, 64, 256},
    {256, 1024, 4096},
    {64, 64, 64},  // degenerate: min == avg == max
};

/// Pipeline runs spawn threads per call; bound the differential's cost.
constexpr std::size_t kMaxPipelineBytes = 64 << 10;

void check_chunker(const Chunker& chunker, const ChunkerParams& params,
                   ByteView stream) {
  const std::vector<ChunkRef> chunks = chunker.split(stream);
  if (stream.empty()) {
    FUZZ_ASSERT(chunks.empty());
    return;
  }
  std::uint64_t pos = 0;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    FUZZ_ASSERT(chunks[i].offset == pos);
    FUZZ_ASSERT(chunks[i].size >= 1);
    FUZZ_ASSERT(chunks[i].size <= params.max_size);
    if (i + 1 < chunks.size()) {
      FUZZ_ASSERT(chunks[i].size >= params.min_size);
    }
    pos += chunks[i].size;
  }
  FUZZ_ASSERT(pos == stream.size());

  // Incremental split_to must emit the identical sequence, in order.
  std::vector<ChunkRef> incremental;
  chunker.split_to(stream,
                   [&](const ChunkRef& c) { incremental.push_back(c); });
  FUZZ_ASSERT(incremental.size() == chunks.size());
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    FUZZ_ASSERT(incremental[i] == chunks[i]);
  }

  // Pipelined vs synchronous differential at 1 and 2 workers.
  if (stream.size() <= kMaxPipelineBytes) {
    for (const std::size_t workers : {1u, 2u}) {
      StreamPipeline pipeline(chunker, workers, /*batch_chunks=*/16,
                              /*queue_batches=*/4);
      const std::vector<StreamChunk> piped = pipeline.run(stream);
      FUZZ_ASSERT(piped.size() == chunks.size());
      for (std::size_t i = 0; i < chunks.size(); ++i) {
        FUZZ_ASSERT(piped[i].stream_offset == chunks[i].offset);
        FUZZ_ASSERT(piped[i].size == chunks[i].size);
        const ByteView body = stream.subspan(chunks[i].offset, chunks[i].size);
        FUZZ_ASSERT(piped[i].fp == Fingerprint::of(body));
      }
    }
  }
}

/// SIMD-vs-scalar oracle: boundaries must not depend on the dispatched ISA
/// level. Runs the same split with the level pinned to scalar and, where the
/// host has it, to kAvx512 (the only level with a kernel of its own).
void check_simd_oracle(const Chunker& chunker, ByteView stream) {
  if (defrag::cpu::detected_isa_level() < defrag::cpu::IsaLevel::kAvx512) {
    return;
  }
  defrag::cpu::force_isa_for_testing(defrag::cpu::IsaLevel::kScalar);
  const std::vector<ChunkRef> ref = chunker.split(stream);
  defrag::cpu::force_isa_for_testing(defrag::cpu::IsaLevel::kAvx512);
  const std::vector<ChunkRef> got = chunker.split(stream);
  FUZZ_ASSERT(got.size() == ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    FUZZ_ASSERT(got[i] == ref[i]);
  }
  defrag::cpu::clear_isa_override_for_testing();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size == 0) return 0;
  const auto& p = kParamTable[data[0] % (sizeof(kParamTable) /
                                         sizeof(kParamTable[0]))];
  ChunkerParams params;
  params.min_size = p.min;
  params.avg_size = p.avg;
  params.max_size = p.max;
  const ByteView stream(data + 1, size - 1);

  for (const ChunkerKind kind : {ChunkerKind::kRabin, ChunkerKind::kGear}) {
    const std::unique_ptr<Chunker> chunker = make_chunker(kind, params);
    check_chunker(*chunker, params, stream);
    if (kind == ChunkerKind::kGear) check_simd_oracle(*chunker, stream);
  }
  return 0;
}
