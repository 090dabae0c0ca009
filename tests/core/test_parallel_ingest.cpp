#include "core/parallel_ingest.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <ostream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/fingerprint.h"
#include "common/rng.h"
#include "dedup/restore_strategies.h"
#include "obs/metrics.h"
#include "storage/recipe.h"
#include "testing/data.h"

namespace defrag {
namespace {

/// Ground-truth unique bytes of a set of streams: chunk with the same
/// chunker configuration and count each fingerprint's bytes once.
std::uint64_t reference_unique_bytes(const ParallelIngestParams& params,
                                     const std::vector<ByteView>& streams) {
  const auto chunker = make_chunker(params.chunker_kind, params.chunker);
  std::unordered_set<Fingerprint> seen;
  std::uint64_t unique = 0;
  for (const ByteView stream : streams) {
    chunker->split_to(stream, [&](const ChunkRef& r) {
      if (seen.insert(Fingerprint::of(stream.subspan(r.offset, r.size)))
              .second) {
        unique += r.size;
      }
    });
  }
  return unique;
}

TEST(ParallelIngestTest, EmptyStreamListIsZero) {
  ParallelIngestor ingestor;
  const ParallelIngestResult res = ingestor.ingest({});
  EXPECT_EQ(res.logical_bytes, 0u);
  EXPECT_EQ(res.unique_bytes, 0u);
  EXPECT_TRUE(res.streams.empty());
}

TEST(ParallelIngestTest, SingleStreamMatchesReference) {
  const Bytes data = testing::random_bytes(2 << 20, 500);
  ParallelIngestParams params;
  ParallelIngestor ingestor(params);
  const ParallelIngestResult res = ingestor.ingest({ByteView(data)});

  EXPECT_EQ(res.logical_bytes, data.size());
  EXPECT_EQ(res.unique_bytes,
            reference_unique_bytes(params, {ByteView(data)}));
  EXPECT_EQ(res.unique_bytes + res.dup_bytes, res.logical_bytes);
  EXPECT_EQ(ingestor.index().size(),
            res.streams[0].unique_chunks);
  EXPECT_EQ(ingestor.index().pending_claims(), 0u);
}

// The determinism guarantee of the claim/publish protocol: two identical
// streams racing each other must dedup to exactly one stream's worth of
// unique bytes, no matter how the threads interleave — so repeated runs
// give bit-identical totals.
TEST(ParallelIngestTest, IdenticalConcurrentStreamsDedupDeterministically) {
  const Bytes data = testing::random_bytes(1 << 20, 501);
  ParallelIngestParams params;
  const std::uint64_t reference =
      reference_unique_bytes(params, {ByteView(data)});

  for (int run = 0; run < 5; ++run) {
    ParallelIngestor ingestor(params);
    const ParallelIngestResult res =
        ingestor.ingest({ByteView(data), ByteView(data), ByteView(data)});
    EXPECT_EQ(res.logical_bytes, 3 * data.size());
    EXPECT_EQ(res.unique_bytes, reference) << "run " << run;
    EXPECT_EQ(res.dup_bytes, res.logical_bytes - reference);
    EXPECT_EQ(ingestor.index().pending_claims(), 0u);
  }
}

TEST(ParallelIngestTest, DisjointStreamsShareNothing) {
  const Bytes a = testing::random_bytes(512 * 1024, 502);
  const Bytes b = testing::random_bytes(512 * 1024, 503);
  ParallelIngestParams params;
  ParallelIngestor ingestor(params);
  const ParallelIngestResult res =
      ingestor.ingest({ByteView(a), ByteView(b)});
  EXPECT_EQ(res.unique_bytes,
            reference_unique_bytes(params, {ByteView(a), ByteView(b)}));
  // Random content: essentially everything is unique.
  EXPECT_EQ(res.dup_bytes, 0u);
  EXPECT_GE(ingestor.store().container_count(), 1u);
}

TEST(ParallelIngestTest, PipelinedWorkersGiveIdenticalTotals) {
  const Bytes data = testing::random_bytes(1 << 20, 504);
  ParallelIngestParams sync_params;
  ParallelIngestParams piped_params;
  piped_params.pipeline_workers = 2;

  ParallelIngestor sync_ingestor(sync_params);
  ParallelIngestor piped_ingestor(piped_params);
  const auto sync_res = sync_ingestor.ingest({ByteView(data), ByteView(data)});
  const auto piped_res =
      piped_ingestor.ingest({ByteView(data), ByteView(data)});

  EXPECT_EQ(sync_res.unique_bytes, piped_res.unique_bytes);
  EXPECT_EQ(sync_res.chunk_count, piped_res.chunk_count);
  EXPECT_EQ(sync_ingestor.index().size(), piped_ingestor.index().size());
}

// kPending accounting: every duplicate resolved against an in-flight claim
// is charged a published-location lookup post-join, and the
// `dedup.parallel.pending_resolved` counter advances by exactly the number
// of pending duplicates the streams reported. Identical concurrent streams
// are the scenario that provokes kPending races; the invariant must hold
// whether a given run hit the race or not.
TEST(ParallelIngestTest, PendingDuplicatesAreResolvedAndCharged) {
  const Bytes data = testing::random_bytes(1 << 20, 506);
  auto& pending_counter =
      obs::MetricsRegistry::global().counter("dedup.parallel.pending_resolved");
  for (int run = 0; run < 5; ++run) {
    ParallelIngestor ingestor;
    const std::uint64_t before = pending_counter.value();
    const ParallelIngestResult res =
        ingestor.ingest({ByteView(data), ByteView(data), ByteView(data)});
    std::uint64_t pending = 0;
    for (const StreamIngestStats& st : res.streams) {
      EXPECT_LE(st.pending_dup_chunks, st.dup_chunks);
      pending += st.pending_dup_chunks;
    }
    EXPECT_EQ(pending_counter.value() - before, pending) << "run " << run;
    // Post-join resolution published every claim.
    EXPECT_EQ(ingestor.index().pending_claims(), 0u);
  }
}

TEST(ParallelIngestTest, PerStreamStatsAddUp) {
  const Bytes data = testing::random_bytes(1 << 20, 505);
  ParallelIngestor ingestor;
  const ParallelIngestResult res =
      ingestor.ingest({ByteView(data), ByteView(data)});
  ASSERT_EQ(res.streams.size(), 2u);
  std::uint64_t unique = 0;
  std::uint64_t dup = 0;
  std::uint64_t chunks = 0;
  for (const StreamIngestStats& st : res.streams) {
    EXPECT_EQ(st.unique_chunks + st.dup_chunks, st.chunk_count);
    EXPECT_EQ(st.unique_bytes + st.dup_bytes, st.logical_bytes);
    EXPECT_GT(st.sim_seconds, 0.0);
    unique += st.unique_bytes;
    dup += st.dup_bytes;
    chunks += st.chunk_count;
  }
  EXPECT_EQ(unique, res.unique_bytes);
  EXPECT_EQ(dup, res.dup_bytes);
  EXPECT_EQ(chunks, res.chunk_count);
  EXPECT_GT(res.wall_seconds, 0.0);
}

// The recipes out-param makes every stream restore-grade: one entry per
// chunk in stream order with a published location even for duplicates won
// by another stream.
TEST(ParallelIngestTest, BatchRecipesRestoreBitIdentically) {
  const Bytes shared = testing::random_bytes(512 * 1024, 507);
  Bytes a = shared;
  const Bytes tail_a = testing::random_bytes(128 * 1024, 508);
  a.insert(a.end(), tail_a.begin(), tail_a.end());
  Bytes b = shared;
  const Bytes tail_b = testing::random_bytes(128 * 1024, 509);
  b.insert(b.end(), tail_b.begin(), tail_b.end());

  ParallelIngestor ingestor;
  std::vector<Recipe> recipes;
  const std::vector<ByteView> streams = {ByteView(a), ByteView(b),
                                         ByteView(a)};
  const ParallelIngestResult res = ingestor.ingest(streams, &recipes);
  ASSERT_EQ(recipes.size(), streams.size());
  EXPECT_GT(res.dup_bytes, 0u);  // shared prefix dedups across streams

  const RestoreOptions options;
  for (std::size_t i = 0; i < streams.size(); ++i) {
    EXPECT_EQ(recipes[i].logical_bytes(), streams[i].size());
    Bytes out;
    restore_with_strategy(ingestor.store(), recipes[i],
                          ingestor.params().disk, options, &out);
    EXPECT_TRUE(std::equal(out.begin(), out.end(), streams[i].begin(),
                           streams[i].end()))
        << "stream " << i;
  }
}

// ingest_stream() is the service entry point: many external threads, no
// batch barrier, recipes that must stay restore-grade under the race.
TEST(ParallelIngestTest, ConcurrentIngestStreamCallsAreRestoreGrade) {
  const Bytes shared = testing::random_bytes(512 * 1024, 510);
  constexpr std::size_t kThreads = 4;

  std::vector<Bytes> datas(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    datas[t] = shared;
    const Bytes tail = testing::random_bytes(64 * 1024, 511 + t);
    datas[t].insert(datas[t].end(), tail.begin(), tail.end());
  }

  ParallelIngestor ingestor;
  std::vector<Recipe> recipes(kThreads);
  std::vector<StreamIngestStats> stats(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      stats[t] = ingestor.ingest_stream(ByteView(datas[t]), &recipes[t]);
    });
  }
  for (std::thread& th : threads) th.join();

  // Deterministic dedup: exactly one copy of the shared prefix is unique.
  std::uint64_t unique = 0;
  for (const StreamIngestStats& st : stats) unique += st.unique_bytes;
  std::vector<ByteView> views;
  for (const Bytes& d : datas) views.push_back(ByteView(d));
  EXPECT_EQ(unique, reference_unique_bytes(ingestor.params(), views));
  EXPECT_EQ(ingestor.index().pending_claims(), 0u);

  const RestoreOptions options;
  for (std::size_t t = 0; t < kThreads; ++t) {
    Bytes out;
    restore_with_strategy(ingestor.store(), recipes[t],
                          ingestor.params().disk, options, &out);
    EXPECT_TRUE(std::equal(out.begin(), out.end(), datas[t].begin(),
                           datas[t].end()))
        << "stream " << t;
  }
}

// ---- IngestStream: incremental feeds equal one whole-stream ingest ------

/// What a stream's ingest leaves behind, compared field by field.
struct StreamOutcome {
  StreamIngestStats stats;
  std::vector<RecipeEntry> entries;
  std::size_t containers = 0;
  Bytes restored;
};

StreamOutcome outcome_of(const ParallelIngestor& ingestor,
                         const StreamIngestStats& stats,
                         const Recipe& recipe) {
  StreamOutcome o;
  o.stats = stats;
  o.entries = recipe.entries();
  o.containers = ingestor.store().container_count();
  restore_with_strategy(ingestor.store(), recipe, ingestor.params().disk,
                        RestoreOptions{}, &o.restored);
  return o;
}

/// Feed `data` cut into pieces of the given sizes (the rest as one final
/// piece). Every piece is copied into its own buffer and scribbled over
/// once feed() returns, so a stream that kept a view past feed() breaks.
StreamOutcome feed_in_pieces(const ParallelIngestParams& params,
                             ByteView data,
                             const std::vector<std::size_t>& cuts) {
  ParallelIngestor ingestor(params);
  Recipe recipe("pieces");
  IngestStream stream = ingestor.open_stream(&recipe);
  std::size_t off = 0;
  for (const std::size_t n : cuts) {
    Bytes piece(data.begin() + static_cast<std::ptrdiff_t>(off),
                data.begin() + static_cast<std::ptrdiff_t>(off + n));
    stream.feed(ByteView(piece));
    std::fill(piece.begin(), piece.end(), 0xEE);
    off += n;
  }
  Bytes rest(data.begin() + static_cast<std::ptrdiff_t>(off), data.end());
  stream.feed(ByteView(rest));
  std::fill(rest.begin(), rest.end(), 0xEE);
  const StreamIngestStats st = stream.finish();
  return outcome_of(ingestor, st, recipe);
}

StreamOutcome ingest_whole(const ParallelIngestParams& params,
                           ByteView data) {
  ParallelIngestor ingestor(params);
  Recipe recipe("whole");
  const StreamIngestStats st = ingestor.ingest_stream(data, &recipe);
  return outcome_of(ingestor, st, recipe);
}

void expect_same(const StreamOutcome& got, const StreamOutcome& want,
                 const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(got.stats.logical_bytes, want.stats.logical_bytes);
  EXPECT_EQ(got.stats.chunk_count, want.stats.chunk_count);
  EXPECT_EQ(got.stats.unique_chunks, want.stats.unique_chunks);
  EXPECT_EQ(got.stats.unique_bytes, want.stats.unique_bytes);
  EXPECT_EQ(got.stats.dup_chunks, want.stats.dup_chunks);
  EXPECT_EQ(got.stats.dup_bytes, want.stats.dup_bytes);
  EXPECT_EQ(got.stats.pending_dup_chunks, want.stats.pending_dup_chunks);
  EXPECT_EQ(got.stats.io.seeks, want.stats.io.seeks);
  EXPECT_EQ(got.stats.io.bytes_read, want.stats.io.bytes_read);
  EXPECT_EQ(got.stats.io.bytes_written, want.stats.io.bytes_written);
  // Exact: the simulated clock must not depend on how the stream was cut.
  EXPECT_EQ(got.stats.sim_seconds, want.stats.sim_seconds);
  EXPECT_EQ(got.containers, want.containers);
  ASSERT_EQ(got.entries.size(), want.entries.size());
  for (std::size_t i = 0; i < got.entries.size(); ++i) {
    ASSERT_EQ(got.entries[i].fp, want.entries[i].fp) << "entry " << i;
    ASSERT_EQ(got.entries[i].location, want.entries[i].location)
        << "entry " << i;
  }
  EXPECT_EQ(got.restored, want.restored);
}

/// Random bytes with internal duplicates (so pieces meet both claimed and
/// existing chunks) and a zero run (so gear and rabin cut max_size chunks).
Bytes stream_under_test(std::uint64_t seed) {
  Bytes data = testing::random_bytes(1200 * 1024, seed);
  const Bytes again(data.begin() + 100 * 1024, data.begin() + 500 * 1024);
  data.insert(data.end(), again.begin(), again.end());
  data.insert(data.end(), 300 * 1024, 0);
  const Bytes tail = testing::random_bytes(150 * 1024 + 77, seed + 1);
  data.insert(data.end(), tail.begin(), tail.end());
  return data;
}

struct StreamCase {
  ChunkerKind kind;
  std::size_t workers;
};

void PrintTo(const StreamCase& c, std::ostream* os) {
  *os << "chunker " << static_cast<int>(c.kind) << ", workers " << c.workers;
}

class IngestStreamEquivalenceTest
    : public ::testing::TestWithParam<StreamCase> {
 protected:
  ParallelIngestParams params() const {
    ParallelIngestParams p;
    p.chunker_kind = GetParam().kind;
    p.pipeline_workers = GetParam().workers;
    // Small containers: many rolls, so container ids and offsets are
    // compared across many seals.
    p.container_bytes = 256 * 1024;
    return p;
  }
};

TEST_P(IngestStreamEquivalenceTest, RandomSplitsWithEmptyFeeds) {
  const Bytes data = stream_under_test(700);
  const StreamOutcome want = ingest_whole(params(), ByteView(data));
  const std::size_t max = params().chunker.max_size;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Xoshiro256 rng(seed);
    std::vector<std::size_t> cuts;
    std::size_t left = data.size();
    while (left > 0) {
      // 0 (empty feed) up to three chunk windows, biased small.
      std::size_t n = rng.next() % 4 == 0 ? 0 : rng.next() % (3 * max);
      if (rng.next() % 3 == 0) n %= 4096;
      n = std::min(n, left);
      cuts.push_back(n);
      left -= n;
    }
    expect_same(feed_in_pieces(params(), ByteView(data), cuts), want,
                "random splits, seed " + std::to_string(seed));
  }
}

TEST_P(IngestStreamEquivalenceTest, OneByteFeeds) {
  const Bytes data = stream_under_test(701);
  // Two stretches of 1-byte feeds (interleaved with empty feeds), one at
  // the start and one straddling chunk boundaries mid-stream.
  std::vector<std::size_t> cuts;
  for (int i = 0; i < 3000; ++i) {
    cuts.push_back(1);
    if (i % 7 == 0) cuts.push_back(0);
  }
  cuts.push_back(600 * 1024);
  for (int i = 0; i < 20000; ++i) cuts.push_back(1);
  expect_same(feed_in_pieces(params(), ByteView(data), cuts),
              ingest_whole(params(), ByteView(data)), "1-byte feeds");
}

TEST_P(IngestStreamEquivalenceTest, SplitsOnChunkBoundaries) {
  const Bytes data = stream_under_test(702);
  const auto chunker = make_chunker(params().chunker_kind, params().chunker);
  std::vector<std::size_t> cuts;
  for (const ChunkRef& r : chunker->split(ByteView(data))) {
    cuts.push_back(r.size);
  }
  cuts.pop_back();  // the last chunk is the final piece
  expect_same(feed_in_pieces(params(), ByteView(data), cuts),
              ingest_whole(params(), ByteView(data)), "chunk boundaries");
}

TEST_P(IngestStreamEquivalenceTest, SplitsExactlyMaxSizePastTheCarry) {
  const Bytes data = stream_under_test(703);
  const std::size_t max = params().chunker.max_size;
  const auto chunker = make_chunker(params().chunker_kind, params().chunker);
  const std::vector<ChunkRef> refs = chunker->split(ByteView(data));
  // After a piece ending at p, the carry starts where the whole-stream
  // chunk holding byte p-1 starts; end the next piece max_size past it, so
  // carry + piece is exactly one chunk window.
  const auto carry_start = [&](std::size_t p) {
    const auto it = std::upper_bound(
        refs.begin(), refs.end(), p - 1,
        [](std::size_t v, const ChunkRef& r) { return v < r.offset; });
    return static_cast<std::size_t>(std::prev(it)->offset);
  };
  Xoshiro256 rng(9);
  std::vector<std::size_t> cuts;
  std::size_t p = 1 + rng.next() % max;
  cuts.push_back(p);
  while (true) {
    std::size_t next = carry_start(p) + max;
    if (next <= p) next = p + 1 + rng.next() % max;  // carry was a full chunk
    if (next >= data.size()) break;
    cuts.push_back(next - p);
    p = next;
  }
  ASSERT_GT(cuts.size(), 20u);
  expect_same(feed_in_pieces(params(), ByteView(data), cuts),
              ingest_whole(params(), ByteView(data)), "max_size past carry");
}

INSTANTIATE_TEST_SUITE_P(
    AllChunkers, IngestStreamEquivalenceTest,
    ::testing::Values(StreamCase{ChunkerKind::kGear, 0},
                      StreamCase{ChunkerKind::kGear, 2},
                      StreamCase{ChunkerKind::kRabin, 0},
                      StreamCase{ChunkerKind::kRabin, 2},
                      StreamCase{ChunkerKind::kFixed, 0},
                      StreamCase{ChunkerKind::kFixed, 2}),
    [](const ::testing::TestParamInfo<StreamCase>& tpi) {
      std::string name;
      switch (tpi.param.kind) {
        case ChunkerKind::kGear: name = "gear"; break;
        case ChunkerKind::kRabin: name = "rabin"; break;
        case ChunkerKind::kFixed: name = "fixed"; break;
      }
      return name + "_w" + std::to_string(tpi.param.workers);
    });

TEST(IngestStreamTest, BuffersAtMostOneChunkBetweenFeeds) {
  ParallelIngestor ingestor;
  IngestStream stream = ingestor.open_stream();
  const Bytes data = testing::random_bytes(4 << 20, 720);
  for (std::size_t off = 0; off < data.size(); off += 1 << 20) {
    stream.feed(ByteView(data).subspan(off, 1 << 20));
    EXPECT_LE(stream.buffered_bytes(), ingestor.params().chunker.max_size);
  }
  EXPECT_EQ(stream.finish().logical_bytes, data.size());
}

TEST(IngestStreamTest, UnfinishedStreamSealsAndCommitsNothing) {
  ParallelIngestor ingestor;
  const Bytes data = testing::random_bytes(512 * 1024, 721);
  Recipe recipe;
  {
    IngestStream stream = ingestor.open_stream(&recipe);
    stream.feed(ByteView(data));
  }  // abandoned: the destructor seals without finish()
  for (ContainerId id = 0; id < ingestor.store().container_count(); ++id) {
    EXPECT_TRUE(ingestor.store().sealed_visible(id)) << "container " << id;
  }
  EXPECT_EQ(ingestor.index().pending_claims(), 0u);
  // Its terminated chunks stay stored: re-ingesting dedups all but the
  // carry it never reached.
  const StreamIngestStats again = ingestor.ingest_stream(ByteView(data));
  EXPECT_EQ(again.unique_chunks, 1u);
  EXPECT_GT(again.dup_bytes, 0u);
}

// Concurrent incremental streams over shared bytes meet each other's
// in-flight claims (kPending) inside a feed; each feed resolves them before
// returning, and every recipe restores bit-identically.
TEST(IngestStreamTest, ConcurrentFeedsAreRestoreGrade) {
  const Bytes shared = testing::random_bytes(768 * 1024, 730);
  constexpr std::size_t kThreads = 4;
  ParallelIngestor ingestor;
  std::vector<Recipe> recipes(kThreads);
  std::vector<StreamIngestStats> stats(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      IngestStream stream = ingestor.open_stream(&recipes[t]);
      Xoshiro256 rng(731 + t);
      for (std::size_t off = 0; off < shared.size();) {
        const std::size_t n =
            std::min<std::size_t>(shared.size() - off, rng.next() % 50000);
        stream.feed(ByteView(shared).subspan(off, n));
        off += n;
      }
      stats[t] = stream.finish();
    });
  }
  for (std::thread& th : threads) th.join();

  std::uint64_t unique = 0;
  for (const StreamIngestStats& st : stats) unique += st.unique_bytes;
  EXPECT_EQ(unique, reference_unique_bytes(ingestor.params(),
                                           {ByteView(shared)}));
  EXPECT_EQ(ingestor.index().pending_claims(), 0u);
  for (std::size_t t = 0; t < kThreads; ++t) {
    Bytes out;
    restore_with_strategy(ingestor.store(), recipes[t],
                          ingestor.params().disk, RestoreOptions{}, &out);
    EXPECT_EQ(out, shared) << "stream " << t;
  }
}

}  // namespace
}  // namespace defrag
