// Differential suite for the out-of-core storage layer: a table written
// through storage::TableShard and served back through storage::Reader must
// answer every query bit-identically to its in-memory twin — with zone-map
// pruning on or off, at any morsel thread count, and under concurrent
// scans with a residency budget small enough to force LRU eviction churn.
// Corrupted or truncated shard files must fail with a Status, never a
// crash. Registered under `unit` (ASan/UBSan CI), `differential`, and
// `concurrency` (TSan CI).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/str_util.h"
#include "data/ipc.h"
#include "data/stats.h"
#include "data/table.h"
#include "expr/batch_eval.h"
#include "expr/compiler.h"
#include "expr/parser.h"
#include "expr_corpus_test_util.h"
#include "runtime/engine_config.h"
#include "runtime/middleware.h"
#include "sql/engine.h"
#include "sql/prepared.h"
#include "storage/column_file.h"
#include "storage/reader.h"
#include "storage/stats.h"
#include "storage/table_shard.h"
#include "transforms/binning.h"

namespace vegaplus {
namespace {

using data::TablePtr;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "vps_storage_diff_" + name;
}

using runtime::EngineConfig;
using runtime::ScopedEngineConfig;

/// The ambient configuration with the morsel knobs pinned.
EngineConfig MorselConfig(size_t morsel_rows, size_t threads) {
  EngineConfig cfg = EngineConfig::Current();
  cfg.morsel_rows = morsel_rows;
  cfg.morsel_threads = threads;
  return cfg;
}

/// The ambient configuration with zone-map pruning set to `enabled`.
EngineConfig PruningConfig(bool enabled) {
  EngineConfig cfg = EngineConfig::Current();
  cfg.zone_map_pruning = enabled;
  return cfg;
}

/// A clustered table where zone maps actually exclude: `x` is monotone over
/// the rows (so chunk/morsel ranges are disjoint), `cat` cycles through a
/// small dictionary in long runs, and `v` carries nulls and NaNs.
TablePtr MakeClusteredTable(size_t rows) {
  data::Column x(data::DataType::kFloat64);
  data::Column v(data::DataType::kFloat64);
  data::Column cat(data::DataType::kString);
  Rng rng(99);
  for (size_t r = 0; r < rows; ++r) {
    x.AppendDouble(static_cast<double>(r));
    if (rng.NextBool(0.05)) {
      v.AppendNull();
    } else if (rng.NextBool(0.02)) {
      v.AppendDouble(std::nan(""));
    } else {
      v.AppendDouble(rng.Uniform(-1, 1));
    }
    cat.AppendString("run_" + std::to_string(r / (rows / 8 + 1)));
  }
  std::vector<data::Column> cols;
  cols.push_back(std::move(x));
  cols.push_back(std::move(v));
  cols.push_back(std::move(cat));
  return std::make_shared<data::Table>(
      data::Schema({{"x", data::DataType::kFloat64},
                    {"v", data::DataType::kFloat64},
                    {"cat", data::DataType::kString}}),
      std::move(cols));
}

// ---------------------------------------------------------------------------
// Round-trip bit-identity
// ---------------------------------------------------------------------------

TEST(StorageRoundTripTest, ShardRoundTripsBitIdentically) {
  for (bool dict : {true, false}) {
    EngineConfig cfg = EngineConfig::Current();
    cfg.dictionary_encoding = dict;
    ScopedEngineConfig scoped(cfg);
    TablePtr table = testutil::MakeRandomExprTable(11, /*rows=*/5000);
    const std::string path =
        TempPath(dict ? "roundtrip_dict.vps" : "roundtrip_flat.vps");
    storage::WriteOptions opts;
    opts.chunk_rows = 777;  // short boundary chunk included
    ASSERT_TRUE(storage::TableShard::Write(path, *table, opts).ok());

    auto reader = storage::Reader::Open(path);
    ASSERT_TRUE(reader.ok()) << reader.status();
    EXPECT_EQ((*reader)->total_rows(), table->num_rows());
    EXPECT_GT((*reader)->num_chunks(), 1u);
    auto back = (*reader)->ReadAll();
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_TRUE((*back)->Equals(*table)) << "dict=" << dict;
    std::remove(path.c_str());
  }
}

TEST(StorageRoundTripTest, SingleChunkAndEmptyShards) {
  TablePtr table = testutil::MakeRandomExprTable(13, /*rows=*/100);
  const std::string path = TempPath("single_chunk.vps");
  storage::WriteOptions opts;
  opts.chunk_rows = 100000;  // rows < chunk_rows: one chunk
  ASSERT_TRUE(storage::TableShard::Write(path, *table, opts).ok());
  auto reader = storage::Reader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ((*reader)->num_chunks(), 1u);
  auto back = (*reader)->ReadAll();
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_TRUE((*back)->Equals(*table));
  std::remove(path.c_str());

  std::vector<data::Column> empty_cols;
  for (size_t i = 0; i < table->schema().num_fields(); ++i) {
    empty_cols.emplace_back(table->schema().field(i).type);
  }
  data::Table empty(table->schema(), std::move(empty_cols));
  const std::string empty_path = TempPath("empty.vps");
  ASSERT_TRUE(storage::TableShard::Write(empty_path, empty, {}).ok());
  auto empty_reader = storage::Reader::Open(empty_path);
  ASSERT_TRUE(empty_reader.ok()) << empty_reader.status();
  EXPECT_EQ((*empty_reader)->num_chunks(), 0u);
  auto empty_back = (*empty_reader)->ReadAll();
  ASSERT_TRUE(empty_back.ok()) << empty_back.status();
  EXPECT_EQ((*empty_back)->num_rows(), 0u);
  EXPECT_TRUE((*empty_back)->schema() == table->schema());
  std::remove(empty_path.c_str());
}

// ---------------------------------------------------------------------------
// Shard-backed SQL vs the in-memory twin
// ---------------------------------------------------------------------------

// The WHERE-heavy query corpus: fused numeric/string conjunctions (the
// shapes the zone maps see), plus aggregation/order shapes to prove the
// whole pipeline downstream of the scan is unaffected.
const char* kShardQueries[] = {
    "SELECT * FROM t WHERE dd > 0",
    "SELECT * FROM t WHERE dd > 25 AND ii <= 5",
    "SELECT * FROM t WHERE dd >= -3.5 AND dd < 12.5",
    "SELECT * FROM t WHERE ii <> 4",
    "SELECT * FROM t WHERE sc = 'cat_3'",
    "SELECT * FROM t WHERE sc <> 'cat_3'",
    "SELECT * FROM t WHERE sc = 'not_in_dict'",
    "SELECT * FROM t WHERE sc <> 'not_in_dict'",
    "SELECT * FROM t WHERE ss = 'mid' AND dd > 0",
    "SELECT * FROM t WHERE sh = 'id_1'",
    "SELECT * FROM t WHERE sc = 'cat_1' AND ii < 5 AND dd > -10",
    "SELECT dd * 2 + ii AS z, ss FROM t WHERE ii <> 4",
    "SELECT ii, COUNT(*) AS n, SUM(dd) AS s, AVG(dd) AS a FROM t "
    "GROUP BY ii ORDER BY ii",
    "SELECT ss, MIN(dd) AS lo, MAX(dd) AS hi FROM t GROUP BY ss ORDER BY ss",
    "SELECT COUNT(*) AS n, COUNT(dd) AS nv, MIN(ss) AS first_s FROM t",
    "SELECT ss, dd FROM t WHERE dd IS NOT NULL ORDER BY dd DESC, ss "
    "LIMIT 25 OFFSET 5",
    "SELECT MONTH(tt) AS m, COUNT(*) AS n FROM t GROUP BY MONTH(tt) ORDER BY m",
};

class StorageDiffTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = testutil::MakeRandomExprTable(31, /*rows=*/20000);
    mem_engine_.RegisterTable("t", table_);

    path_ = TempPath("diff.vps");
    storage::WriteOptions opts;
    opts.chunk_rows = 1024;
    ASSERT_TRUE(storage::TableShard::Write(path_, *table_, opts).ok());
    auto reader = storage::Reader::Open(path_);
    ASSERT_TRUE(reader.ok()) << reader.status();
    reader_ = *reader;
    ASSERT_TRUE(shard_engine_.RegisterShardTable("t", reader_).ok());
  }

  void TearDown() override { std::remove(path_.c_str()); }

  TablePtr Run(sql::Engine& engine, const char* sql) {
    auto result = engine.Query(sql);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status();
    return result.ok() ? result->table : nullptr;
  }

  TablePtr table_;
  std::string path_;
  std::shared_ptr<storage::Reader> reader_;
  sql::Engine mem_engine_;
  sql::Engine shard_engine_;
};

// Every query, at every thread count, with pruning on and off: the
// shard-backed engine must match the in-memory engine bit for bit.
TEST_F(StorageDiffTest, ShardAnswersQueriesBitIdenticallyAcrossThreads) {
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    ScopedEngineConfig morsels(MorselConfig(/*morsel_rows=*/1024, threads));
    for (bool pruning : {true, false}) {
      ScopedEngineConfig scoped(PruningConfig(pruning));
      for (const char* sql : kShardQueries) {
        TablePtr want = Run(mem_engine_, sql);
        TablePtr got = Run(shard_engine_, sql);
        ASSERT_NE(want, nullptr) << sql;
        ASSERT_NE(got, nullptr) << sql;
        ASSERT_TRUE(got->Equals(*want))
            << sql << "\n(threads=" << threads << " pruning=" << pruning
            << ")\nshard:\n" << got->ToString(8) << "memory:\n"
            << want->ToString(8);
      }
    }
  }
}

// Selective brushes over a clustered shard must actually prune chunks — and
// stay bit-identical to the force-disabled baseline.
TEST_F(StorageDiffTest, SelectiveBrushPrunesChunksWithZeroDivergence) {
  TablePtr clustered = MakeClusteredTable(20000);
  const std::string path = TempPath("clustered.vps");
  storage::WriteOptions opts;
  opts.chunk_rows = 1024;
  ASSERT_TRUE(storage::TableShard::Write(path, *clustered, opts).ok());
  auto reader = storage::Reader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();

  sql::Engine mem;
  mem.RegisterTable("c", clustered);
  sql::Engine shard;
  ASSERT_TRUE(shard.RegisterShardTable("c", *reader).ok());

  const char* brushes[] = {
      "SELECT COUNT(*) AS n, SUM(v) AS s FROM c WHERE x >= 100 AND x < 600",
      "SELECT * FROM c WHERE x < 64",
      "SELECT * FROM c WHERE x > 19900 AND v >= 0",
      "SELECT COUNT(*) AS n FROM c WHERE cat = 'run_0'",
      "SELECT COUNT(*) AS n FROM c WHERE cat = 'absent_category'",
  };
  for (const char* sql : brushes) {
    (*reader)->EvictAll();
    const uint64_t pruned_before = storage::ChunksPruned();
    TablePtr on;
    {
      ScopedEngineConfig scoped(PruningConfig(true));
      on = Run(shard, sql);
    }
    const uint64_t pruned_delta = storage::ChunksPruned() - pruned_before;
    (*reader)->EvictAll();
    TablePtr off;
    {
      ScopedEngineConfig scoped(PruningConfig(false));
      off = Run(shard, sql);
    }
    TablePtr want = Run(mem, sql);
    ASSERT_NE(on, nullptr) << sql;
    ASSERT_NE(off, nullptr) << sql;
    ASSERT_NE(want, nullptr) << sql;
    EXPECT_GT(pruned_delta, 0u) << sql;
    ASSERT_TRUE(on->Equals(*off)) << sql;
    ASSERT_TRUE(on->Equals(*want)) << sql;
  }
  std::remove(path.c_str());
}

// The rewriter's brush reaches the DBMS as `x BETWEEN LEAST(a, b) AND
// GREATEST(a, b)` beside a null-selection click; bound, it folds to literal
// bounds, so a time-ordered shard prunes chunks and still answers exactly
// like the in-memory table.
TEST_F(StorageDiffTest, BoundLeastGreatestBrushPrunesShardChunks) {
  TablePtr clustered = MakeClusteredTable(20000);
  const std::string path = TempPath("bound_brush.vps");
  storage::WriteOptions opts;
  opts.chunk_rows = 1024;
  ASSERT_TRUE(storage::TableShard::Write(path, *clustered, opts).ok());
  auto reader = storage::Reader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  sql::Engine mem;
  mem.RegisterTable("c", clustered);
  sql::Engine shard;
  ASSERT_TRUE(shard.RegisterShardTable("c", *reader).ok());

  auto prepared = sql::PrepareStatement(
      "SELECT COUNT(*) AS n, SUM(v) AS s, MIN(x) AS lo FROM c WHERE "
      "(((${click} = NULL) OR (cat = ${click})) AND (x BETWEEN "
      "LEAST(${brush[0]}, ${brush[1]}) AND GREATEST(${brush[0]}, ${brush[1]})))");
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  for (const data::Value& click : {data::Value::Null(), data::Value::String("run_0")}) {
    expr::MapSignalResolver params;
    params.Set("click", expr::EvalValue(click));
    // Reversed endpoints, as a right-to-left drag leaves them.
    params.Set("brush", expr::EvalValue::Array({data::Value::Double(1500),
                                                data::Value::Double(300)}));
    ScopedEngineConfig scoped(PruningConfig(true));
    (*reader)->EvictAll();
    const uint64_t pruned_before = storage::ChunksPruned();
    auto got = shard.ExecuteBound(**prepared, params);
    const uint64_t pruned_delta = storage::ChunksPruned() - pruned_before;
    auto want = mem.ExecuteBound(**prepared, params);
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_TRUE(want.ok()) << want.status();
    EXPECT_GT(pruned_delta, 0u) << click.ToString();
    EXPECT_EQ(want->table->ValueAt(0, "lo").AsDouble(), 300);
    ASSERT_TRUE(got->table->Equals(*want->table))
        << "shard:\n" << got->table->ToString(8) << "memory:\n"
        << want->table->ToString(8);
  }
  std::remove(path.c_str());
}

// The same zone maps accelerate the pure in-memory case: morsels whose
// zones reject the fused predicates are skipped, with identical selection
// vectors.
TEST(StorageMorselPruningTest, InMemoryMorselPruningMatchesUnpruned) {
  TablePtr table = MakeClusteredTable(20000);
  const char* predicates[] = {
      "datum.x < 100",
      "datum.x >= 19000 && datum.v > 0",
      "datum.cat == 'run_2'",
      "datum.cat == 'absent_category'",
      "datum.x > 5000 && datum.x <= 6000 && datum.cat != 'run_0'",
  };
  for (size_t threads : {1u, 4u}) {
    ScopedEngineConfig morsels(MorselConfig(/*morsel_rows=*/512, threads));
    for (const char* text : predicates) {
      auto parsed = expr::ParseExpression(text);
      ASSERT_TRUE(parsed.ok()) << text;
      auto program = expr::Compiler::Compile(*parsed, table->schema());
      ASSERT_TRUE(program.has_value()) << text;
      ASSERT_FALSE(program->fused_preds.empty()) << text;

      const uint64_t pruned_before = storage::MorselsPruned();
      std::vector<int32_t> on, off;
      {
        ScopedEngineConfig scoped(PruningConfig(true));
        expr::RunFilterMorselParallel(*table, *program, &on);
      }
      const uint64_t pruned_delta = storage::MorselsPruned() - pruned_before;
      {
        ScopedEngineConfig scoped(PruningConfig(false));
        expr::RunFilterMorselParallel(*table, *program, &off);
      }
      EXPECT_EQ(on, off) << text << " threads=" << threads;
      EXPECT_GT(pruned_delta, 0u) << text << " threads=" << threads;
    }
  }
}

// ---------------------------------------------------------------------------
// Corruption: Status, never a crash
// ---------------------------------------------------------------------------

class StorageCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TablePtr table = testutil::MakeRandomExprTable(17, /*rows=*/2000);
    path_ = TempPath("corrupt.vps");
    storage::WriteOptions opts;
    opts.chunk_rows = 256;
    ASSERT_TRUE(storage::TableShard::Write(path_, *table, opts).ok());
    std::ifstream in(path_, std::ios::binary);
    bytes_.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
    ASSERT_FALSE(bytes_.empty());
  }

  void TearDown() override {
    std::remove(path_.c_str());
    std::remove(mutated_path().c_str());
  }

  std::string mutated_path() const { return path_ + ".mut"; }

  void WriteMutated(const std::string& contents) {
    std::ofstream out(mutated_path(), std::ios::binary | std::ios::trunc);
    out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  }

  std::string path_;
  std::string bytes_;
};

TEST_F(StorageCorruptionTest, TruncatedShardsFailOpenWithStatus) {
  // Every strict prefix must be rejected at Open: the header, dictionary
  // pages, directory, and payload extents are all bounds-checked up front.
  for (size_t len : {size_t{0}, size_t{3}, size_t{9}, size_t{40},
                     bytes_.size() / 4, bytes_.size() / 2,
                     bytes_.size() - 200, bytes_.size() - 1}) {
    if (len >= bytes_.size()) continue;
    WriteMutated(bytes_.substr(0, len));
    auto reader = storage::Reader::Open(mutated_path());
    EXPECT_FALSE(reader.ok()) << "prefix length " << len;
  }
}

TEST_F(StorageCorruptionTest, BadMagicAndGarbageFailOpenWithStatus) {
  std::string bad = bytes_;
  bad[0] = 'X';
  WriteMutated(bad);
  EXPECT_FALSE(storage::Reader::Open(mutated_path()).ok());

  WriteMutated("this is not a shard file at all");
  EXPECT_FALSE(storage::Reader::Open(mutated_path()).ok());

  EXPECT_FALSE(storage::Reader::Open(TempPath("nonexistent.vps")).ok());
}

TEST_F(StorageCorruptionTest, CorruptPayloadFailsDecodeWithStatus) {
  // Open validates directory extents, not payload contents; smashing the
  // first chunk's envelope must surface at decode as a Status.
  auto clean = storage::ColumnFile::Open(path_);
  ASSERT_TRUE(clean.ok()) << clean.status();
  const uint64_t off = (*clean)->chunk(0).payload_off;
  std::string bad = bytes_;
  ASSERT_LT(off, bad.size());
  bad[off] ^= 0x5a;  // envelope magic byte
  WriteMutated(bad);

  auto reader = storage::Reader::Open(mutated_path());
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_FALSE((*reader)->Chunk(0).ok());
  EXPECT_FALSE((*reader)->ReadAll().ok());
}

// ---------------------------------------------------------------------------
// Concurrency: shared reader, small budget, races on the LRU
// ---------------------------------------------------------------------------

TEST(StorageConcurrencyTest, ConcurrentScansUnderEvictionStayIdentical) {
  TablePtr table = MakeClusteredTable(20000);
  const std::string path = TempPath("concurrent.vps");
  storage::WriteOptions opts;
  opts.chunk_rows = 512;
  ASSERT_TRUE(storage::TableShard::Write(path, *table, opts).ok());
  auto opened = storage::Reader::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status();
  std::shared_ptr<storage::Reader> reader = *opened;
  // Budget far below the table: every pass churns the LRU.
  reader->set_residency_budget(64 * 1024);

  std::vector<storage::Predicate> preds(1);
  preds[0].col = 0;  // x
  preds[0].cmp = storage::CmpOp::kLt;
  preds[0].num_const = 2500.0;
  auto want = reader->MaterializeMatching(preds);
  ASSERT_TRUE(want.ok()) << want.status();
  const std::string want_bytes = data::SerializeBinary(**want);

  constexpr int kThreads = 8;
  constexpr int kIters = 6;
  std::vector<int> failures(kThreads, 0);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kIters; ++i) {
          auto got = (i % 2 == 0) ? reader->MaterializeMatching(preds)
                                  : reader->ReadAll();
          if (!got.ok()) {
            ++failures[t];
            continue;
          }
          if (i % 2 == 0 && data::SerializeBinary(**got) != want_bytes) {
            ++failures[t];
          }
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0) << t;
  EXPECT_GT(storage::ChunksPagedIn(), 0u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Tile-store spill: levels round-trip through the chunked format
// ---------------------------------------------------------------------------

TEST(StorageTileSpillTest, SpilledTileLevelsAnswerBitIdentically) {
  using runtime::Middleware;
  using runtime::MiddlewareOptions;

  // Quantized measures (multiples of 0.25): per-bin sums are exact, so the
  // tile answer is bit-identical regardless of accumulation order.
  data::Schema schema({{"x", data::DataType::kFloat64},
                       {"y", data::DataType::kFloat64}});
  data::TableBuilder builder(schema);
  Rng rng(5);
  for (size_t r = 0; r < 20000; ++r) {
    builder.AppendRow(
        {rng.Index(20) == 0
             ? data::Value::Null()
             : data::Value::Double(0.25 * static_cast<double>(rng.Index(400))),
         data::Value::Double(0.25 * static_cast<double>(rng.Index(2000)) -
                             50)});
  }
  TablePtr table = builder.Build();
  sql::Engine engine;
  engine.RegisterTable("t", table);
  data::TableStats stats = data::ComputeTableStats(*table);
  const data::ColumnStats* xs = stats.Find("x");
  ASSERT_NE(xs, nullptr);
  transforms::Binning bin = transforms::ComputeBinning(xs->min, xs->max, 25);

  MiddlewareOptions resident_opts;
  resident_opts.enable_client_cache = false;
  resident_opts.enable_server_cache = false;
  Middleware resident_mw(&engine, resident_opts);
  ASSERT_NE(resident_mw.tile_store(), nullptr);

  MiddlewareOptions spill_opts = resident_opts;
  spill_opts.tile_options.spill_dir = ::testing::TempDir();
  // 1 byte: every spilled level is evicted, every answer hydrates.
  spill_opts.tile_options.resident_level_bytes = 1;
  Middleware spill_mw(&engine, spill_opts);
  ASSERT_NE(spill_mw.tile_store(), nullptr);

  const std::string sql_template = StrFormat(
      "SELECT ${start} + FLOOR((x - ${start}) / ${step}) * ${step} AS bin0, "
      "(${start} + FLOOR((x - ${start}) / ${step}) * ${step}) + ${step} AS "
      "bin1, COUNT(*) AS n, SUM(y) AS s FROM t GROUP BY "
      "${start} + FLOOR((x - ${start}) / ${step}) * ${step}, "
      "(${start} + FLOOR((x - ${start}) / ${step}) * ${step}) + ${step}");
  auto run = [&](Middleware& mw) {
    auto handle = mw.Prepare(sql_template);
    EXPECT_TRUE(handle.ok()) << handle.status();
    rewrite::QueryRequest request;
    request.handle = *handle;
    request.params = {{"start", expr::EvalValue::Number(bin.start)},
                      {"step", expr::EvalValue::Number(bin.step)}};
    return mw.Submit(request)->Await();
  };

  auto resident = run(resident_mw);
  auto spilled = run(spill_mw);
  ASSERT_TRUE(resident.ok()) << resident.status();
  ASSERT_TRUE(spilled.ok()) << spilled.status();
  ASSERT_EQ(resident->source, rewrite::QueryResponse::Source::kTileStore);
  ASSERT_EQ(spilled->source, rewrite::QueryResponse::Source::kTileStore);
  EXPECT_EQ(data::SerializeBinary(*spilled->table),
            data::SerializeBinary(*resident->table));

  tiles::TileStoreStats tile_stats = spill_mw.tile_store()->stats();
  EXPECT_GT(tile_stats.levels_spilled, 0u);
  EXPECT_GT(tile_stats.levels_evicted, 0u);
  EXPECT_GT(tile_stats.level_hydrations, 0u);
  EXPECT_GT(tile_stats.hits, 0u);
}

}  // namespace
}  // namespace vegaplus
