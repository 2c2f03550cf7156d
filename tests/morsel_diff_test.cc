// Differential suite for morsel-driven parallel execution: the expression
// corpus and a group-by/filter query set run both single-threaded and
// morsel-parallel (small morsels, so even modest tables span many morsels),
// and the results must be bit-identical — same registers, same selection
// vectors, same tables, at every parallelism level. The query set also runs
// across the whole vectorized x dictionary x morsel_threads x
// zone_map_pruning cross-product against the all-oracles point. Registered
// under both the `differential` and `concurrency` ctest labels so the TSan
// CI job exercises the parallel paths.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/parallel.h"
#include "data/table.h"
#include "expr/batch_eval.h"
#include "expr/compiler.h"
#include "expr/parser.h"
#include "expr_corpus_test_util.h"
#include "runtime/engine_config.h"
#include "sql/engine.h"
#include "transforms/transforms.h"

namespace vegaplus {
namespace {

using data::TablePtr;
using data::Value;
using runtime::EngineConfig;
using runtime::ScopedEngineConfig;
using testutil::SameCell;

/// The ambient configuration with the morsel knobs pinned. Small odd
/// morsels + forced parallelism make even small tables span many morsels
/// with short boundary chunks, on any machine (including 1-core CI);
/// threads = 1 is the serial reference path.
EngineConfig MorselConfig(size_t morsel_rows, size_t threads) {
  EngineConfig cfg = EngineConfig::Current();
  cfg.morsel_rows = morsel_rows;
  cfg.morsel_threads = threads;
  return cfg;
}

TEST(MorselDiffTest, CorpusRegistersMatchSingleThreaded) {
  ScopedEngineConfig scoped(MorselConfig(/*morsel_rows=*/257, /*threads=*/4));
  TablePtr table = testutil::MakeRandomExprTable(7, /*rows=*/2000);
  size_t compiled = 0;
  for (const std::string& text : testutil::BuildExprCorpus()) {
    auto parsed = expr::ParseExpression(text);
    ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.status();
    auto program = expr::Compiler::Compile(*parsed, table->schema());
    if (!program) continue;  // scalar-only: no morsel path to compare
    ++compiled;
    expr::Vec single = expr::BatchEvaluator(*table).Run(*program);
    expr::Vec morsel = expr::RunMorselParallel(*table, *program);
    ASSERT_EQ(morsel.kind, single.kind) << text;
    ASSERT_EQ(morsel.is_const, single.is_const) << text;
    for (size_t r = 0; r < table->num_rows(); ++r) {
      ASSERT_TRUE(SameCell(single.CellValue(r), morsel.CellValue(r)))
          << text << " row " << r
          << ": single=" << single.CellValue(r).ToString()
          << " morsel=" << morsel.CellValue(r).ToString();
    }
  }
  EXPECT_GT(compiled, 1000u);  // the corpus is mostly vectorizable
}

TEST(MorselDiffTest, FilterSelectionsMatchSingleThreaded) {
  ScopedEngineConfig scoped(MorselConfig(/*morsel_rows=*/311, /*threads=*/4));
  TablePtr table = testutil::MakeRandomExprTable(23, /*rows=*/5000);
  const char* predicates[] = {
      "datum.dd > 0",                      // fused fast path per morsel
      "datum.ii != 4",                     // fused inequality, nulls included
      "datum.bb",                          // bare truthiness
      "datum.ss == 'mid'",
      "datum.dd > -10 && datum.ii <= 5",   // compound, CSE registers
      "!(datum.dd <= 0 || datum.bb)",
      "isValid(datum.dd) && datum.dd * 2 < 40",
  };
  for (const char* text : predicates) {
    auto parsed = expr::ParseExpression(text);
    ASSERT_TRUE(parsed.ok()) << text;
    auto program = expr::Compiler::Compile(*parsed, table->schema());
    ASSERT_TRUE(program.has_value()) << text;
    std::vector<int32_t> single, morsel;
    expr::BatchEvaluator(*table).RunFilter(*program, &single);
    expr::RunFilterMorselParallel(*table, *program, &morsel);
    EXPECT_EQ(morsel, single) << text;
  }
}

class MorselQueryDiffTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = testutil::MakeRandomExprTable(31, /*rows=*/30000);
    engine_.RegisterTable("t", table_);
  }

  data::TablePtr Run(const char* sql) {
    auto result = engine_.Query(sql);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status();
    return result.ok() ? result->table : nullptr;
  }

  /// `sql` at 1024-row morsels on `threads` workers.
  data::TablePtr RunAt(const char* sql, size_t threads) {
    ScopedEngineConfig scoped(MorselConfig(/*morsel_rows=*/1024, threads));
    return Run(sql);
  }

  TablePtr table_;
  sql::Engine engine_;
};

const char* kQueries[] = {
    "SELECT * FROM t WHERE dd > 0",
    "SELECT dd * 2 + ii AS x, ss FROM t WHERE ii != 4",
    "SELECT ii, COUNT(*) AS n, SUM(dd) AS s, AVG(dd) AS a FROM t GROUP BY ii "
    "ORDER BY ii",
    "SELECT ss, MIN(dd) AS lo, MAX(dd) AS hi, MEDIAN(dd) AS med, "
    "STDDEV(dd) AS sd FROM t GROUP BY ss ORDER BY ss",
    "SELECT ss, COUNT(*) AS n FROM t GROUP BY ss HAVING n > 20 ORDER BY n DESC",
    "SELECT COUNT(*) AS n, COUNT(dd) AS nv, MIN(ss) AS first_s FROM t",
    "SELECT id_mod, COUNT(*) AS n FROM (SELECT ii % 3 AS id_mod FROM t "
    "WHERE dd IS NOT NULL) GROUP BY id_mod ORDER BY id_mod",
    "SELECT ss, dd FROM t WHERE dd IS NOT NULL ORDER BY dd DESC, ss LIMIT 25 "
    "OFFSET 5",
    "SELECT ii, SUM(dd) OVER (PARTITION BY bb ORDER BY ii) AS run FROM t "
    "ORDER BY ii, run LIMIT 500",
    "SELECT MONTH(tt) AS m, COUNT(*) AS n FROM t GROUP BY MONTH(tt) ORDER BY m",
};

// Results are invariant across parallelism levels: chunk boundaries are a
// function of the data shape, never the thread count.
TEST_F(MorselQueryDiffTest, ResultsInvariantAcrossParallelismLevels) {
  const char* sql =
      "SELECT ii, COUNT(*) AS n, SUM(dd) AS s, AVG(dd) AS a, STDDEV(dd) AS sd "
      "FROM t WHERE dd IS NOT NULL GROUP BY ii ORDER BY ii";
  data::TablePtr reference;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    data::TablePtr result = RunAt(sql, threads);
    ASSERT_NE(result, nullptr) << threads << " threads";
    if (!reference) {
      reference = result;
    } else {
      ASSERT_TRUE(result->Equals(*reference)) << threads << " threads";
    }
  }

  // Current() snapshots the configured thread count (0 = hardware), not the
  // count it resolves to, so Current().Apply() is an identity and a scope
  // restores "0" rather than pinning this machine's core count.
  ScopedEngineConfig hardware(MorselConfig(/*morsel_rows=*/1024, 0));
  EngineConfig::Current().Apply();
  EXPECT_EQ(EngineConfig::Current().morsel_threads, 0u);
  {
    ScopedEngineConfig pinned(MorselConfig(/*morsel_rows=*/1024, 3));
    EXPECT_EQ(EngineConfig::Current().morsel_threads, 3u);
    EXPECT_EQ(parallel::EffectiveParallelism(), 3u);
  }
  EXPECT_EQ(EngineConfig::Current().morsel_threads, 0u);
}

// The dataflow transforms ride the same morsel paths.
TEST_F(MorselQueryDiffTest, TransformsMatchSerialPath) {
  expr::MapSignalResolver signals;

  auto run_transform = [&](dataflow::Operator& op,
                           size_t threads) -> data::TablePtr {
    ScopedEngineConfig scoped(MorselConfig(/*morsel_rows=*/1024, threads));
    auto result = op.Evaluate(table_, signals);
    EXPECT_TRUE(result.ok()) << result.status();
    return result.ok() ? result->table : nullptr;
  };

  {
    auto pred = expr::ParseExpression("datum.dd > 0 && datum.ii <= 5");
    ASSERT_TRUE(pred.ok());
    transforms::FilterOp filter(*pred);
    data::TablePtr on = run_transform(filter, 4);
    data::TablePtr off = run_transform(filter, 1);
    ASSERT_NE(on, nullptr);
    ASSERT_NE(off, nullptr);
    ASSERT_TRUE(on->Equals(*off));
  }
  {
    using transforms::FieldRef;
    transforms::AggregateOp::Params params;
    params.groupby = {FieldRef::Fixed("ss"), FieldRef::Fixed("bb")};
    params.fields = {FieldRef::Fixed("dd"), FieldRef::Fixed("dd"),
                     FieldRef::Fixed("ii"), FieldRef::Fixed("ss")};
    params.ops = {transforms::VegaAggOp::kMean, transforms::VegaAggOp::kStdev,
                  transforms::VegaAggOp::kSum, transforms::VegaAggOp::kMax};
    transforms::AggregateOp agg(params);
    data::TablePtr on = run_transform(agg, 4);
    data::TablePtr off = run_transform(agg, 1);
    ASSERT_NE(on, nullptr);
    ASSERT_NE(off, nullptr);
    ASSERT_TRUE(on->Equals(*off));
  }
}

// ---- Configuration cross-product ----
//
// Every kQueries entry at every point of vectorized x dictionary x
// morsel_threads {1, 4} x zone_map_pruning (16 points, 1024-row morsels)
// must equal the all-oracles reference point: scalar interpreter, flat
// strings, serial morsels, no pruning. Dictionary encoding is decided when
// a table is built, so each encoding gets its own table.

class ConfigCrossProductTest : public ::testing::TestWithParam<size_t> {};

EngineConfig PointConfig(bool vectorized, bool dictionary, size_t threads,
                         bool pruning) {
  EngineConfig cfg = MorselConfig(/*morsel_rows=*/1024, threads);
  cfg.vectorized = vectorized;
  cfg.dictionary_encoding = dictionary;
  cfg.zone_map_pruning = pruning;
  return cfg;
}

TEST_P(ConfigCrossProductTest, EveryPointMatchesReference) {
  const char* sql = kQueries[GetParam()];
  sql::Engine engines[2];  // indexed by dictionary_encoding
  for (bool dictionary : {false, true}) {
    ScopedEngineConfig scoped(PointConfig(true, dictionary, 1, true));
    engines[dictionary].RegisterTable(
        "t", testutil::MakeRandomExprTable(31, /*rows=*/30000));
  }
  auto run = [&](const EngineConfig& cfg) -> data::TablePtr {
    ScopedEngineConfig scoped(cfg);
    auto result = engines[cfg.dictionary_encoding].Query(sql);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status();
    return result.ok() ? result->table : nullptr;
  };

  data::TablePtr reference = run(PointConfig(false, false, 1, false));
  ASSERT_NE(reference, nullptr);
  for (bool vectorized : {false, true}) {
    for (bool dictionary : {false, true}) {
      for (size_t threads : {1u, 4u}) {
        for (bool pruning : {false, true}) {
          SCOPED_TRACE(::testing::Message()
                       << sql << " vectorized=" << vectorized
                       << " dictionary=" << dictionary
                       << " threads=" << threads << " pruning=" << pruning);
          data::TablePtr result =
              run(PointConfig(vectorized, dictionary, threads, pruning));
          ASSERT_NE(result, nullptr);
          EXPECT_TRUE(result->Equals(*reference))
              << "point:\n" << result->ToString(8)
              << "reference:\n" << reference->ToString(8);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Queries, ConfigCrossProductTest,
    ::testing::Range<size_t>(0, sizeof(kQueries) / sizeof(kQueries[0])),
    [](const ::testing::TestParamInfo<size_t>& info) {
      return "query" + std::to_string(info.param);
    });

}  // namespace
}  // namespace vegaplus
