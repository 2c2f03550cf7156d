// Differential suite for the vectorized expression engine: every expression
// in a generated corpus (all binary/unary operators, ternaries, calls,
// nulls, NaNs, strings) runs through both the scalar interpreter
// (expr::Evaluate row-at-a-time) and the compiled column-at-a-time engine
// (expr::Compiler + expr::BatchEvaluator) over randomized columns, and the
// results must be identical cell for cell. A second layer checks whole SQL
// queries with the vectorized executor path toggled on and off.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "data/table.h"
#include "expr/batch_eval.h"
#include "expr/compiler.h"
#include "expr/evaluator.h"
#include "expr/parser.h"
#include "expr_corpus_test_util.h"
#include "sql/engine.h"

namespace vegaplus {
namespace {

using data::TablePtr;
using data::Value;
using testutil::BuildExprCorpus;
using testutil::SameCell;

constexpr size_t kRows = 400;

TablePtr MakeRandomTable(uint64_t seed) {
  return testutil::MakeRandomExprTable(seed, kRows);
}

// Compile-time CSE: repeated loads of one column are detected, the cached
// register is reused, and results stay identical to the scalar interpreter.
TEST(ColumnCseTest, RepeatedLoadsDetectedAndEquivalent) {
  TablePtr table = MakeRandomTable(11);
  auto parsed =
      expr::ParseExpression("datum.dd > 2 && datum.dd < 40 && datum.dd != 7");
  ASSERT_TRUE(parsed.ok());
  auto program = expr::Compiler::Compile(*parsed, table->schema());
  ASSERT_TRUE(program.has_value());
  int32_t dd = table->schema().FieldIndex("dd");
  ASSERT_GE(dd, 0);
  ASSERT_EQ(program->reused_cols.size(), 1u);
  EXPECT_EQ(program->reused_cols[0].first, dd);
  EXPECT_EQ(program->reused_cols[0].second, 3);

  std::vector<Value> actual;
  expr::BatchEvaluator(*table).RunToValues(*program, &actual);
  expr::EvalContext ctx;
  ctx.table = table.get();
  for (size_t r = 0; r < table->num_rows(); ++r) {
    ctx.row = r;
    Value expected = expr::Evaluate(*parsed, ctx).scalar();
    ASSERT_TRUE(SameCell(expected, actual[r])) << "row " << r;
  }
}

class VectorEngineDiffTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VectorEngineDiffTest, CorpusMatchesScalarInterpreter) {
  TablePtr table = MakeRandomTable(GetParam());
  size_t compiled = 0, fallback = 0;
  for (const std::string& text : BuildExprCorpus()) {
    auto parsed = expr::ParseExpression(text);
    ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.status();
    auto program = expr::Compiler::Compile(*parsed, table->schema());
    if (!program) {
      ++fallback;  // scalar fallback is the documented contract here
      continue;
    }
    ++compiled;
    std::vector<Value> actual;
    expr::BatchEvaluator(*table).RunToValues(*program, &actual);
    ASSERT_EQ(actual.size(), table->num_rows()) << text;
    expr::EvalContext ctx;
    ctx.table = table.get();
    for (size_t r = 0; r < table->num_rows(); ++r) {
      ctx.row = r;
      expr::EvalValue ev = expr::Evaluate(*parsed, ctx);
      Value expected = ev.is_array() ? Value::Null() : ev.scalar();
      ASSERT_TRUE(SameCell(expected, actual[r]))
          << text << " row " << r << ": scalar=" << expected.ToString()
          << " vector=" << actual[r].ToString();
    }
  }
  // Most of the corpus is vectorizable (the string/numeric mixes — heavily
  // represented since the string operands joined the operand pool — and
  // array expressions legitimately fall back); a compiler regression that
  // rejects everything should fail loudly, not silently shift the whole
  // suite onto the fallback path.
  EXPECT_GT(compiled, fallback) << compiled << " compiled, " << fallback
                                << " fell back";
  EXPECT_GT(compiled, 1000u);
}

TEST_P(VectorEngineDiffTest, FilterSelectionsMatchScalarTruthiness) {
  TablePtr table = MakeRandomTable(GetParam() * 31 + 7);
  const char* predicates[] = {
      "datum.dd > 0",        // fused compare (column lhs)
      "10 >= datum.dd",      // fused compare (column rhs, mirrored)
      "datum.ii == 4",       // fused equality
      "datum.ii != 4",       // fused inequality: null rows are included
      "datum.dd == null",    // null comparisons stay on the general path
      "datum.bb",            // bare column truthiness
      "datum.ss == 'mid'",
      "datum.dd > -10 && datum.ii <= 5",
      "!(datum.dd <= 0 || datum.bb)",
      "isValid(datum.dd) && datum.dd * 2 < 40",
      // Fused OR-trees: compiled to one bitmap-combine pass by the kernels.
      "datum.dd > 10 || datum.ii < -5",
      "datum.dd > 10 || datum.ii < -5 || datum.sc == 'cat_1'",
      "datum.dd > 0 && datum.ii < 10 || datum.dd < -40",
      "(datum.dd > 0 || datum.ii == 4) && datum.sc != 'cat_2'",
      "datum.ss == 'mid' || datum.dd >= 49",
  };
  for (const char* text : predicates) {
    auto parsed = expr::ParseExpression(text);
    ASSERT_TRUE(parsed.ok()) << text;
    auto program = expr::Compiler::Compile(*parsed, table->schema());
    ASSERT_TRUE(program.has_value()) << text << " should vectorize";
    std::vector<int32_t> vec_sel;
    expr::BatchEvaluator(*table).RunFilter(*program, &vec_sel);
    std::vector<int32_t> scalar_sel;
    expr::EvalContext ctx;
    ctx.table = table.get();
    for (size_t r = 0; r < table->num_rows(); ++r) {
      ctx.row = r;
      if (expr::Evaluate(*parsed, ctx).Truthy()) {
        scalar_sel.push_back(static_cast<int32_t>(r));
      }
    }
    EXPECT_EQ(vec_sel, scalar_sel) << text;
  }
}

TEST_P(VectorEngineDiffTest, ExecutorAgreesWithScalarPath) {
  TablePtr table = MakeRandomTable(GetParam() * 131 + 17);
  sql::Engine engine;
  engine.RegisterTable("t", table);
  const char* queries[] = {
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
      "SELECT ii, ROW_NUMBER() OVER (PARTITION BY ss ORDER BY dd) AS rn FROM t "
      "ORDER BY ii, rn",
      "SELECT ii, SUM(dd) OVER (PARTITION BY bb ORDER BY ii) AS run FROM t "
      "ORDER BY ii, run",
      "SELECT MONTH(tt) AS m, COUNT(*) AS n FROM t GROUP BY MONTH(tt) ORDER BY m",
      "SELECT CASE WHEN dd > 10 THEN 'hi' WHEN dd IS NULL THEN 'null' "
      "ELSE 'lo' END AS bucket, ii FROM t ORDER BY ii LIMIT 50",
      // String-constant group keys: the grouping registers must own their
      // constants (regression: they once dangled into the freed Program).
      "SELECT CASE WHEN dd > 0 THEN 'pos' ELSE 'neg' END AS sign_s, "
      "COUNT(*) AS n FROM t GROUP BY CASE WHEN dd > 0 THEN 'pos' ELSE 'neg' END "
      "ORDER BY sign_s",
  };
  for (const char* sql : queries) {
    expr::SetVectorizedEnabled(true);
    auto vec = engine.Query(sql);
    expr::SetVectorizedEnabled(false);
    auto scalar = engine.Query(sql);
    expr::SetVectorizedEnabled(true);
    ASSERT_TRUE(vec.ok()) << sql << ": " << vec.status();
    ASSERT_TRUE(scalar.ok()) << sql << ": " << scalar.status();
    ASSERT_EQ(vec->table->num_rows(), scalar->table->num_rows()) << sql;
    ASSERT_TRUE(vec->table->Equals(*scalar->table))
        << sql << "\nvectorized:\n" << vec->table->ToString(8)
        << "scalar:\n" << scalar->table->ToString(8);
  }
}

// Differential for the kernel library: RunFilter must select exactly the
// rows the scalar interpreter does, across SIMD-hostile batch lengths
// (empty, single row, one off either side of typical register widths, and
// one off either side of the morsel size) plus an all-null batch. The table
// mixes NaN/±Inf/−0.0/denormal doubles via MakeRandomExprTable.
TEST_P(VectorEngineDiffTest, KernelFilterMatchesInterpreter) {
  const char* predicates[] = {
      "datum.dd > 0",
      "datum.ii != 4",
      "datum.dd == 0",  // −0.0 == 0.0 must hold
      "datum.dd > -10 && datum.ii <= 5 && datum.dd != 7",
      "datum.sc == 'cat_1' && datum.dd > 0",
      "datum.dd > 10 || datum.ii < -5",
      "(datum.dd > 0 || datum.ii == 4) && datum.sc != 'cat_2'",
      "datum.ss == 'mid' || datum.dd >= 49",
  };
  const size_t morsel = parallel::MorselRows();
  const size_t lengths[] = {0,          1,      7,      8,  9,
                            15,         16,     17,     63, 64,
                            65,         400,    morsel - 1, morsel,
                            morsel + 1};
  const size_t max_len = morsel + 1;
  TablePtr full = testutil::MakeRandomExprTable(GetParam() * 977 + 5, max_len);
  // All-null twin: every cell null, exercising the all-invalid fast paths.
  TablePtr all_null;
  {
    std::vector<data::Column> cols;
    for (const auto& field : full->schema().fields()) {
      data::Column col(field.type);
      for (size_t r = 0; r < 32; ++r) col.AppendNull();
      cols.push_back(std::move(col));
    }
    all_null = std::make_shared<data::Table>(full->schema(), std::move(cols));
  }
  std::vector<TablePtr> tables;
  for (size_t len : lengths) tables.push_back(full->Slice(0, len));
  tables.push_back(all_null);

  for (const char* text : predicates) {
    auto parsed = expr::ParseExpression(text);
    ASSERT_TRUE(parsed.ok()) << text;
    for (const TablePtr& table : tables) {
      auto program = expr::Compiler::Compile(*parsed, table->schema());
      ASSERT_TRUE(program.has_value()) << text << " should vectorize";
      std::vector<int32_t> kernel_sel;
      expr::BatchEvaluator(*table).RunFilter(*program, &kernel_sel);
      std::vector<int32_t> scalar_sel;
      expr::EvalContext ctx;
      ctx.table = table.get();
      for (size_t r = 0; r < table->num_rows(); ++r) {
        ctx.row = r;
        if (expr::Evaluate(*parsed, ctx).Truthy()) {
          scalar_sel.push_back(static_cast<int32_t>(r));
        }
      }
      EXPECT_EQ(kernel_sel, scalar_sel)
          << text << " rows=" << table->num_rows() << " vs scalar interpreter";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VectorEngineDiffTest,
                         ::testing::Values(1u, 2u, 3u, 4u),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace vegaplus
