#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <numeric>

#include "benchdata/templates.h"
#include "expr/parser.h"
#include "json/json_parser.h"
#include "plan/enumerator.h"
#include "rewrite/flatten.h"
#include "rewrite/plan_builder.h"
#include "rewrite/rewriter.h"
#include "runtime/plan_executor.h"
#include "sql/engine.h"
#include "sql/sql_parser.h"

namespace vegaplus {
namespace rewrite {
namespace {

using benchdata::TemplateId;

// Name-keyed, order-insensitive table equivalence with numeric tolerance.
// Columns of `expected` must all exist in `actual`.
::testing::AssertionResult TablesEquivalent(const data::TablePtr& expected,
                                            const data::TablePtr& actual) {
  if (!expected || !actual) {
    return ::testing::AssertionFailure() << "null table";
  }
  if (expected->num_rows() != actual->num_rows()) {
    return ::testing::AssertionFailure()
           << "row count " << actual->num_rows() << " != " << expected->num_rows();
  }
  std::vector<std::string> columns;
  for (const auto& f : expected->schema().fields()) {
    if (!actual->schema().HasField(f.name)) {
      return ::testing::AssertionFailure() << "missing column " << f.name;
    }
    columns.push_back(f.name);
  }
  auto sorted_rows = [&columns](const data::Table& t) {
    std::vector<std::vector<data::Value>> rows(t.num_rows());
    for (size_t r = 0; r < t.num_rows(); ++r) {
      for (const auto& c : columns) rows[r].push_back(t.ValueAt(r, c));
    }
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
      for (size_t i = 0; i < a.size(); ++i) {
        int cmp = a[i].Compare(b[i]);
        if (cmp != 0) return cmp < 0;
      }
      return false;
    });
    return rows;
  };
  auto ea = sorted_rows(*expected);
  auto aa = sorted_rows(*actual);
  for (size_t r = 0; r < ea.size(); ++r) {
    for (size_t c = 0; c < columns.size(); ++c) {
      const data::Value& ev = ea[r][c];
      const data::Value& av = aa[r][c];
      bool equal;
      if (ev.is_numeric() && av.is_numeric()) {
        equal = std::fabs(ev.AsDouble() - av.AsDouble()) <=
                1e-6 * std::max(1.0, std::fabs(ev.AsDouble()));
      } else {
        equal = ev == av;
      }
      if (!equal) {
        return ::testing::AssertionFailure()
               << "row " << r << " col " << columns[c] << ": " << av.ToString()
               << " != " << ev.ToString();
      }
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(RewriterTest, FilterBecomesWhere) {
  ServerPipeline p = MakeTablePipeline("flights");
  spec::TransformSpec ts{"filter", *json::Parse(
      R"({"type":"filter","expr":"datum.delay > 10 && datum.delay < 30"})")};
  ASSERT_TRUE(ExtendPipeline(&p, ts, 0).ok());
  EXPECT_EQ(RenderPipelineSql(p),
            "SELECT * FROM flights WHERE ((delay > 10) AND (delay < 30))");
}

TEST(RewriterTest, ConsecutiveFiltersMerge) {
  ServerPipeline p = MakeTablePipeline("t");
  spec::TransformSpec f1{"filter", *json::Parse(R"({"type":"filter","expr":"datum.a > 1"})")};
  spec::TransformSpec f2{"filter", *json::Parse(R"({"type":"filter","expr":"datum.b < 2"})")};
  ASSERT_TRUE(ExtendPipeline(&p, f1, 0).ok());
  ASSERT_TRUE(ExtendPipeline(&p, f2, 1).ok());
  std::string sql = RenderPipelineSql(p);
  // One flat WHERE, no subquery.
  EXPECT_EQ(sql.find("FROM ("), std::string::npos) << sql;
  EXPECT_NE(sql.find("AND"), std::string::npos);
}

TEST(RewriterTest, ExtentBecomesSideQuery) {
  ServerPipeline p = MakeTablePipeline("flights");
  spec::TransformSpec ts{"extent", *json::Parse(
      R"({"type":"extent","field":"delay","signal":"x_extent"})")};
  ASSERT_TRUE(ExtendPipeline(&p, ts, 0).ok());
  ASSERT_EQ(p.side_queries.size(), 1u);
  EXPECT_EQ(p.side_queries[0].sql_template,
            "SELECT MIN(delay) AS min0, MAX(delay) AS max0 FROM flights");
  EXPECT_EQ(p.side_queries[0].output_signal, "x_extent");
  // Data path unchanged.
  EXPECT_EQ(RenderPipelineSql(p), "SELECT * FROM flights");
}

TEST(RewriterTest, BinAggregateAbsorbedIntoOneQuery) {
  // The Example 4.1 batching: bin + aggregate in a single GROUP BY query.
  ServerPipeline p = MakeTablePipeline("flights");
  spec::TransformSpec bin{"bin", *json::Parse(
      R"({"type":"bin","field":"delay","extent":{"signal":"e"},"maxbins":{"signal":"mb"},"as":["bin0","bin1"]})")};
  spec::TransformSpec agg{"aggregate", *json::Parse(
      R"({"type":"aggregate","groupby":["bin0","bin1"],"ops":["count"],"fields":[null],"as":["count"]})")};
  ASSERT_TRUE(ExtendPipeline(&p, bin, 0).ok());
  ASSERT_TRUE(ExtendPipeline(&p, agg, 1).ok());
  std::string sql = RenderPipelineSql(p);
  EXPECT_EQ(sql.find("FROM ("), std::string::npos) << "not flattened: " << sql;
  EXPECT_NE(sql.find("GROUP BY"), std::string::npos);
  EXPECT_NE(sql.find("FLOOR"), std::string::npos);
  EXPECT_NE(sql.find("COUNT(*)"), std::string::npos);
  // Derived holes present for the bin parameters.
  EXPECT_NE(sql.find("_start}"), std::string::npos);
  EXPECT_NE(sql.find("_step}"), std::string::npos);
}

TEST(RewriterTest, DynamicFieldUsesIdentifierHole) {
  ServerPipeline p = MakeTablePipeline("flights");
  spec::TransformSpec ts{"extent", *json::Parse(
      R"({"type":"extent","field":{"signal":"field"},"signal":"e"})")};
  ASSERT_TRUE(ExtendPipeline(&p, ts, 0).ok());
  EXPECT_NE(p.side_queries[0].sql_template.find("${field:id}"), std::string::npos);
}

TEST(RewriterTest, UntranslatableFilterNotRewritable) {
  spec::TransformSpec bad{"filter", *json::Parse(
      R"({"type":"filter","expr":"format(datum.x, '.2f') == '1.00'"})")};
  EXPECT_FALSE(IsRewritable(bad));
  spec::TransformSpec good{"filter", *json::Parse(
      R"({"type":"filter","expr":"datum.x > 1"})")};
  EXPECT_TRUE(IsRewritable(good));
}

TEST(RewriterTest, RewritablePrefixStopsAtFirstUnsupported) {
  spec::DataSpec d;
  d.transforms = {
      {"filter", *json::Parse(R"({"type":"filter","expr":"datum.x > 1"})")},
      {"filter", *json::Parse(R"({"type":"filter","expr":"format(datum.x,'d') == '1'"})")},
      {"aggregate", *json::Parse(R"({"type":"aggregate","groupby":["x"]})")},
  };
  EXPECT_EQ(RewritablePrefixLength(d), 1);
}

TEST(FlattenTest, SubstituteColumn) {
  auto e = *expr::ParseExpression("datum.bin0 + datum.other");
  auto replacement = *expr::ParseExpression("floor(datum.v / 2) * 2");
  auto out = SubstituteColumn(e, "bin0", replacement);
  std::string s = expr::ToString(out);
  EXPECT_NE(s.find("floor"), std::string::npos);
  EXPECT_NE(s.find("datum.other"), std::string::npos);
  EXPECT_EQ(s.find("bin0"), std::string::npos);
}

TEST(FlattenTest, ProjectionInlineSkippedWhenOuterHasStar) {
  auto stmt = *sql::ParseSql(
      "SELECT * FROM (SELECT *, a + 1 AS b FROM t) AS sub WHERE b > 2");
  auto copy = CloneStmt(*stmt);
  FlattenStmt(copy.get());
  // Outer star would change schema if inlined; must keep the subquery.
  EXPECT_NE(copy->from.subquery, nullptr);
}

TEST(FlattenTest, ProjectionInlineCarriesInnerWhere) {
  // R2 with an inner WHERE: the brush joins the outer WHERE ahead of the
  // substituted outer predicate, and GROUP BY reads the inlined bin.
  auto stmt = *sql::ParseSql(
      "SELECT b, COUNT(*) AS n FROM (SELECT *, FLOOR(a / 2) * 2 AS b FROM t "
      "WHERE c > 0) AS sub WHERE b < 8 GROUP BY b");
  auto copy = CloneStmt(*stmt);
  FlattenStmt(copy.get());
  EXPECT_EQ(copy->from.subquery, nullptr);
  EXPECT_EQ(sql::ToSql(*copy),
            "SELECT (FLOOR((a / 2)) * 2) AS b, COUNT(*) AS n FROM t WHERE ((c > 0) AND "
            "((FLOOR((a / 2)) * 2) < 8)) GROUP BY (FLOOR((a / 2)) * 2)");

  // No outer WHERE: the inner one carries over alone.
  auto bare = CloneStmt(**sql::ParseSql(
      "SELECT b FROM (SELECT *, a * 2 AS b FROM t WHERE a < 5) AS s"));
  FlattenStmt(bare.get());
  EXPECT_EQ(sql::ToSql(*bare), "SELECT (a * 2) AS b FROM t WHERE (a < 5)");

  // R1 below R2: a pass-through filter under the projection merges first.
  auto chain = CloneStmt(**sql::ParseSql(
      "SELECT b, COUNT(*) AS n FROM (SELECT *, a + 1 AS b FROM (SELECT * FROM t "
      "WHERE a > 0) AS x WHERE c < 3) AS y GROUP BY b"));
  FlattenStmt(chain.get());
  EXPECT_EQ(sql::ToSql(*chain),
            "SELECT (a + 1) AS b, COUNT(*) AS n FROM t WHERE ((a > 0) AND (c < 3)) "
            "GROUP BY (a + 1)");

  // An outer `*` still blocks the inline, WHERE or not.
  auto star = CloneStmt(**sql::ParseSql(
      "SELECT * FROM (SELECT *, a + 1 AS b FROM t WHERE a > 0) AS sub WHERE b > 2"));
  FlattenStmt(star.get());
  EXPECT_NE(star->from.subquery, nullptr);
}

TEST(FlattenTest, ProjectionInlineSubstitutesAllAliasesAtOnce) {
  // `z * 2` reads the base column z, not the sibling alias z.
  auto stmt = CloneStmt(**sql::ParseSql(
      "SELECT a1, z FROM (SELECT *, z * 2 AS a1, q + 1 AS z FROM t) AS s"));
  FlattenStmt(stmt.get());
  EXPECT_EQ(sql::ToSql(*stmt), "SELECT (z * 2) AS a1, (q + 1) AS z FROM t");
}

TEST(FlattenTest, InlinedInnerWhereExecutesLikeTheNestedQuery) {
  data::Column a(data::DataType::kFloat64);
  data::Column c(data::DataType::kFloat64);
  for (int r = 0; r < 200; ++r) {
    if (r % 17 == 0) {
      a.AppendNull();
    } else {
      a.AppendDouble((r * 37) % 23 - 11.5);
    }
    c.AppendDouble(r % 5 - 2);
  }
  std::vector<data::Column> cols;
  cols.push_back(std::move(a));
  cols.push_back(std::move(c));
  sql::Engine engine;
  engine.RegisterTable(
      "t", std::make_shared<data::Table>(
               data::Schema({{"a", data::DataType::kFloat64},
                             {"c", data::DataType::kFloat64}}),
               std::move(cols)));
  const char* nested =
      "SELECT b, COUNT(*) AS n, SUM(c) AS s FROM (SELECT *, FLOOR(a / 4) * 4 AS b "
      "FROM t WHERE c > -2) AS sub WHERE b < 8 GROUP BY b";
  auto stmt = *sql::ParseSql(nested);
  auto flat = CloneStmt(*stmt);
  FlattenStmt(flat.get());
  ASSERT_EQ(flat->from.subquery, nullptr);
  auto want = engine.Execute(*stmt);
  auto got = engine.Execute(*flat);
  ASSERT_TRUE(want.ok()) << want.status();
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_TRUE(got->table->Equals(*want->table))
      << "flat:\n" << got->table->ToString(8) << "nested:\n" << want->table->ToString(8);
}

TEST(FlattenTest, FilterMergeThroughTwoLevels) {
  auto stmt = *sql::ParseSql(
      "SELECT a FROM (SELECT * FROM (SELECT * FROM t WHERE a > 1) AS x WHERE a < 9) "
      "AS y WHERE a <> 5");
  auto copy = CloneStmt(*stmt);
  FlattenStmt(copy.get());
  EXPECT_EQ(copy->from.subquery, nullptr);
  EXPECT_EQ(copy->from.table_name, "t");
  std::string sql = sql::ToSql(*copy);
  EXPECT_NE(sql.find("a > 1"), std::string::npos);
  EXPECT_NE(sql.find("a < 9"), std::string::npos);
  EXPECT_NE(sql.find("a <> 5"), std::string::npos);
}

// ---- Plan builder + end-to-end equivalence ----

class PlanEquivalenceTest : public ::testing::TestWithParam<TemplateId> {};

TEST_P(PlanEquivalenceTest, EveryPlanMatchesClientExecution) {
  auto bc = benchdata::MakeBenchCase(GetParam(), "flights", 3000, 42);
  ASSERT_TRUE(bc.ok()) << bc.status();
  sql::Engine engine;
  engine.RegisterTable(bc->dataset.name, bc->dataset.table);

  // Ground truth: the all-client dataflow.
  std::map<std::string, data::TablePtr> tables{{bc->dataset.name, bc->dataset.table}};
  auto client = spec::CompileClientDataflow(bc->spec, tables);
  ASSERT_TRUE(client.ok()) << client.status();
  ASSERT_TRUE(client->graph->Run().ok());

  rewrite::PlanBuilder builder(bc->spec);
  auto enumeration = plan::EnumeratePlans(builder, /*max_plans=*/24, /*seed=*/3);
  ASSERT_FALSE(enumeration.plans.empty());

  for (const auto& p : enumeration.plans) {
    runtime::PlanExecutor executor(bc->spec, &engine, runtime::MiddlewareOptions{});
    auto cost = executor.Initialize(p);
    ASSERT_TRUE(cost.ok()) << cost.status() << " plan " << p.Key();
    for (const auto& d : bc->spec.data) {
      const spec::CompiledEntry* entry = client->FindEntry(d.name);
      ASSERT_NE(entry, nullptr);
      data::TablePtr expected = entry->tail->output;
      data::TablePtr actual = executor.EntryOutput(d.name);
      if (actual == nullptr) continue;  // consolidated away under this plan
      EXPECT_TRUE(TablesEquivalent(expected, actual))
          << "entry " << d.name << " plan " << p.Key();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTemplates, PlanEquivalenceTest,
    ::testing::ValuesIn(benchdata::AllTemplates()),
    [](const ::testing::TestParamInfo<TemplateId>& info) {
      std::string name = benchdata::TemplateName(info.param);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(PlanBuilderTest, ValidateRejectsBadPlans) {
  auto bc = benchdata::MakeBenchCase(TemplateId::kInteractiveHistogram, "movies", 500, 1);
  ASSERT_TRUE(bc.ok());
  rewrite::PlanBuilder builder(bc->spec);
  ExecutionPlan p;
  p.splits = {0};  // wrong arity
  EXPECT_FALSE(builder.Validate(p).ok());
  p.splits = {0, 99};  // split beyond prefix
  EXPECT_FALSE(builder.Validate(p).ok());
  p.splits = {0, 0};
  EXPECT_TRUE(builder.Validate(p).ok());
}

TEST(PlanBuilderTest, FullPushdownIsValid) {
  for (TemplateId id : benchdata::AllTemplates()) {
    auto bc = benchdata::MakeBenchCase(id, "weather", 500, 5);
    ASSERT_TRUE(bc.ok()) << bc.status();
    rewrite::PlanBuilder builder(bc->spec);
    EXPECT_TRUE(builder.Validate(builder.FullPushdownPlan()).ok())
        << benchdata::TemplateName(id);
    EXPECT_TRUE(builder.Validate(builder.AllClientPlan()).ok());
  }
}

TEST(PlanBuilderTest, InteractionsKeepPlansEquivalent) {
  // Apply a slider + dropdown interaction to every plan of the histogram and
  // re-check equivalence (signal holes must refill correctly).
  auto bc = benchdata::MakeBenchCase(TemplateId::kInteractiveHistogram, "flights",
                                     2000, 7);
  ASSERT_TRUE(bc.ok());
  sql::Engine engine;
  engine.RegisterTable(bc->dataset.name, bc->dataset.table);
  std::map<std::string, data::TablePtr> tables{{bc->dataset.name, bc->dataset.table}};

  std::vector<runtime::SignalUpdate> updates{
      {"maxbins", expr::EvalValue::Number(23)},
      {"field", expr::EvalValue::String(bc->dataset.quantitative[1])}};

  auto client = spec::CompileClientDataflow(bc->spec, tables);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->graph->Run().ok());
  ASSERT_TRUE(client->graph->Update(updates).ok());

  rewrite::PlanBuilder builder(bc->spec);
  auto enumeration = plan::EnumeratePlans(builder);
  for (const auto& p : enumeration.plans) {
    runtime::PlanExecutor executor(bc->spec, &engine, runtime::MiddlewareOptions{});
    ASSERT_TRUE(executor.Initialize(p).ok());
    ASSERT_TRUE(executor.Interact(updates).ok()) << p.Key();
    data::TablePtr expected = client->FindEntry("binned")->tail->output;
    data::TablePtr actual = executor.EntryOutput("binned");
    ASSERT_NE(actual, nullptr);
    EXPECT_TRUE(TablesEquivalent(expected, actual)) << "plan " << p.Key();
  }
}

TEST(VdtTest, SignalVdtPublishesExtent) {
  sql::Engine engine;
  data::Schema schema({{"v", data::DataType::kFloat64}});
  engine.RegisterTable("t", data::MakeTable(schema, {{data::Value::Double(2)},
                                                     {data::Value::Double(8)}}));
  runtime::Middleware middleware(&engine, {});
  SignalVdtOp vdt("SELECT MIN(v) AS min0, MAX(v) AS max0 FROM t", {}, &middleware, "e");
  dataflow::SignalRegistry signals;
  auto result = vdt.Evaluate(nullptr, signals);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->signal_writes.size(), 1u);
  EXPECT_EQ(result->signal_writes[0].first, "e");
  EXPECT_DOUBLE_EQ(result->signal_writes[0].second.array()[0].AsDouble(), 2.0);
  EXPECT_DOUBLE_EQ(result->signal_writes[0].second.array()[1].AsDouble(), 8.0);
  EXPECT_GT(result->external_millis, 0.0);
}

TEST(VdtTest, UnresolvedHoleFails) {
  sql::Engine engine;
  runtime::Middleware middleware(&engine, {});
  VdtOp vdt("SELECT * FROM t WHERE x > ${missing}", {}, &middleware);
  dataflow::SignalRegistry signals;
  EXPECT_FALSE(vdt.Evaluate(nullptr, signals).ok());
}

}  // namespace
}  // namespace rewrite
}  // namespace vegaplus
