#include <gtest/gtest.h>

#include <cmath>

#include "expr/compiler.h"
#include "sql/prepared.h"
#include "sql/sql_parser.h"

namespace vegaplus {
namespace sql {
namespace {

SelectPtr MustParse(const std::string& text) {
  auto r = ParseSql(text);
  EXPECT_TRUE(r.ok()) << r.status() << " for: " << text;
  return r.ok() ? *r : nullptr;
}

TEST(SqlParserTest, MinimalSelect) {
  SelectPtr s = MustParse("SELECT * FROM flights");
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(s->items.size(), 1u);
  EXPECT_EQ(s->items[0].kind, SelectItem::Kind::kStar);
  EXPECT_EQ(s->from.table_name, "flights");
}

TEST(SqlParserTest, CaseInsensitiveKeywords) {
  EXPECT_NE(MustParse("select * from t where x > 1 order by x desc limit 5"), nullptr);
}

TEST(SqlParserTest, ColumnsAndAliases) {
  SelectPtr s = MustParse("SELECT a, b AS bee, a + 1 plus FROM t");
  ASSERT_EQ(s->items.size(), 3u);
  EXPECT_EQ(DeriveItemName(s->items[0], 0), "a");
  EXPECT_EQ(DeriveItemName(s->items[1], 1), "bee");
  EXPECT_EQ(DeriveItemName(s->items[2], 2), "plus");
}

TEST(SqlParserTest, Aggregates) {
  SelectPtr s = MustParse(
      "SELECT origin, COUNT(*) AS cnt, SUM(delay) AS total, AVG(delay), MIN(delay), "
      "MAX(delay), MEDIAN(delay), STDDEV(delay) FROM flights GROUP BY origin");
  ASSERT_EQ(s->items.size(), 8u);
  EXPECT_EQ(s->items[1].kind, SelectItem::Kind::kAggregate);
  EXPECT_EQ(s->items[1].agg_op, AggOp::kCount);
  EXPECT_EQ(s->items[1].agg_arg, nullptr);
  EXPECT_EQ(s->items[2].agg_op, AggOp::kSum);
  EXPECT_EQ(s->items[7].agg_op, AggOp::kStddev);
  ASSERT_EQ(s->group_by.size(), 1u);
}

TEST(SqlParserTest, AggregateNamesDerive) {
  SelectPtr s = MustParse("SELECT COUNT(*), SUM(delay) FROM t");
  EXPECT_EQ(DeriveItemName(s->items[0], 0), "count");
  EXPECT_EQ(DeriveItemName(s->items[1], 1), "sum_delay");
}

TEST(SqlParserTest, WhereDesugaring) {
  SelectPtr s = MustParse(
      "SELECT * FROM t WHERE a BETWEEN 1 AND 5 AND b IS NOT NULL AND c IN ('x','y') "
      "AND NOT d >= 2");
  ASSERT_NE(s->where, nullptr);
  // Round-trip through the unparser must preserve the desugared forms.
  std::string sql = ToSql(*s);
  EXPECT_NE(sql.find("a >= 1"), std::string::npos);
  EXPECT_NE(sql.find("a <= 5"), std::string::npos);
  EXPECT_NE(sql.find("b IS NOT NULL"), std::string::npos);
  EXPECT_NE(sql.find("c = 'x'"), std::string::npos);
  EXPECT_NE(sql.find("OR"), std::string::npos);
}

TEST(SqlParserTest, IsNullForms) {
  SelectPtr s = MustParse("SELECT * FROM t WHERE a IS NULL");
  std::string sql = ToSql(*s);
  EXPECT_NE(sql.find("NOT (a IS NOT NULL)"), std::string::npos);
}

TEST(SqlParserTest, CaseExpression) {
  SelectPtr s = MustParse(
      "SELECT CASE WHEN x > 0 THEN 'pos' WHEN x < 0 THEN 'neg' ELSE 'zero' END AS sign "
      "FROM t");
  ASSERT_EQ(s->items.size(), 1u);
  std::string sql = ToSql(*s);
  EXPECT_NE(sql.find("CASE WHEN"), std::string::npos);
  EXPECT_NE(sql.find("'zero'"), std::string::npos);
}

TEST(SqlParserTest, Subquery) {
  SelectPtr s = MustParse(
      "SELECT origin, COUNT(*) AS cnt FROM (SELECT * FROM flights WHERE delay > 10) "
      "AS filtered GROUP BY origin");
  ASSERT_NE(s->from.subquery, nullptr);
  EXPECT_EQ(s->from.alias, "filtered");
  EXPECT_EQ(s->from.subquery->from.table_name, "flights");
}

TEST(SqlParserTest, NestedSubqueries) {
  SelectPtr s = MustParse(
      "SELECT * FROM (SELECT * FROM (SELECT * FROM t) AS a) AS b LIMIT 3");
  ASSERT_NE(s->from.subquery, nullptr);
  ASSERT_NE(s->from.subquery->from.subquery, nullptr);
  EXPECT_EQ(s->limit, 3);
}

TEST(SqlParserTest, WindowFunctions) {
  SelectPtr s = MustParse(
      "SELECT g, SUM(v) OVER (PARTITION BY g ORDER BY o) AS running, "
      "ROW_NUMBER() OVER (ORDER BY o DESC) AS rn FROM t");
  ASSERT_EQ(s->items.size(), 3u);
  EXPECT_EQ(s->items[1].kind, SelectItem::Kind::kWindow);
  EXPECT_EQ(s->items[1].window.op, WindowOp::kSum);
  ASSERT_EQ(s->items[1].window.partition_by.size(), 1u);
  ASSERT_EQ(s->items[1].window.order_by.size(), 1u);
  EXPECT_EQ(s->items[2].window.op, WindowOp::kRowNumber);
  EXPECT_TRUE(s->items[2].window.order_by[0].descending);
}

TEST(SqlParserTest, OrderLimitOffset) {
  SelectPtr s = MustParse("SELECT * FROM t ORDER BY a, b DESC LIMIT 10 OFFSET 5");
  ASSERT_EQ(s->order_by.size(), 2u);
  EXPECT_FALSE(s->order_by[0].descending);
  EXPECT_TRUE(s->order_by[1].descending);
  EXPECT_EQ(s->limit, 10);
  EXPECT_EQ(s->offset, 5);
}

TEST(SqlParserTest, QuotedIdentifiers) {
  SelectPtr s = MustParse("SELECT \"weird col\" FROM \"my table\"");
  EXPECT_EQ(s->from.table_name, "my table");
  EXPECT_EQ(DeriveItemName(s->items[0], 0), "weird col");
}

TEST(SqlParserTest, FunctionsAndDateParts) {
  SelectPtr s = MustParse(
      "SELECT FLOOR((delay - 1) / 5) * 5 AS bin0, DATE_TRUNC('month', ts) AS m, "
      "YEAR(ts) AS y FROM t");
  ASSERT_EQ(s->items.size(), 3u);
  std::string sql = ToSql(*s);
  EXPECT_NE(sql.find("FLOOR"), std::string::npos);
  EXPECT_NE(sql.find("DATE_TRUNC('month', ts)"), std::string::npos);
  EXPECT_NE(sql.find("YEAR(ts)"), std::string::npos);
}

TEST(SqlParserTest, ModBothForms) {
  EXPECT_NE(MustParse("SELECT a % 2 FROM t"), nullptr);
  EXPECT_NE(MustParse("SELECT MOD(a, 2) FROM t"), nullptr);
}

TEST(SqlParserTest, Having) {
  SelectPtr s = MustParse(
      "SELECT origin, COUNT(*) AS cnt FROM t GROUP BY origin HAVING cnt > 5");
  ASSERT_NE(s->having, nullptr);
}

TEST(SqlParserTest, Errors) {
  EXPECT_FALSE(ParseSql("").ok());
  EXPECT_FALSE(ParseSql("SELECT").ok());
  EXPECT_FALSE(ParseSql("SELECT * FROM").ok());
  EXPECT_FALSE(ParseSql("SELECT * FROM t WHERE").ok());
  EXPECT_FALSE(ParseSql("SELECT * FROM t GROUP BY").ok());
  EXPECT_FALSE(ParseSql("SELECT * FROM t LIMIT x").ok());
  EXPECT_FALSE(ParseSql("SELECT nosuchfunc(a) FROM t").ok());
  EXPECT_FALSE(ParseSql("SELECT * FROM t extra garbage ;;").ok());
  EXPECT_FALSE(ParseSql("SELECT AVG(*) FROM t").ok());  // '*' only for COUNT
  EXPECT_FALSE(ParseSql("SELECT a FROM t WHERE SUM(a) > 1").ok());  // agg in scalar
}

TEST(SqlUnparseTest, RoundTripStability) {
  const char* queries[] = {
      "SELECT * FROM flights WHERE delay > 10",
      "SELECT origin, COUNT(*) AS cnt FROM flights GROUP BY origin ORDER BY cnt DESC "
      "LIMIT 10",
      "SELECT FLOOR(delay / 5) * 5 AS bin0, COUNT(*) AS count FROM (SELECT * FROM "
      "flights WHERE delay BETWEEN 0 AND 100) AS f GROUP BY FLOOR(delay / 5) * 5",
      "SELECT g, SUM(v) OVER (PARTITION BY g ORDER BY o) AS run FROM t",
  };
  for (const char* q : queries) {
    SelectPtr once = MustParse(q);
    ASSERT_NE(once, nullptr);
    std::string sql1 = ToSql(*once);
    SelectPtr twice = MustParse(sql1);
    ASSERT_NE(twice, nullptr) << sql1;
    EXPECT_EQ(sql1, ToSql(*twice)) << "unparse not a fixed point for: " << q;
  }
}

TEST(SqlTemplateTest, HolesParseAndRoundTrip) {
  const char* templates[] = {
      "SELECT * FROM t WHERE v < ${cut}",
      "SELECT * FROM t WHERE v BETWEEN LEAST(${b[0]}, ${b[1]}) AND "
      "GREATEST(${b[0]}, ${b[1]})",
      "SELECT MIN(${field:id}) AS min0, MAX(${field:id}) AS max0 FROM t",
      "SELECT FLOOR((v - ${start}) / ${step}) * ${step} + ${start} AS bin0, "
      "COUNT(*) AS count FROM t GROUP BY FLOOR((v - ${start}) / ${step}) * "
      "${step} + ${start}",
  };
  for (const char* text : templates) {
    auto parsed = ParseSqlTemplate(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status() << " for: " << text;
    // Holes survive unparsing, and unparsing is a fixed point.
    std::string sql1 = ToSql(**parsed);
    auto again = ParseSqlTemplate(sql1);
    ASSERT_TRUE(again.ok()) << again.status() << " for: " << sql1;
    EXPECT_EQ(sql1, ToSql(**again)) << text;
  }
  // Plain ParseSql still rejects hole syntax.
  EXPECT_FALSE(ParseSql("SELECT * FROM t WHERE v < ${cut}").ok());
}

TEST(SqlTemplateTest, PrepareCollectsParamsAndNormalizesFormatting) {
  auto a = PrepareStatement("SELECT * FROM t WHERE v < ${cut} AND ${b[0]} <= w");
  ASSERT_TRUE(a.ok()) << a.status();
  EXPECT_EQ((*a)->params, (std::vector<std::string>{"cut", "b"}));
  auto b = PrepareStatement("select  *  from t  WHERE (v < ${cut}) AND (${b[0]} <= w)");
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ((*a)->canonical_sql, (*b)->canonical_sql);
}

TEST(SqlTemplateTest, TemplateErrors) {
  EXPECT_FALSE(ParseSqlTemplate("SELECT * FROM t WHERE v < ${cut").ok());
  EXPECT_FALSE(ParseSqlTemplate("SELECT * FROM t WHERE v < ${}").ok());
  EXPECT_FALSE(ParseSqlTemplate("SELECT * FROM t WHERE v < ${b[x]}").ok());
}

TEST(SqlTemplateTest, BindMatchesFilledText) {
  auto prepared = PrepareStatement(
      "SELECT COUNT(*) AS c FROM t WHERE v BETWEEN ${b[0]} AND ${b[1]} AND "
      "${f:id} <> ${name}");
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  expr::MapSignalResolver params;
  params.Set("b", expr::EvalValue::Array(
                      {data::Value::Double(2), data::Value::Double(9)}));
  params.Set("f", expr::EvalValue::String("w"));
  params.Set("name", expr::EvalValue::String("it's"));
  auto bound = BindStatement(*(*prepared)->stmt, params);
  ASSERT_TRUE(bound.ok()) << bound.status();
  EXPECT_EQ(ToSql(**bound),
            "SELECT COUNT(*) AS c FROM t WHERE (((v >= 2) AND (v <= 9)) AND "
            "(w <> 'it''s'))");

  // Unresolved / mis-typed params fail like FillSqlHoles.
  expr::MapSignalResolver missing;
  EXPECT_FALSE(BindStatement(*(*prepared)->stmt, missing).ok());
  expr::MapSignalResolver array_as_scalar;
  array_as_scalar.Set("b", expr::EvalValue::Array({data::Value::Double(1)}));
  array_as_scalar.Set("f", expr::EvalValue::Number(3));  // :id needs a string
  array_as_scalar.Set("name", expr::EvalValue::String("x"));
  EXPECT_FALSE(BindStatement(*(*prepared)->stmt, array_as_scalar).ok());
}

// The rewriter's detail-view filter: a null-selection click and an
// `inrange` brush, as they reach the DBMS.
constexpr char kClickBrushTemplate[] =
    "SELECT COUNT(*) AS c FROM movies WHERE (((${click} = NULL) OR "
    "(mpaa = ${click})) AND (release_date BETWEEN LEAST(${brush[0]}, "
    "${brush[1]}) AND GREATEST(${brush[0]}, ${brush[1]})))";

SelectPtr BindClickBrush(const data::Value& click, const data::Value& lo,
                         const data::Value& hi) {
  auto prepared = PrepareStatement(kClickBrushTemplate);
  EXPECT_TRUE(prepared.ok()) << prepared.status();
  if (!prepared.ok()) return nullptr;
  expr::MapSignalResolver params;
  params.Set("click", expr::EvalValue(click));
  params.Set("brush", expr::EvalValue::Array({lo, hi}));
  auto bound = BindStatement(*(*prepared)->stmt, params);
  EXPECT_TRUE(bound.ok()) << bound.status();
  return bound.ok() ? *bound : nullptr;
}

TEST(SqlTemplateTest, BindFoldsClickAndBrushConstants) {
  using data::Value;
  const std::string prefix = "SELECT COUNT(*) AS c FROM movies WHERE ";
  // No selection: the click disjunct folds to TRUE and drops out.
  SelectPtr none = BindClickBrush(Value::Null(), Value::Double(10), Value::Double(20));
  ASSERT_NE(none, nullptr);
  EXPECT_EQ(ToSql(*none),
            prefix + "((release_date >= 10) AND (release_date <= 20))");
  // A selected value: the click reduces to one equality.
  SelectPtr r = BindClickBrush(Value::String("R"), Value::Double(10), Value::Double(20));
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(ToSql(*r), prefix +
                           "((mpaa = 'R') AND ((release_date >= 10) AND "
                           "(release_date <= 20)))");

  // Reversed and equal endpoints order through LEAST/GREATEST at bind time.
  SelectPtr reversed =
      BindClickBrush(Value::Null(), Value::Double(20), Value::Double(10));
  ASSERT_NE(reversed, nullptr);
  EXPECT_EQ(ToSql(*reversed), ToSql(*none));
  SelectPtr equal = BindClickBrush(Value::Null(), Value::Double(15), Value::Double(15));
  ASSERT_NE(equal, nullptr);
  EXPECT_EQ(ToSql(*equal),
            prefix + "((release_date >= 15) AND (release_date <= 15))");
  // LEAST/GREATEST of a null endpoint is null, which no row satisfies.
  SelectPtr null_end = BindClickBrush(Value::Null(), Value::Null(), Value::Double(20));
  ASSERT_NE(null_end, nullptr);
  EXPECT_EQ(ToSql(*null_end),
            prefix + "((release_date >= NULL) AND (release_date <= NULL))");
  // The interpreter's LEAST/GREATEST skip a NaN against a number, so a NaN
  // endpoint collapses the brush onto the other one.
  SelectPtr nan_end =
      BindClickBrush(Value::Null(), Value::Double(std::nan("")), Value::Double(20));
  ASSERT_NE(nan_end, nullptr);
  EXPECT_EQ(ToSql(*nan_end),
            prefix + "((release_date >= 20) AND (release_date <= 20))");

  // The bound brush compiles to the fused compare-to-constant path that
  // zone maps prune with.
  const data::Schema schema({{"release_date", data::DataType::kTimestamp},
                             {"mpaa", data::DataType::kString}});
  for (const SelectPtr& stmt : {none, r}) {
    auto program = expr::Compiler::Compile(stmt->where, schema);
    ASSERT_TRUE(program.has_value()) << ToSql(*stmt);
    EXPECT_FALSE(program->fused_preds.empty()) << ToSql(*stmt);
  }
}

TEST(SqlTemplateTest, BindFoldingKeepsOutputTypesAndErrors) {
  auto prepared = PrepareStatement(
      "SELECT ${a} + ${b} AS s, LENGTH(${name}) AS n, v FROM t "
      "WHERE (${on} OR v > ${a}) AND ${on} AND v < ${a} * ${b}");
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  expr::MapSignalResolver params;
  params.Set("a", expr::EvalValue::Number(2));
  params.Set("b", expr::EvalValue::Number(3));
  params.Set("name", expr::EvalValue::String("abc"));
  params.Set("on", expr::EvalValue::Bool(false));
  auto bound = BindStatement(*(*prepared)->stmt, params);
  ASSERT_TRUE(bound.ok()) << bound.status();
  // `2 + 3` folds (a number either way); LENGTH infers an integer column but
  // evaluates to a double, so it stays; `FALSE OR x` is x, `x AND FALSE`
  // has a non-literal left side and stays.
  EXPECT_EQ(ToSql(**bound),
            "SELECT 5 AS s, LENGTH('abc') AS n, v FROM t WHERE (((v > 2) AND FALSE) "
            "AND (v < 6))");

  // A call with a bad arity is not folded away: execution still reports it.
  auto bad_arity = PrepareStatement("SELECT v FROM t WHERE POW(${a}) > 1");
  ASSERT_TRUE(bad_arity.ok()) << bad_arity.status();
  auto bad_bound = BindStatement(*(*bad_arity)->stmt, params);
  ASSERT_TRUE(bad_bound.ok()) << bad_bound.status();
  EXPECT_NE(ToSql(**bad_bound).find("POW(2)"), std::string::npos) << ToSql(**bad_bound);
}

}  // namespace
}  // namespace sql
}  // namespace vegaplus
