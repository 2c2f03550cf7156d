// Tests of the benchmark's own logic: the tail rule, the independent row
// counter, and seed reproducibility of whole (small) runs.
#include <gtest/gtest.h>

#include <numeric>

#include "benchdata/workload.h"
#include "checks.h"
#include "percentile.h"
#include "workload.h"

namespace dashbench {
namespace {

using vegaplus::data::DataType;
using vegaplus::data::Schema;
using vegaplus::data::TableBuilder;
using vegaplus::data::Value;
using vegaplus::expr::EvalValue;

std::vector<double> Ramp(size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(TailRule, PicksHighestRungWithTenSamplesBeyond) {
  struct Case {
    size_t n;
    double percentile;
  };
  // Rung p qualifies when n - ceil(p/100 * n) >= 10.
  for (const Case& c : {Case{5, 50}, Case{19, 50}, Case{20, 50}, Case{39, 50}, Case{40, 75},
                        Case{99, 75}, Case{100, 90}, Case{199, 90}, Case{200, 90},
                        Case{999, 90}, Case{1000, 99}, Case{9999, 99}, Case{100000, 99}}) {
    Tail t = TailOf(Ramp(c.n));
    EXPECT_EQ(t.percentile, c.percentile) << "n=" << c.n;
    EXPECT_EQ(t.samples, c.n);
    if (c.n >= 20) {
      EXPECT_GE(t.beyond, kMinBeyond) << "n=" << c.n;
    }
    // On a 1..n ramp the nearest-rank value is the rank itself.
    EXPECT_EQ(t.value, static_cast<double>(c.n - t.beyond)) << "n=" << c.n;
  }
}

TEST(TailRule, IgnoresInputOrderAndEmpty) {
  std::vector<double> v = Ramp(100);
  std::reverse(v.begin(), v.end());
  EXPECT_EQ(TailOf(v).value, 90);
  EXPECT_EQ(TailOf({}).samples, 0u);
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 2, 3}), 2.5);
}

vegaplus::data::TablePtr HandTable() {
  TableBuilder b(Schema({{"x", DataType::kFloat64},
                         {"t", DataType::kTimestamp},
                         {"c", DataType::kString}}));
  b.AppendRow({Value::Double(1), Value::Timestamp(100), Value::String("a")});
  b.AppendRow({Value::Double(2), Value::Timestamp(200), Value::String("b")});
  b.AppendRow({Value::Double(3), Value::Timestamp(300), Value::String("a")});
  b.AppendRow({Value::Null(), Value::Timestamp(400), Value::String("b")});
  b.AppendRow({Value::Double(5), Value::Timestamp(500), Value::Null()});
  return b.Build();
}

EvalValue Range(double a, double b) {
  return EvalValue::Array({Value::Double(a), Value::Double(b)});
}

TEST(RowCounter, CountsIntervalsPointsAndNulls) {
  RowCounter counter(HandTable());
  const Condition x{Condition::Kind::kInterval, "bx", "x"};
  const Condition t{Condition::Kind::kInterval, "bt", "t"};
  const Condition c{Condition::Kind::kPoint, "click", "c"};
  SignalState s{{"bx", Range(2, 5)}, {"bt", Range(150, 450)}, {"click", EvalValue::Null()}};

  EXPECT_EQ(*counter.Count({}, s), 5u);
  EXPECT_EQ(*counter.Count({x}, s), 3u);  // 2, 3, 5 (inclusive ends); null excluded
  EXPECT_EQ(*counter.Count({t}, s), 3u);  // 200, 300, 400
  EXPECT_EQ(*counter.Count({x, t}, s), 2u);
  EXPECT_EQ(*counter.Count({c}, s), 5u);  // no selection: every row

  s["bx"] = Range(5, 2);  // ends in either order
  EXPECT_EQ(*counter.Count({x}, s), 3u);
  s["click"] = EvalValue::String("a");
  EXPECT_EQ(*counter.Count({c}, s), 2u);
  EXPECT_EQ(*counter.Count({c, x}, s), 1u);
  s["click"] = EvalValue::String("zzz");
  EXPECT_EQ(*counter.Count({c}, s), 0u);
  s["bt"] = Range(0, 99);
  EXPECT_EQ(*counter.Count({t}, s), 0u);

  EXPECT_FALSE(counter.Count({Condition{Condition::Kind::kInterval, "nope", "x"}}, s).ok());
  EXPECT_FALSE(counter.Count({Condition{Condition::Kind::kInterval, "bx", "c"}}, s).ok());
}

TEST(Checks, SameRowsIgnoresOrderButNotValues) {
  TableBuilder a(Schema({{"bin0", DataType::kFloat64}, {"count", DataType::kInt64}}));
  a.AppendRow({Value::Double(0), Value::Int(3)});
  a.AppendRow({Value::Double(1), Value::Int(4)});
  TableBuilder b(Schema({{"count", DataType::kFloat64}, {"bin0", DataType::kFloat64}}));
  b.AppendRow({Value::Double(4), Value::Double(1)});
  b.AppendRow({Value::Double(3), Value::Double(0)});
  auto ta = a.Build(), tb = b.Build();
  EXPECT_TRUE(SameRows(*ta, *tb).ok());
  TableBuilder c(Schema({{"bin0", DataType::kFloat64}, {"count", DataType::kInt64}}));
  c.AppendRow({Value::Double(0), Value::Int(3)});
  c.AppendRow({Value::Double(1), Value::Int(5)});
  EXPECT_FALSE(SameRows(*ta, *c.Build()).ok());
  EXPECT_EQ(*SumCounts(*ta, "count"), 7);
}

RunOptions SmallRun(uint64_t seed) {
  RunOptions o;
  o.seed = seed;
  o.rounds = 1;
  o.rows = 30000;
  o.work_dir = ".";
  return o;
}

class Reproducibility : public ::testing::TestWithParam<std::string> {};

TEST_P(Reproducibility, SameSeedSameInputsAndCounts) {
  PinnedEngineConfig().Apply();
  const WorkloadDef* def = FindWorkload(GetParam());
  ASSERT_NE(def, nullptr);

  auto a = dashbench::SetUp(*def, SmallRun(11));
  auto b = dashbench::SetUp(*def, SmallRun(11));
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_TRUE(a->dataset.table->Equals(*b->dataset.table));
  EXPECT_EQ(a->spec.data.size(), b->spec.data.size());
  auto stream = [&](uint64_t seed) {
    std::vector<std::string> out;
    vegaplus::benchdata::WorkloadGenerator gen(a->spec, InteractionSeed(seed));
    for (const auto& it : gen.Session(20)) out.push_back(it.description);
    return out;
  };
  EXPECT_EQ(stream(11), stream(11));
  EXPECT_NE(stream(11), stream(12));

  Tracer tracer;
  auto r1 = RunWorkload(*def, SmallRun(11), /*traced=*/false, &tracer);
  auto r2 = RunWorkload(*def, SmallRun(11), /*traced=*/false, &tracer);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(r1->failed, 0u) << (r1->failures.empty() ? "" : r1->failures[0]);
  EXPECT_EQ(r1->attempted, def->segments * (1 + def->round));
  EXPECT_EQ(r1->attempted, r2->attempted);
  EXPECT_EQ(r1->queries, r2->queries);
  EXPECT_EQ(r1->dbms_executions, r2->dbms_executions);
  EXPECT_EQ(r1->transfer_bytes, r2->transfer_bytes);
  EXPECT_GT(r1->transfer_bytes, 0);

  // Another seed, traced: every output check passes and every per-layer
  // metric is emitted.
  auto r3 = RunWorkload(*def, SmallRun(12), /*traced=*/true, &tracer);
  ASSERT_TRUE(r3.ok()) << r3.status().ToString();
  EXPECT_EQ(r3->failed, 0u) << (r3->failures.empty() ? "" : r3->failures[0]);
  EXPECT_EQ(r3->layer.size(), 20u);
}

INSTANTIATE_TEST_SUITE_P(Workloads, Reproducibility,
                         ::testing::Values("crossfilter_brush", "overview_detail_shard",
                                           "heatmap_client"));

}  // namespace
}  // namespace dashbench
