#include <gtest/gtest.h>

#include "engine/cost_model.h"
#include "engine/raw_engine.h"
#include "tests/test_util.h"
#include "workload/data_gen.h"

namespace raw {
namespace {

ShredDecisionInput CsvInput(double selectivity, int skip = 0) {
  ShredDecisionInput in;
  in.format = FileFormat::kCsv;
  in.table_rows = 1000000;
  in.selectivity = selectivity;
  in.skip_distance = skip;
  return in;
}

TEST(CostModelTest, FullColumnCostScalesWithRows) {
  CostModel model;
  ShredDecisionInput small = CsvInput(1.0);
  small.table_rows = 1000;
  ShredDecisionInput big = CsvInput(1.0);
  big.table_rows = 2000;
  EXPECT_DOUBLE_EQ(model.FullColumnCost(big),
                   2 * model.FullColumnCost(small));
}

TEST(CostModelTest, ShredCostScalesWithSelectivity) {
  CostModel model;
  EXPECT_LT(model.ShredCost(CsvInput(0.1)), model.ShredCost(CsvInput(0.5)));
  EXPECT_DOUBLE_EQ(model.ShredCost(CsvInput(0.0)), 0.0);
}

TEST(CostModelTest, ShredsWinAtLowSelectivityOnly) {
  CostModel model;
  EXPECT_EQ(model.ChoosePolicy(CsvInput(0.01)), ShredPolicy::kShreds);
  // A jump + parse costs more per value than sequential parse, so at 100%
  // selectivity full columns must win.
  EXPECT_EQ(model.ChoosePolicy(CsvInput(1.0)), ShredPolicy::kFullColumns);
}

TEST(CostModelTest, CrossoverIsMonotoneInSkipDistance) {
  CostModel model;
  // The further the incremental parse, the earlier shreds stop paying off.
  double near = model.ShredCrossover(CsvInput(0.5, /*skip=*/0));
  double far = model.ShredCrossover(CsvInput(0.5, /*skip=*/8));
  EXPECT_GT(near, far);
  EXPECT_GT(near, 0.0);
  EXPECT_LE(near, 1.0);
}

TEST(CostModelTest, CrossoverConsistentWithChoice) {
  CostModel model;
  for (int skip : {0, 2, 5}) {
    double crossover = model.ShredCrossover(CsvInput(0.5, skip));
    EXPECT_EQ(model.ChoosePolicy(CsvInput(crossover * 0.9, skip)),
              ShredPolicy::kShreds)
        << skip;
    if (crossover < 1.0) {
      EXPECT_EQ(model.ChoosePolicy(CsvInput(
                    std::min(1.0, crossover * 1.1 + 0.01), skip)),
                ShredPolicy::kFullColumns)
          << skip;
    }
  }
}

TEST(CostModelTest, MultiColumnWinsWithColocatedColumns) {
  CostModel model;
  ShredDecisionInput in = CsvInput(0.6, /*skip=*/4);
  in.colocated_columns = 3;
  // One pass for three adjacent columns beats three jump+skip chains.
  EXPECT_LT(model.MultiColumnShredCost(in), 3 * model.ShredCost(in));
  ShredPolicy choice = model.ChoosePolicy(in);
  EXPECT_NE(choice, ShredPolicy::kShreds);
}

TEST(CostModelTest, RandomOrderPenalizesShreds) {
  CostModel model;
  ShredDecisionInput seq = CsvInput(0.6);
  ShredDecisionInput random = CsvInput(0.6);
  random.random_order = true;
  EXPECT_GT(model.ShredCost(random), model.ShredCost(seq));
}

TEST(CostModelTest, BinaryShredsCheapNoConversion) {
  CostModel model;
  ShredDecisionInput in;
  in.format = FileFormat::kBinary;
  in.table_rows = 1000000;
  in.selectivity = 0.5;
  EXPECT_LT(model.ShredCost(in), model.FullColumnCost(in));
}

// --- engine integration --------------------------------------------------------

class AdaptivePolicyTest : public testing::TempDirTest {
 protected:
  void SetUp() override {
    testing::TempDirTest::SetUp();
    spec_ = TableSpec::UniformInt32("t", 12, 4000, 123);
    ASSERT_OK(WriteCsvFile(spec_, Path("t.csv")));
  }

  TableSpec spec_;
};

TEST_F(AdaptivePolicyTest, ResolvesToShredsAtLowSelectivity) {
  RawEngine engine;
  auto session = engine.OpenSession();
  ASSERT_OK(engine.RegisterCsv("t", Path("t.csv"), spec_.ToSchema(),
                               CsvOptions(), 4));
  PlannerOptions options;
  options.access_path = AccessPathKind::kInSitu;
  options.shred_policy = ShredPolicy::kAdaptive;
  // Query 1 caches col0 and discovers the row count.
  ASSERT_OK(
      session->Query("SELECT MAX(col0) FROM t WHERE col0 < 999999999", options)
          .status());
  // Low-selectivity second query: the cached col0 yields an exact estimate
  // and the model must push the col7 fetch above the filter.
  Datum lo = spec_.SelectivityLiteral(0, 0.02);
  ASSERT_OK_AND_ASSIGN(
      QueryResult low,
      session->Query("SELECT MAX(col7) FROM t WHERE col0 < " + lo.ToString(),
                     options));
  EXPECT_NE(low.plan_description.find("-> shreds"), std::string::npos)
      << low.plan_description;
  EXPECT_NE(low.plan_description.find("cache-estimated"), std::string::npos);
}

TEST_F(AdaptivePolicyTest, ResolvesToFullColumnsAtHighSelectivity) {
  RawEngine engine;
  auto session = engine.OpenSession();
  ASSERT_OK(engine.RegisterCsv("t", Path("t.csv"), spec_.ToSchema(),
                               CsvOptions(), 4));
  PlannerOptions options;
  options.access_path = AccessPathKind::kInSitu;
  options.shred_policy = ShredPolicy::kAdaptive;
  ASSERT_OK(
      session->Query("SELECT MAX(col0) FROM t WHERE col0 < 999999999", options)
          .status());
  ASSERT_OK_AND_ASSIGN(
      QueryResult high,
      session->Query("SELECT MAX(col7) FROM t WHERE col0 < 999999999",
                     options));
  EXPECT_NE(high.plan_description.find("-> full_columns"), std::string::npos)
      << high.plan_description;
}

TEST_F(AdaptivePolicyTest, AdaptiveAnswersMatchFixedPolicies) {
  TableDataSource source(spec_);
  for (double sel : {0.05, 0.5, 0.95}) {
    Datum lit = spec_.SelectivityLiteral(0, sel);
    std::string sql =
        "SELECT MAX(col7) FROM t WHERE col0 < " + lit.ToString();
    std::optional<Datum> reference;
    for (ShredPolicy policy :
         {ShredPolicy::kFullColumns, ShredPolicy::kShreds,
          ShredPolicy::kAdaptive}) {
      RawEngine engine;
      auto session = engine.OpenSession();
      ASSERT_OK(engine.RegisterCsv("t", Path("t.csv"), spec_.ToSchema(),
                                   CsvOptions(), 4));
      PlannerOptions options;
      options.access_path = AccessPathKind::kInSitu;
      options.shred_policy = policy;
      ASSERT_OK(session
                    ->Query("SELECT MAX(col0) FROM t WHERE col0 < 999999999",
                            options)
                    .status());
      ASSERT_OK_AND_ASSIGN(QueryResult result, session->Query(sql, options));
      ASSERT_OK_AND_ASSIGN(Datum got, result.Scalar());
      if (!reference.has_value()) {
        reference = got;
      } else {
        EXPECT_EQ(got, *reference) << ShredPolicyToString(policy) << " " << sel;
      }
    }
  }
}

TEST_F(AdaptivePolicyTest, FirstQueryDefaultsToShreds) {
  RawEngine engine;
  auto session = engine.OpenSession();
  ASSERT_OK(engine.RegisterCsv("t", Path("t.csv"), spec_.ToSchema(),
                               CsvOptions(), 4));
  PlannerOptions options;
  options.access_path = AccessPathKind::kInSitu;
  options.shred_policy = ShredPolicy::kAdaptive;
  ASSERT_OK_AND_ASSIGN(
      QueryResult first,
      session->Query("SELECT MAX(col7) FROM t WHERE col0 < 500000000",
                     options));
  EXPECT_NE(first.plan_description.find("no stats -> shreds"),
            std::string::npos)
      << first.plan_description;
}

}  // namespace
}  // namespace raw
