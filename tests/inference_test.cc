// Schema inference + EXPLAIN: the engine adapting to files nobody described.

#include <gtest/gtest.h>

#include "common/mmap_file.h"
#include "csv/schema_inference.h"
#include "engine/raw_engine.h"
#include "tests/test_util.h"

namespace raw {
namespace {

TEST(ClassifyFieldTest, Basics) {
  auto classify = [](std::string_view s) {
    return ClassifyField(s.data(), static_cast<int32_t>(s.size()));
  };
  EXPECT_EQ(classify("0"), DataType::kInt32);
  EXPECT_EQ(classify("-42"), DataType::kInt32);
  EXPECT_EQ(classify("2147483648"), DataType::kInt64);  // > INT32_MAX
  EXPECT_EQ(classify("-9223372036854775807"), DataType::kInt64);
  EXPECT_EQ(classify("3.5"), DataType::kFloat64);
  EXPECT_EQ(classify("1e9"), DataType::kFloat64);
  EXPECT_EQ(classify("true"), DataType::kBool);
  EXPECT_EQ(classify("false"), DataType::kBool);
  EXPECT_EQ(classify("hello"), DataType::kString);
  EXPECT_EQ(classify("12ab"), DataType::kString);
  EXPECT_EQ(classify(""), DataType::kString);
}

TEST(PromoteTypesTest, Lattice) {
  EXPECT_EQ(PromoteTypes(DataType::kInt32, DataType::kInt32),
            DataType::kInt32);
  EXPECT_EQ(PromoteTypes(DataType::kInt32, DataType::kInt64),
            DataType::kInt64);
  EXPECT_EQ(PromoteTypes(DataType::kInt64, DataType::kFloat64),
            DataType::kFloat64);
  EXPECT_EQ(PromoteTypes(DataType::kFloat64, DataType::kString),
            DataType::kString);
  // bool mixed with numerics cannot be narrowed: only string holds both.
  EXPECT_EQ(PromoteTypes(DataType::kBool, DataType::kInt32),
            DataType::kString);
  EXPECT_EQ(PromoteTypes(DataType::kFloat64, DataType::kBool),
            DataType::kString);
  EXPECT_EQ(PromoteTypes(DataType::kBool, DataType::kBool), DataType::kBool);
}

using InferenceTest = testing::TempDirTest;

TEST_F(InferenceTest, InfersTypesWithoutHeader) {
  std::string path = Path("t.csv");
  ASSERT_OK(WriteStringToFile(path,
                              "1,2.5,abc,9999999999\n"
                              "2,3,def,12\n"
                              "3,4.25,,0\n"));
  ASSERT_OK_AND_ASSIGN(Schema schema, InferCsvSchema(path));
  ASSERT_EQ(schema.num_fields(), 4);
  EXPECT_EQ(schema.field(0).type, DataType::kInt32);
  EXPECT_EQ(schema.field(0).name, "col0");
  EXPECT_EQ(schema.field(1).type, DataType::kFloat64);  // 3 promotes up
  EXPECT_EQ(schema.field(2).type, DataType::kString);   // empty field too
  EXPECT_EQ(schema.field(3).type, DataType::kInt64);    // wide value
}

TEST_F(InferenceTest, HeaderNamesUsed) {
  std::string path = Path("h.csv");
  ASSERT_OK(WriteStringToFile(path, "id,score\n1,0.5\n2,0.7\n"));
  CsvOptions options;
  options.has_header = true;
  ASSERT_OK_AND_ASSIGN(Schema schema, InferCsvSchema(path, options));
  EXPECT_EQ(schema.field(0).name, "id");
  EXPECT_EQ(schema.field(1).name, "score");
  EXPECT_EQ(schema.field(0).type, DataType::kInt32);
  EXPECT_EQ(schema.field(1).type, DataType::kFloat64);
}

TEST_F(InferenceTest, SamplingWindowRespected) {
  // Row 11 would force a string type, but we only sample 10 rows.
  std::string content;
  for (int i = 0; i < 10; ++i) content += std::to_string(i) + "\n";
  content += "surprise\n";
  std::string path = Path("w.csv");
  ASSERT_OK(WriteStringToFile(path, content));
  ASSERT_OK_AND_ASSIGN(Schema narrow,
                       InferCsvSchema(path, CsvOptions(), /*sample_rows=*/10));
  EXPECT_EQ(narrow.field(0).type, DataType::kInt32);
  ASSERT_OK_AND_ASSIGN(Schema wide,
                       InferCsvSchema(path, CsvOptions(), /*sample_rows=*/100));
  EXPECT_EQ(wide.field(0).type, DataType::kString);
}

TEST_F(InferenceTest, RejectsRaggedAndEmptyFiles) {
  std::string ragged = Path("r.csv");
  ASSERT_OK(WriteStringToFile(ragged, "1,2\n3\n"));
  EXPECT_FALSE(InferCsvSchema(ragged).ok());
  std::string empty = Path("e.csv");
  ASSERT_OK(WriteStringToFile(empty, ""));
  EXPECT_FALSE(InferCsvSchema(empty).ok());
}

TEST_F(InferenceTest, EndToEndQueryOverInferredTable) {
  std::string path = Path("auto.csv");
  std::string content;
  for (int i = 0; i < 500; ++i) {
    content += std::to_string(i) + "," + std::to_string(i * 0.5) + ",name" +
               std::to_string(i % 3) + "\n";
  }
  ASSERT_OK(WriteStringToFile(path, content));
  RawEngine engine;
  auto session = engine.OpenSession();
  ASSERT_OK(engine.RegisterCsvInferred("t", path));
  PlannerOptions options;
  options.access_path = AccessPathKind::kInSitu;
  ASSERT_OK_AND_ASSIGN(
      QueryResult result,
      session->Query("SELECT MAX(col1) FROM t WHERE col0 < 100", options));
  ASSERT_OK_AND_ASSIGN(Datum max, result.Scalar());
  EXPECT_DOUBLE_EQ(max.float64_value(), 49.5);
  ASSERT_OK_AND_ASSIGN(
      QueryResult names,
      session->Query("SELECT COUNT(*) FROM t WHERE col2 = 'name1'", options));
  ASSERT_OK_AND_ASSIGN(Datum count, names.Scalar());
  EXPECT_EQ(count.int64_value(), 167);  // i % 3 == 1 for i in [0, 500)
}

TEST_F(InferenceTest, QuotedCsvScansAgreeWithInference) {
  // Quoted numerics, embedded delimiters/newlines/escaped quotes: the
  // sampler and the scan paths share one CsvOptions and one quote-aware
  // tokenizer, so what inference classifies is exactly what queries parse.
  std::string path = Path("q.csv");
  std::string content = "id,name,score\n";
  for (int i = 0; i < 200; ++i) {
    content += '"';
    content += std::to_string(i);
    content += "\",";
    if (i % 7 == 0) {
      content += "\"na,me\nwith \"\"stuff\"\"\",";
    } else {
      content += "plain" + std::to_string(i % 3) + ",";
    }
    content += std::to_string(i * 0.5) + "\n";
  }
  ASSERT_OK(WriteStringToFile(path, content));
  CsvOptions csv;
  csv.has_header = true;
  RawEngine engine;
  auto session = engine.OpenSession();
  ASSERT_OK(engine.RegisterCsvInferred("q", path, csv));
  PlannerOptions options;
  options.access_path = AccessPathKind::kInSitu;

  // Quoted integers classified (and parsed) as integers, not strings.
  ASSERT_OK_AND_ASSIGN(QueryResult all,
                       session->Query("SELECT COUNT(*) FROM q", options));
  EXPECT_EQ((*all.Scalar()).int64_value(), 200);
  // Cold (sequential quoted scan, builds the positional map)...
  std::string sql = "SELECT COUNT(*) FROM q WHERE id < 100";
  ASSERT_OK_AND_ASSIGN(QueryResult cold, session->Query(sql, options));
  EXPECT_EQ((*cold.Scalar()).int64_value(), 100);
  // ...and warm (positional quoted scan + late scans) agree.
  ASSERT_OK_AND_ASSIGN(QueryResult warm, session->Query(sql, options));
  EXPECT_EQ((*warm.Scalar()).int64_value(), 100);
  ASSERT_OK_AND_ASSIGN(
      QueryResult score,
      session->Query("SELECT MAX(score) FROM q WHERE id < 100", options));
  EXPECT_DOUBLE_EQ((*score.Scalar()).float64_value(), 49.5);
  // Outer quotes are stripped; the field's raw content ("" escapes
  // included, matching the sampler) comes back verbatim.
  ASSERT_OK_AND_ASSIGN(
      QueryResult name,
      session->Query("SELECT name FROM q WHERE id = 7", options));
  ASSERT_EQ(name.num_rows(), 1);
  EXPECT_EQ((*name.ValueAt(0, 0)).string_value(),
            "na,me\nwith \"\"stuff\"\"");
}

TEST_F(InferenceTest, RegisterCsvInferredSurfacesSamplingFailure) {
  std::string path = Path("empty.csv");
  ASSERT_OK(WriteStringToFile(path, ""));
  RawEngine engine;
  Status status = engine.RegisterCsvInferred("bad", path);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("schema inference for table 'bad'"),
            std::string::npos)
      << status.ToString();
  // Nothing half-registered.
  EXPECT_EQ(engine.Stats().table("bad"), nullptr);
  // A missing file surfaces too (no silent fallback anywhere).
  EXPECT_FALSE(engine.RegisterCsvInferred("gone", Path("nope.csv")).ok());
}

TEST_F(InferenceTest, ExplainReturnsPlanWithoutExecuting) {
  std::string path = Path("x.csv");
  ASSERT_OK(WriteStringToFile(path, "1,2\n3,4\n"));
  RawEngine engine;
  auto session = engine.OpenSession();
  ASSERT_OK(engine.RegisterCsvInferred("t", path));
  PlannerOptions options;
  options.access_path = AccessPathKind::kInSitu;
  ASSERT_OK_AND_ASSIGN(
      QueryResult result,
      session->Query("EXPLAIN SELECT MAX(col1) FROM t WHERE col0 < 2",
                     options));
  ASSERT_EQ(result.num_rows(), 1);
  ASSERT_OK_AND_ASSIGN(Datum plan, result.Scalar());
  EXPECT_NE(plan.string_value().find("seq-scan"), std::string::npos);
  EXPECT_NE(plan.string_value().find("aggregate"), std::string::npos);
  // Planning an EXPLAIN still opens scans but must not drain them into the
  // shred cache.
  EXPECT_EQ(engine.Stats().shred_cache.entries, 0);
}

}  // namespace
}  // namespace raw
