#include <gtest/gtest.h>

#include "common/mmap_file.h"
#include "engine/raw_engine.h"
#include "engine/sql/lexer.h"
#include "engine/sql/parser.h"
#include "tests/test_util.h"

namespace raw {
namespace {

using sql::Lex;
using sql::Parse;
using sql::TokenType;

TEST(LexerTest, KeywordsCaseInsensitive) {
  ASSERT_OK_AND_ASSIGN(auto tokens, Lex("select FROM wHeRe"));
  ASSERT_EQ(tokens.size(), 4u);  // incl. kEnd
  EXPECT_TRUE(tokens[0].IsKeyword("SELECT"));
  EXPECT_TRUE(tokens[1].IsKeyword("FROM"));
  EXPECT_TRUE(tokens[2].IsKeyword("WHERE"));
}

TEST(LexerTest, NumbersAndStrings) {
  // A negative literal is recognized after a symbol/keyword (the only
  // positions SQL grammar puts one), not after another literal.
  ASSERT_OK_AND_ASSIGN(auto tokens, Lex("42 < -17 3.25 1e9 'hi there'"));
  EXPECT_EQ(tokens[0].type, TokenType::kInteger);
  EXPECT_EQ(tokens[2].type, TokenType::kInteger);
  EXPECT_EQ(tokens[2].text, "-17");
  EXPECT_EQ(tokens[3].type, TokenType::kFloat);
  EXPECT_EQ(tokens[4].type, TokenType::kFloat);
  EXPECT_EQ(tokens[5].type, TokenType::kString);
  EXPECT_EQ(tokens[5].text, "hi there");
}

TEST(LexerTest, OperatorsNormalized) {
  ASSERT_OK_AND_ASSIGN(auto tokens, Lex("<= >= != <> < > ="));
  EXPECT_EQ(tokens[0].text, "<=");
  EXPECT_EQ(tokens[1].text, ">=");
  EXPECT_EQ(tokens[2].text, "!=");
  EXPECT_EQ(tokens[3].text, "!=");  // <> normalized
  EXPECT_EQ(tokens[4].text, "<");
}

TEST(LexerTest, RejectsGarbage) {
  EXPECT_FALSE(Lex("select @foo").ok());
  EXPECT_FALSE(Lex("'unterminated").ok());
}

TEST(ParserTest, SimpleAggregate) {
  ASSERT_OK_AND_ASSIGN(QuerySpec spec,
                       Parse("SELECT MAX(col11) FROM t WHERE col1 < 500"));
  ASSERT_EQ(spec.tables.size(), 1u);
  EXPECT_EQ(spec.tables[0], "t");
  ASSERT_EQ(spec.aggregates.size(), 1u);
  EXPECT_EQ(spec.aggregates[0].kind, AggKind::kMax);
  EXPECT_EQ(spec.aggregates[0].column.column, "col11");
  ASSERT_EQ(spec.predicates.size(), 1u);
  EXPECT_EQ(spec.predicates[0].op, CompareOp::kLt);
  EXPECT_EQ(spec.predicates[0].literal.int64_value(), 500);
}

TEST(ParserTest, MultipleAggregatesAndAliases) {
  ASSERT_OK_AND_ASSIGN(
      QuerySpec spec,
      Parse("SELECT MIN(a) AS lo, MAX(a) AS hi, COUNT(*) FROM t"));
  ASSERT_EQ(spec.aggregates.size(), 3u);
  EXPECT_EQ(spec.aggregates[0].output_name, "lo");
  EXPECT_EQ(spec.aggregates[1].output_name, "hi");
  EXPECT_TRUE(spec.aggregates[2].count_star);
}

TEST(ParserTest, JoinWithQualifiedRefs) {
  ASSERT_OK_AND_ASSIGN(
      QuerySpec spec,
      Parse("SELECT MAX(f1.col11) FROM f1 JOIN f2 ON f1.col1 = f2.col1 "
            "WHERE f2.col2 < 100"));
  ASSERT_EQ(spec.tables.size(), 2u);
  EXPECT_EQ(spec.join_left.table, "f1");
  EXPECT_EQ(spec.join_right.table, "f2");
  EXPECT_EQ(spec.predicates[0].column.table, "f2");
}

TEST(ParserTest, GroupByAndLimit) {
  ASSERT_OK_AND_ASSIGN(
      QuerySpec spec,
      Parse("SELECT eventID, COUNT(*) FROM muons WHERE pt > 20.5 "
            "GROUP BY eventID LIMIT 10"));
  ASSERT_EQ(spec.group_by.size(), 1u);
  EXPECT_EQ(spec.group_by[0].column, "eventID");
  EXPECT_EQ(spec.limit, 10);
  EXPECT_DOUBLE_EQ(spec.predicates[0].literal.float64_value(), 20.5);
  ASSERT_EQ(spec.projections.size(), 1u);
  ASSERT_EQ(spec.aggregates.size(), 1u);
}

TEST(ParserTest, AndChains) {
  ASSERT_OK_AND_ASSIGN(
      QuerySpec spec,
      Parse("SELECT MAX(col6) FROM t WHERE col1 < 10 AND col5 < 20 AND "
            "col2 >= 3"));
  EXPECT_EQ(spec.predicates.size(), 3u);
  EXPECT_EQ(spec.predicates[2].op, CompareOp::kGe);
}

TEST(ParserTest, NegativeAndFloatLiterals) {
  ASSERT_OK_AND_ASSIGN(QuerySpec spec,
                       Parse("SELECT COUNT(*) FROM t WHERE x > -5"));
  EXPECT_EQ(spec.predicates[0].literal.int64_value(), -5);
  ASSERT_OK_AND_ASSIGN(QuerySpec spec2,
                       Parse("SELECT COUNT(*) FROM t WHERE x < 2.5"));
  EXPECT_DOUBLE_EQ(spec2.predicates[0].literal.float64_value(), 2.5);
}

TEST(ParserTest, TrailingSemicolonAccepted) {
  EXPECT_TRUE(Parse("SELECT COUNT(*) FROM t;").ok());
}

TEST(ParserTest, SyntaxErrors) {
  EXPECT_FALSE(Parse("SELECT FROM t").ok());
  EXPECT_FALSE(Parse("SELECT MAX(col) t").ok());
  EXPECT_FALSE(Parse("SELECT MAX(col) FROM t WHERE").ok());
  EXPECT_FALSE(Parse("SELECT MAX(*) FROM t").ok());  // * only for COUNT
  EXPECT_FALSE(Parse("SELECT COUNT(*) FROM t GROUP eventID").ok());
  EXPECT_FALSE(Parse("SELECT COUNT(*) FROM t LIMIT x").ok());
  EXPECT_FALSE(Parse("SELECT COUNT(*) FROM t extra").ok());
  EXPECT_FALSE(Parse("SELECT a, MAX(b) FROM t").ok());  // needs GROUP BY
}

TEST(ParserTest, PositionalParameters) {
  ASSERT_OK_AND_ASSIGN(
      QuerySpec spec,
      Parse("SELECT MAX(col2) FROM t WHERE col1 < ? AND col3 = ?"));
  EXPECT_EQ(spec.num_params, 2);
  ASSERT_EQ(spec.predicates.size(), 2u);
  EXPECT_TRUE(spec.predicates[0].is_parameter());
  EXPECT_EQ(spec.predicates[0].param_index, 0);
  EXPECT_TRUE(spec.predicates[1].is_parameter());
  EXPECT_EQ(spec.predicates[1].param_index, 1);
  // Parameters and literals mix freely.
  ASSERT_OK_AND_ASSIGN(
      QuerySpec mixed,
      Parse("SELECT COUNT(*) FROM t WHERE a < 5 AND b < ?"));
  EXPECT_EQ(mixed.num_params, 1);
  EXPECT_FALSE(mixed.predicates[0].is_parameter());
  EXPECT_TRUE(mixed.predicates[1].is_parameter());
  // ToString renders placeholders, not stale literals.
  EXPECT_NE(spec.ToString().find("col1 < ?1"), std::string::npos)
      << spec.ToString();
  // `?` outside a predicate literal position is rejected.
  EXPECT_FALSE(Parse("SELECT MAX(?) FROM t").ok());
  EXPECT_FALSE(Parse("SELECT COUNT(*) FROM t LIMIT ?").ok());
}

TEST(ParserTest, ToStringRendersSpec) {
  ASSERT_OK_AND_ASSIGN(
      QuerySpec spec,
      Parse("SELECT MAX(col11) FROM t WHERE col1 < 500 LIMIT 3"));
  std::string s = spec.ToString();
  EXPECT_NE(s.find("MAX(col11)"), std::string::npos);
  EXPECT_NE(s.find("col1 < 500"), std::string::npos);
  EXPECT_NE(s.find("LIMIT 3"), std::string::npos);
}

// --- literal coercion --------------------------------------------------------

TEST(CoerceLiteralTest, ExactConversionsTakeTheColumnType) {
  struct Case {
    Datum literal;
    DataType column;
    Datum expected;
  };
  const std::vector<Case> cases = {
      {Datum::Int64(7), DataType::kInt32, Datum::Int32(7)},
      {Datum::Float64(2.0), DataType::kInt32, Datum::Int32(2)},
      {Datum::Float64(-3.0), DataType::kInt64, Datum::Int64(-3)},
      {Datum::Int64(5000000000), DataType::kInt64, Datum::Int64(5000000000)},
      {Datum::Int64(3), DataType::kFloat64, Datum::Float64(3.0)},
      {Datum::Float64(0.5), DataType::kFloat32, Datum::Float32(0.5f)},
      {Datum::String("12"), DataType::kInt32, Datum::Int32(12)},
      // Inexact for the column: the literal keeps its own type.
      {Datum::Float64(2.5), DataType::kInt32, Datum::Float64(2.5)},
      {Datum::Float64(2.5), DataType::kInt64, Datum::Float64(2.5)},
      {Datum::Int64(5000000000), DataType::kInt32, Datum::Int64(5000000000)},
      {Datum::Float64(5e9), DataType::kInt32, Datum::Float64(5e9)},
      {Datum::Float64(1e19), DataType::kInt64, Datum::Float64(1e19)},
  };
  for (const Case& c : cases) {
    ASSERT_OK_AND_ASSIGN(Datum got, CoerceLiteral(c.literal, c.column));
    EXPECT_EQ(got, c.expected)
        << c.literal.ToString() << " -> " << DataTypeToString(c.column);
  }
  EXPECT_FALSE(CoerceLiteral(Datum::String("x"), DataType::kInt32).ok());
}

/// Integer columns compared against literals they cannot hold exactly:
/// every form of the query (SQL, programmatic spec, `?` parameter) must give
/// the SQL answer, interpreted and with fusion on.
class LiteralCoercionTest : public testing::TempDirTest {
 protected:
  void SetUp() override {
    testing::TempDirTest::SetUp();
    // a (int32) = b (int64) = 0..9.
    std::string csv;
    for (int i = 0; i < 10; ++i) {
      csv += std::to_string(i) + "," + std::to_string(i) + "\n";
    }
    ASSERT_OK(WriteStringToFile(Path("t.csv"), csv));
    ASSERT_OK(engine_.RegisterCsv(
        "t", Path("t.csv"),
        Schema{{"a", DataType::kInt32}, {"b", DataType::kInt64}}));
  }

  struct Case {
    const char* column;
    CompareOp op;
    Datum literal;
    int64_t expected;
  };
  static std::vector<Case> Cases() {
    return {
        {"a", CompareOp::kLt, Datum::Float64(2.5), 3},
        {"a", CompareOp::kGe, Datum::Float64(2.5), 7},
        {"a", CompareOp::kEq, Datum::Float64(2.5), 0},
        {"a", CompareOp::kNe, Datum::Float64(2.5), 10},
        {"a", CompareOp::kLt, Datum::Int64(5000000000), 10},
        {"a", CompareOp::kGt, Datum::Int64(-5000000000), 10},
        {"a", CompareOp::kLe, Datum::Float64(2.0), 3},
        {"b", CompareOp::kLt, Datum::Float64(2.5), 3},
        {"b", CompareOp::kGt, Datum::Float64(8.5), 1},
    };
  }

  static std::string Sql(const Case& c, bool param) {
    return std::string("SELECT COUNT(*) FROM t WHERE ") + c.column + " " +
           std::string(CompareOpToString(c.op)) + " " +
           (param ? std::string("?") : c.literal.ToString());
  }

  static QuerySpec Spec(const Case& c) {
    QuerySpec spec;
    spec.tables = {"t"};
    AggItemSpec count;
    count.kind = AggKind::kCount;
    count.count_star = true;
    spec.aggregates.push_back(count);
    PredicateSpec pred;
    pred.column.column = c.column;
    pred.op = c.op;
    pred.literal = c.literal;
    spec.predicates.push_back(pred);
    return spec;
  }

  static int64_t Count(const QueryResult& result) {
    auto value = result.Scalar();
    EXPECT_OK(value.status());
    return value.ok() ? *value->AsInt64() : -1;
  }

  RawEngine engine_;
};

TEST_F(LiteralCoercionTest, InexactLiteralsGiveTheSqlAnswerInEveryForm) {
  std::vector<JitFusion> modes = {JitFusion::kOff};
  if (engine_.Stats().jit_compiler_available()) {
    modes.push_back(JitFusion::kOn);
  }
  for (JitFusion mode : modes) {
    PlannerOptions options;
    options.jit_fusion = mode;
    auto session = engine_.OpenSession(options);
    for (const Case& c : Cases()) {
      const std::string sql = Sql(c, /*param=*/false);
      SCOPED_TRACE(sql + (mode == JitFusion::kOn ? " [kOn]" : " [kOff]"));
      ASSERT_OK_AND_ASSIGN(QueryResult from_sql, session->Query(sql));
      EXPECT_EQ(Count(from_sql), c.expected) << from_sql.plan_description;
      ASSERT_OK_AND_ASSIGN(QueryResult from_spec, session->Execute(Spec(c)));
      EXPECT_EQ(Count(from_spec), c.expected) << from_spec.plan_description;
      ASSERT_OK_AND_ASSIGN(PreparedQuery prepared,
                           session->Prepare(Sql(c, /*param=*/true)));
      ASSERT_OK_AND_ASSIGN(QueryResult from_param,
                           prepared.Execute({c.literal}));
      EXPECT_EQ(Count(from_param), c.expected)
          << from_param.plan_description;
    }
  }
}

}  // namespace
}  // namespace raw
