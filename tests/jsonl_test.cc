#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/mmap_file.h"
#include "common/rng.h"
#include "engine/catalog.h"
#include "engine/formats/builtin.h"
#include "format/format_driver.h"
#include "jsonl/jsonl_parser.h"
#include "jsonl/jsonl_scan.h"
#include "jsonl/jsonl_writer.h"
#include "scan/morsel.h"
#include "tests/test_util.h"
#include "workload/table_spec.h"

namespace raw {
namespace {

Schema TestSchema() {
  return Schema{{"id", DataType::kInt32},
                {"name", DataType::kString},
                {"score", DataType::kFloat64},
                {"active", DataType::kBool}};
}

// --- parser ---------------------------------------------------------------

TEST(JsonlParserTest, ParsesFlatObjectInAnyKeyOrder) {
  const std::string row =
      R"({"score": 2.5, "id": 7, "active": true, "name": "ada"})" "\n";
  JsonlRowParser parser(TestSchema());
  std::vector<JsonlField> fields(4);
  const char* p = row.data();
  ASSERT_OK(parser.ParseRow(&p, row.data() + row.size(), row.data(),
                            fields.data()));
  EXPECT_EQ(std::string(fields[0].data, fields[0].size), "7");
  EXPECT_EQ(std::string(fields[1].data, fields[1].size), "ada");
  EXPECT_TRUE(fields[1].quoted);
  EXPECT_EQ(std::string(fields[2].data, fields[2].size), "2.5");
  EXPECT_EQ(std::string(fields[3].data, fields[3].size), "true");
  // Offsets address the value (strings: the opening quote).
  EXPECT_EQ(row[fields[1].offset], '"');
  EXPECT_EQ(row[fields[0].offset], '7');
}

TEST(JsonlParserTest, SkipsUnknownKeysAndRejectsMissingOnes) {
  JsonlRowParser parser(TestSchema());
  std::vector<JsonlField> fields(4);
  const std::string extra =
      R"({"id":1,"name":"x","wat":99,"score":0.5,"active":false})";
  const char* p = extra.data();
  EXPECT_OK(parser.ParseRow(&p, extra.data() + extra.size(), extra.data(),
                            fields.data()));
  const std::string missing = R"({"id":1,"name":"x","score":0.5})";
  p = missing.data();
  Status st = parser.ParseRow(&p, missing.data() + missing.size(),
                              missing.data(), fields.data());
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("missing key"), std::string::npos);
}

TEST(JsonlParserTest, MissingKeyErrorNamesTheKey) {
  JsonlRowParser parser(TestSchema());
  std::vector<JsonlField> fields(4);
  const std::string row = R"({"id":1,"name":"x","active":true})";
  const char* p = row.data();
  Status st = parser.ParseRow(&p, row.data() + row.size(), row.data(),
                              fields.data());
  ASSERT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_NE(st.ToString().find(R"(JSONL row is missing key "score")"),
            std::string::npos)
      << st.ToString();
}

TEST(JsonlParserTest, ReportsWhetherKeysCameInSchemaOrder) {
  JsonlRowParser parser(TestSchema());
  std::vector<JsonlField> fields(4);
  struct Case {
    std::string row;
    bool in_order;
  };
  const Case cases[] = {
      {R"({"id":1,"name":"x","score":0.5,"active":true})", true},
      {R"( { "id" : 1 ,	"name":"x" , "score":0.5,"active":true } )", true},
      {R"({"name":"x","id":1,"score":0.5,"active":true})", false},
      {R"({"id":1,"name":"x","wat":0,"score":0.5,"active":true})", false},
      {R"({"id":1,"name":"x","score":0.5,"active":true,"id":2})", false},
      {R"({"id":1,"idx":3,"name":"x","score":0.5,"active":true})", false},
  };
  for (const Case& c : cases) {
    bool in_order = !c.in_order;
    const char* p = c.row.data();
    ASSERT_OK(parser.ParseRow(&p, c.row.data() + c.row.size(), c.row.data(),
                              fields.data(), &in_order));
    EXPECT_EQ(in_order, c.in_order) << c.row;
  }
}

TEST(JsonlParserTest, ResumeWalksOnlyMatchingKeys) {
  JsonlRowParser parser(TestSchema());
  std::vector<JsonlField> fields(4);
  const std::string row =
      R"({"id":1, "name" : "x","score":0.5,"active":true})";
  const char* end = row.data() + row.size();
  // From the row start to "score": every key checked, values recorded.
  ASSERT_TRUE(parser.ResumeRow(row.data(), end, row.data(), -1, 2,
                               fields.data()));
  EXPECT_EQ(std::string(fields[2].data, fields[2].size), "0.5");
  EXPECT_EQ(row[fields[1].offset], '"');
  // From the value of "name" to "active".
  ASSERT_TRUE(parser.ResumeRow(row.data() + fields[1].offset, end, row.data(),
                               1, 3, fields.data()));
  EXPECT_EQ(std::string(fields[3].data, fields[3].size), "true");
  // A jump checks the key in front of the value: a different one is a miss.
  const std::string renamed =
      R"({"id":1, "nome" : "x","score":0.5,"active":true})";
  EXPECT_FALSE(parser.ResumeRow(renamed.data() + fields[1].offset,
                                renamed.data() + renamed.size(),
                                renamed.data(), 1, 3, fields.data()));
  // A key that differs from the schema's next one is a miss.
  const std::string swapped =
      R"({"id":1,"score":0.5,"name":"x","active":true})";
  EXPECT_FALSE(parser.ResumeRow(swapped.data(),
                                swapped.data() + swapped.size(),
                                swapped.data(), -1, 1, fields.data()));
  // A name holding a quote can never be read unescaped: always a miss.
  JsonlRowParser odd(Schema{{"a", DataType::kInt32}, {"b\"", DataType::kInt32}});
  const std::string quoted = R"({"a":1,"b"":2})";
  EXPECT_FALSE(odd.ResumeRow(quoted.data(), quoted.data() + quoted.size(),
                             quoted.data(), -1, 1, fields.data()));
}

TEST(JsonlParserTest, RejectsNestedValues) {
  JsonlRowParser parser(Schema{{"a", DataType::kInt32}});
  std::vector<JsonlField> fields(1);
  for (const std::string& row :
       {std::string(R"({"a":{"b":1}})"), std::string(R"({"a":[1,2]})")}) {
    const char* p = row.data();
    EXPECT_FALSE(parser
                     .ParseRow(&p, row.data() + row.size(), row.data(),
                               fields.data())
                     .ok());
  }
}

TEST(JsonlParserTest, UnescapesStrings) {
  const std::string raw = R"(tab\there \"q\" é 😀 back\\slash)";
  std::string out;
  ASSERT_OK(UnescapeJsonString(raw.data(), static_cast<int32_t>(raw.size()),
                               &out));
  EXPECT_EQ(out, "tab\there \"q\" \xc3\xa9 \xf0\x9f\x98\x80 back\\slash");
}

TEST(JsonlParserTest, CountsNonBlankLines) {
  const std::string text = "{\"a\":1}\n\n{\"a\":2}\n   \n{\"a\":3}";
  EXPECT_EQ(CountJsonlRows(text.data(), text.data() + text.size()), 3);
  EXPECT_EQ(CountJsonlRows(text.data(), text.data()), 0);
}

// --- writer / scan round trip ---------------------------------------------

// Built without a leading string literal in an rvalue operator+ chain (GCC
// 12's -Wrestrict false positive, which -Werror CI would reject). The value
// embeds an escaped quote and newline to stress JSON (un)escaping.
std::string NameVal(int64_t i) {
  std::string s = "n\"am\ne_";
  s += std::to_string(i);
  return s;
}

class JsonlScanTest : public testing::TempDirTest {
 protected:
  void SetUp() override {
    testing::TempDirTest::SetUp();
    path_ = Path("t.jsonl");
    JsonlWriter writer(path_, TestSchema());
    ASSERT_OK(writer.Open());
    for (int i = 0; i < kRows; ++i) {
      ASSERT_OK(writer.AppendDatumRow(
          {Datum::Int32(i), Datum::String(NameVal(i)),
           Datum::Float64(i * 0.25), Datum::Bool(i % 3 == 0)}));
    }
    ASSERT_OK(writer.Close());
    ASSERT_OK_AND_ASSIGN(file_, MmapFile::Open(path_));
  }

  static constexpr int kRows = 500;
  std::string path_;
  std::unique_ptr<MmapFile> file_;
};

TEST_F(JsonlScanTest, SequentialScanRoundTripsEscapedStrings) {
  JsonlScanSpec spec;
  spec.file_schema = TestSchema();
  spec.outputs = {0, 1, 2, 3};
  JsonlScanOperator scan(file_.get(), spec);
  ASSERT_OK(scan.Open());
  int64_t seen = 0;
  while (true) {
    ASSERT_OK_AND_ASSIGN(ColumnBatch batch, scan.Next());
    if (batch.empty()) break;
    for (int64_t r = 0; r < batch.num_rows(); ++r) {
      const int64_t row = seen + r;
      EXPECT_EQ(batch.column(0)->Value<int32_t>(r), row);
      EXPECT_EQ(batch.column(1)->StringValue(r), NameVal(row));
      EXPECT_DOUBLE_EQ(batch.column(2)->Value<double>(r), row * 0.25);
      EXPECT_EQ(batch.column(3)->Value<bool>(r), row % 3 == 0);
    }
    seen += batch.num_rows();
  }
  EXPECT_EQ(seen, kRows);
}

TEST_F(JsonlScanTest, FieldOffsetMapMatchesSequentialScan) {
  // Build the map (tracking a strided subset), then re-read positionally —
  // tracked columns jump straight to mapped value offsets, untracked ones
  // re-parse from the row start. Both must agree with the sequential scan.
  PositionalMap pmap = PositionalMap::WithStride(4, /*stride=*/2);
  {
    JsonlScanSpec build;
    build.file_schema = TestSchema();
    build.outputs = {0};
    build.build_pmap = &pmap;
    JsonlScanOperator scan(file_.get(), build);
    ASSERT_OK(scan.Open());
    while (true) {
      ASSERT_OK_AND_ASSIGN(ColumnBatch batch, scan.Next());
      if (batch.empty()) break;
    }
  }
  ASSERT_OK(pmap.CheckConsistency());
  ASSERT_EQ(pmap.num_rows(), kRows);

  JsonlScanSpec warm;
  warm.file_schema = TestSchema();
  warm.outputs = {1, 2};  // column 2 tracked (stride 2), column 1 not
  warm.use_pmap = &pmap;
  JsonlScanOperator scan(file_.get(), warm);
  ASSERT_OK(scan.Open());
  int64_t seen = 0;
  while (true) {
    ASSERT_OK_AND_ASSIGN(ColumnBatch batch, scan.Next());
    if (batch.empty()) break;
    for (int64_t r = 0; r < batch.num_rows(); ++r) {
      const int64_t row = batch.row_ids()[static_cast<size_t>(r)];
      EXPECT_EQ(batch.column(0)->StringValue(r), NameVal(row));
      EXPECT_DOUBLE_EQ(batch.column(1)->Value<double>(r), row * 0.25);
    }
    seen += batch.num_rows();
  }
  EXPECT_EQ(seen, kRows);

  // Late-scan fetch: explicit row set through the same map.
  JsonlScanSpec fspec;
  fspec.file_schema = TestSchema();
  fspec.outputs = {2};
  fspec.use_pmap = &pmap;
  JsonlRowFetcher fetcher(file_.get(), fspec);
  RowSet rows;
  rows.ids = {499, 0, 77};
  ASSERT_OK_AND_ASSIGN(std::vector<ColumnPtr> cols, fetcher.Fetch(rows));
  ASSERT_EQ(cols.size(), 1u);
  EXPECT_DOUBLE_EQ(cols[0]->Value<double>(0), 499 * 0.25);
  EXPECT_DOUBLE_EQ(cols[0]->Value<double>(1), 0.0);
  EXPECT_DOUBLE_EQ(cols[0]->Value<double>(2), 77 * 0.25);
}

TEST_F(JsonlScanTest, ByteMorselsTileTheFileAndRebaseCleanly) {
  std::vector<ScanRange> morsels =
      SplitJsonlByteRanges(file_->data(), file_->size(), 4, /*min_bytes=*/64);
  ASSERT_GT(morsels.size(), 1u);
  int64_t total = 0;
  int64_t cursor = 0;
  for (const ScanRange& m : morsels) {
    EXPECT_EQ(m.unit, ScanRange::Unit::kBytes);
    EXPECT_EQ(m.begin, cursor);
    cursor = m.end;
    JsonlScanSpec spec;
    spec.file_schema = TestSchema();
    spec.outputs = {0};
    spec.range = m;
    JsonlScanOperator scan(file_.get(), spec);
    ASSERT_OK(scan.Open());
    while (true) {
      ASSERT_OK_AND_ASSIGN(ColumnBatch batch, scan.Next());
      if (batch.empty()) break;
      for (int64_t r = 0; r < batch.num_rows(); ++r) {
        // Range-local ids rebase by prefix sums, mirroring the parallel
        // scan driver; values must land back on the global row number.
        EXPECT_EQ(batch.column(0)->Value<int32_t>(r),
                  total + batch.row_ids()[static_cast<size_t>(r)]);
      }
      total += batch.num_rows();
    }
  }
  EXPECT_EQ(cursor, static_cast<int64_t>(file_->size()));
  EXPECT_EQ(total, kRows);
}

TEST_F(JsonlScanTest, EmptyFileScansToZeroRows) {
  std::string empty_path = Path("empty.jsonl");
  JsonlWriter writer(empty_path, TestSchema());
  ASSERT_OK(writer.Open());
  ASSERT_OK(writer.Close());
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<MmapFile> empty,
                       MmapFile::Open(empty_path));
  JsonlScanSpec spec;
  spec.file_schema = TestSchema();
  spec.outputs = {0, 3};
  JsonlScanOperator scan(empty.get(), spec);
  ASSERT_OK(scan.Open());
  ASSERT_OK_AND_ASSIGN(ColumnBatch batch, scan.Next());
  EXPECT_TRUE(batch.empty());
}


TEST(JsonlParserTest, DecodesSurrogatePairEscapes) {
  // 😀 is U+1F600 (grinning face); the pair must decode to one
  // 4-byte UTF-8 sequence, not two replacement characters or CESU-8.
  const std::string raw = R"(hi \ud83d\ude00!)";
  std::string out;
  ASSERT_OK(UnescapeJsonString(raw.data(), static_cast<int32_t>(raw.size()),
                               &out));
  EXPECT_EQ(out, "hi \xf0\x9f\x98\x80!");
}

TEST(JsonlParserTest, RejectsLoneAndMismatchedSurrogates) {
  const char* bad[] = {
      R"(\ud83d)",        // lone high surrogate at end of string
      R"(\ud83d tail)",   // high surrogate followed by plain text
      R"(\ud83dA)",  // high surrogate followed by a non-surrogate
      R"(\ude00)",        // lone low surrogate
  };
  for (const char* raw : bad) {
    std::string out;
    EXPECT_FALSE(UnescapeJsonString(raw, static_cast<int32_t>(strlen(raw)),
                                    &out)
                     .ok())
        << raw;
  }
}

TEST(JsonlParserTest, BmpEscapesStillDecode) {
  const std::string raw = R"(\u0041\u00e9\u4e2d)";  // A, e-acute, CJK
  std::string out;
  ASSERT_OK(UnescapeJsonString(raw.data(), static_cast<int32_t>(raw.size()),
                               &out));
  EXPECT_EQ(out, "A\xc3\xa9\xe4\xb8\xad");
}

// --- schema-order matching and the resume walk: seeded property sweep ------

// The row parser before schema-order key matching: every key is looked up
// by name. Kept as the reference the fast path must equal bit for bit.
Status ReferenceParseRow(const Schema& schema, const char** pp,
                         const char* end, const char* base,
                         JsonlField* fields) {
  std::map<std::string, int, std::less<>> index;
  for (int c = 0; c < schema.num_fields(); ++c) {
    index.emplace(schema.field(c).name, c);
  }
  auto skip = [end](const char* p) {
    while (p != end && (*p == ' ' || *p == '\t' || *p == '\r')) ++p;
    return p;
  };
  for (int c = 0; c < schema.num_fields(); ++c) fields[c] = JsonlField{};
  const char* p = skip(*pp);
  if (p == end || *p != '{') return Status::ParseError("expected '{'");
  p = skip(p + 1);
  if (p != end && *p == '}') {
    ++p;
  } else {
    while (true) {
      if (p == end || *p != '"') return Status::ParseError("expected key");
      JsonlField key;
      RAW_RETURN_NOT_OK(ParseJsonValue(&p, end, &key));
      if (key.escaped) return Status::ParseError("escaped key");
      p = skip(p);
      if (p == end || *p != ':') return Status::ParseError("expected ':'");
      p = skip(p + 1);
      JsonlField value;
      value.offset = static_cast<uint64_t>(p - base);
      RAW_RETURN_NOT_OK(ParseJsonValue(&p, end, &value));
      value.present = true;
      auto it = index.find(
          std::string_view(key.data, static_cast<size_t>(key.size)));
      if (it != index.end()) fields[it->second] = value;
      p = skip(p);
      if (p == end) return Status::ParseError("unterminated object");
      if (*p == ',') {
        p = skip(p + 1);
        continue;
      }
      if (*p == '}') {
        ++p;
        break;
      }
      return Status::ParseError("expected ',' or '}'");
    }
  }
  p = skip(p);
  if (p != end && *p != '\n') return Status::ParseError("trailing data");
  if (p != end) ++p;
  *pp = p;
  for (int c = 0; c < schema.num_fields(); ++c) {
    if (!fields[c].present) return Status::ParseError("missing key");
  }
  return Status::OK();
}

void ExpectSameField(const JsonlField& a, const JsonlField& b,
                     const std::string& what) {
  EXPECT_EQ(a.data, b.data) << what;
  EXPECT_EQ(a.size, b.size) << what;
  EXPECT_EQ(a.present, b.present) << what;
  EXPECT_EQ(a.quoted, b.quoted) << what;
  EXPECT_EQ(a.escaped, b.escaped) << what;
  EXPECT_EQ(a.offset, b.offset) << what;
}

enum class RowKind {
  kSchemaOrder,
  kShuffledKeys,
  kUnknownKeys,
  kRepeatedKeys,
  kWhitespace,
  kEscapedStrings,
};

// Names share prefixes ("k0" / "k00", "s1" / "s1x") so a key match must see
// the closing quote, not just a prefix.
Schema SweepSchema() {
  return Schema{{"k0", DataType::kInt32},  {"s1", DataType::kString},
                {"f2", DataType::kFloat64}, {"b3", DataType::kBool},
                {"k4", DataType::kInt64},  {"s5", DataType::kString},
                {"k6", DataType::kInt32}};
}

std::string SweepValue(DataType type, bool escaped, Rng* rng) {
  static const char* const kPlain[] = {"ada", "", "k0", "a,b", "x: y", "{}"};
  static const char* const kEscaped[] = {
      R"(q\"uote)", R"(back\\slash)", R"(line\nbreak)", R"(\u00e9t\u00e9)",
      R"(\"k0\":1,)", R"(tab\t\/)"};
  switch (type) {
    case DataType::kInt32:
      return std::to_string(rng->NextInt32(-1000000, 1000000));
    case DataType::kInt64:
      return std::to_string(rng->NextInt64(-(int64_t{1} << 40),
                                           int64_t{1} << 40));
    case DataType::kFloat32:
    case DataType::kFloat64:
      return std::to_string(rng->NextInt32(-4000, 4000) / 8.0);
    case DataType::kBool:
      return rng->NextBool() ? "true" : "false";
    case DataType::kString:
      break;
  }
  std::string s = "\"";
  s += escaped ? kEscaped[rng->NextBelow(6)] : kPlain[rng->NextBelow(6)];
  s += '"';
  return s;
}

// One JSONL line of `kind`; `*in_order` says whether its keys are exactly
// the schema's, once each, in schema order.
std::string SweepRow(const Schema& schema, RowKind kind, Rng* rng,
                     bool* in_order) {
  std::vector<std::pair<std::string, std::string>> kv;
  for (int c = 0; c < schema.num_fields(); ++c) {
    kv.emplace_back(schema.field(c).name,
                    SweepValue(schema.field(c).type,
                               kind == RowKind::kEscapedStrings, rng));
  }
  const size_t n = kv.size();
  auto random_slot = [&] {
    return static_cast<std::ptrdiff_t>(rng->NextBelow(kv.size() + 1));
  };
  switch (kind) {
    case RowKind::kShuffledKeys: {
      const auto original = kv;
      while (kv == original) {
        for (size_t i = n - 1; i > 0; --i) {
          std::swap(kv[i], kv[rng->NextBelow(i + 1)]);
        }
      }
      break;
    }
    case RowKind::kUnknownKeys: {
      static const char* const kUnknown[] = {"k", "k00", "s1x", "", "zz"};
      for (uint64_t i = 0, m = 1 + rng->NextBelow(2); i < m; ++i) {
        kv.insert(kv.begin() + random_slot(),
                  {kUnknown[rng->NextBelow(5)],
                   std::to_string(rng->NextInt32(0, 99))});
      }
      break;
    }
    case RowKind::kRepeatedKeys: {
      for (uint64_t i = 0, m = 1 + rng->NextBelow(2); i < m; ++i) {
        const int c = static_cast<int>(rng->NextBelow(n));
        kv.insert(kv.begin() + random_slot(),
                  {schema.field(c).name,
                   SweepValue(schema.field(c).type, false, rng)});
      }
      break;
    }
    default:
      break;
  }
  *in_order = kv.size() == n;
  for (size_t i = 0; *in_order && i < n; ++i) {
    *in_order = kv[i].first == schema.field(static_cast<int>(i)).name;
  }
  const bool spaced = kind == RowKind::kWhitespace;
  static const char* const kSpace[] = {"", " ", "\t", "  ", " \t "};
  auto space = [&] { return spaced ? kSpace[rng->NextBelow(5)] : ""; };
  std::string line = space();
  line += '{';
  line += space();
  for (size_t i = 0; i < kv.size(); ++i) {
    if (i > 0) {
      line += space();
      line += ',';
      line += space();
    }
    line += '"';
    line += kv[i].first;
    line += '"';
    line += space();
    line += ':';
    line += space();
    line += kv[i].second;
  }
  line += space();
  line += '}';
  line += '\n';
  return line;
}

// Collects every batch of `op` as rendered values, one vector per row.
std::vector<std::vector<std::string>> DrainRows(Operator* op,
                                                std::vector<int64_t>* ids) {
  std::vector<std::vector<std::string>> rows;
  EXPECT_OK(op->Open());
  while (true) {
    auto batch = op->Next();
    EXPECT_OK(batch.status());
    if (!batch.ok() || batch->end_of_stream()) break;
    for (int64_t r = 0; r < batch->num_rows(); ++r) {
      std::vector<std::string> row;
      for (int c = 0; c < batch->num_columns(); ++c) {
        row.push_back(batch->column(c)->GetDatum(r).ToString());
      }
      rows.push_back(std::move(row));
      if (ids != nullptr) ids->push_back(batch->row_ids()[static_cast<size_t>(r)]);
    }
  }
  return rows;
}

class JsonlKeyOrderSweepTest : public testing::TempDirTest {};

TEST_F(JsonlKeyOrderSweepTest, FastPathsEqualTheReferenceOnEveryRowKind) {
  const Schema schema = SweepSchema();
  const int num_fields = schema.num_fields();
  JsonlRowParser parser(schema);
  constexpr int kSweepRows = 40;
  const std::vector<std::pair<std::string, std::vector<RowKind>>> files = {
      {"schema_order", {RowKind::kSchemaOrder}},
      {"shuffled", {RowKind::kShuffledKeys}},
      {"unknown", {RowKind::kUnknownKeys}},
      {"repeated", {RowKind::kRepeatedKeys}},
      {"whitespace", {RowKind::kWhitespace}},
      {"escaped", {RowKind::kEscapedStrings}},
      {"ordered_mix",
       {RowKind::kSchemaOrder, RowKind::kWhitespace,
        RowKind::kEscapedStrings}},
      {"mix",
       {RowKind::kSchemaOrder, RowKind::kShuffledKeys, RowKind::kUnknownKeys,
        RowKind::kRepeatedKeys, RowKind::kWhitespace,
        RowKind::kEscapedStrings}},
  };
  for (uint64_t seed : {1, 2, 3}) {
    for (const auto& [label, kinds] : files) {
      SCOPED_TRACE(label + " seed " + std::to_string(seed));
      Rng rng(seed * 7919 + label.size());
      std::string text;
      bool all_in_order = true;
      std::vector<bool> row_in_order;
      for (int r = 0; r < kSweepRows; ++r) {
        bool in_order = false;
        text += SweepRow(schema, kinds[rng.NextBelow(kinds.size())], &rng,
                         &in_order);
        row_in_order.push_back(in_order);
        all_in_order = all_in_order && in_order;
      }

      // ParseRow equals the map-lookup reference, field for field.
      const char* end = text.data() + text.size();
      const char* p = text.data();
      const char* q = text.data();
      std::vector<JsonlField> fast(static_cast<size_t>(num_fields));
      std::vector<JsonlField> ref(static_cast<size_t>(num_fields));
      for (int r = 0; r < kSweepRows; ++r) {
        bool in_order = false;
        ASSERT_OK(parser.ParseRow(&p, end, text.data(), fast.data(),
                                  &in_order));
        ASSERT_OK(ReferenceParseRow(schema, &q, end, text.data(), ref.data()));
        ASSERT_EQ(p, q);
        EXPECT_EQ(in_order, row_in_order[static_cast<size_t>(r)]) << "row " << r;
        for (int c = 0; c < num_fields; ++c) {
          ExpectSameField(fast[static_cast<size_t>(c)],
                          ref[static_cast<size_t>(c)],
                          "row " + std::to_string(r) + " col " +
                              std::to_string(c));
        }
      }

      const std::string path = Path(label + std::to_string(seed) + ".jsonl");
      ASSERT_OK(WriteStringToFile(path, text));
      ASSERT_OK_AND_ASSIGN(std::unique_ptr<MmapFile> file,
                           MmapFile::Open(path));
      std::vector<int> all;
      for (int c = 0; c < num_fields; ++c) all.push_back(c);

      for (int stride : {1, 3, 10}) {
        SCOPED_TRACE("stride " + std::to_string(stride));
        PositionalMap pmap = PositionalMap::WithStride(num_fields, stride);
        JsonlScanSpec build;
        build.file_schema = schema;
        build.outputs = all;
        build.build_pmap = &pmap;
        JsonlScanOperator seq(file.get(), build);
        const auto truth = DrainRows(&seq, nullptr);
        ASSERT_EQ(truth.size(), static_cast<size_t>(kSweepRows));
        // The bit is set exactly when every row came in schema order.
        EXPECT_EQ(pmap.keys_in_schema_order(), all_in_order);

        // Every output subset: the offset scan and the fetcher equal the
        // sequential scan.
        const RowSet fetch_rows{{kSweepRows - 1, 0, 17, 3, 17, 22}, {}};
        for (int mask = 1; mask < (1 << num_fields); ++mask) {
          std::vector<int> outputs;
          for (int c = 0; c < num_fields; ++c) {
            if (mask & (1 << c)) outputs.push_back(c);
          }
          auto expected = [&](int64_t row) {
            std::vector<std::string> v;
            for (int c : outputs) {
              v.push_back(truth[static_cast<size_t>(row)]
                               [static_cast<size_t>(c)]);
            }
            return v;
          };
          JsonlScanSpec warm;
          warm.file_schema = schema;
          warm.outputs = outputs;
          warm.use_pmap = &pmap;
          warm.batch_rows = 16;  // several batches per scan
          JsonlScanOperator scan(file.get(), warm);
          std::vector<int64_t> ids;
          const auto got = DrainRows(&scan, &ids);
          ASSERT_EQ(got.size(), truth.size()) << "mask " << mask;
          for (size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(ids[i], static_cast<int64_t>(i));
            ASSERT_EQ(got[i], expected(ids[i])) << "mask " << mask;
          }

          JsonlRowFetcher fetcher(file.get(), warm);
          ASSERT_OK_AND_ASSIGN(std::vector<ColumnPtr> cols,
                               fetcher.Fetch(fetch_rows));
          ASSERT_EQ(cols.size(), outputs.size());
          for (size_t i = 0; i < fetch_rows.ids.size(); ++i) {
            std::vector<std::string> row;
            for (const ColumnPtr& col : cols) {
              row.push_back(
                  col->GetDatum(static_cast<int64_t>(i)).ToString());
            }
            ASSERT_EQ(row, expected(fetch_rows.ids[i])) << "mask " << mask;
          }
        }
      }
    }
  }
}

TEST(JsonlKeyOrderTest, PartialMapsAndTheirBits) {
  const uint64_t positions[1] = {0};
  auto partial = [&](bool in_order) {
    PositionalMap m = PositionalMap::WithStride(3, 10);
    m.AppendRow(0, positions);
    if (!in_order) m.ClearKeysInSchemaOrder();
    return m;
  };
  PositionalMap merged = partial(true);
  ASSERT_OK(merged.AppendFrom(partial(true)));
  EXPECT_TRUE(merged.keys_in_schema_order());
  ASSERT_OK(merged.AppendFrom(partial(false)));
  ASSERT_OK(merged.AppendFrom(partial(true)));
  EXPECT_FALSE(merged.keys_in_schema_order());
  EXPECT_EQ(merged.num_rows(), 4);
}

TEST_F(JsonlScanTest, OffsetScanTakesARowRange) {
  PositionalMap pmap = PositionalMap::WithStride(4, /*stride=*/2);
  JsonlScanSpec build;
  build.file_schema = TestSchema();
  build.outputs = {0};
  build.build_pmap = &pmap;
  JsonlScanOperator seq(file_.get(), build);
  DrainRows(&seq, nullptr);
  ASSERT_EQ(pmap.num_rows(), kRows);

  JsonlScanSpec warm;
  warm.file_schema = TestSchema();
  warm.outputs = {0, 1};
  warm.use_pmap = &pmap;
  warm.range = ScanRange::Rows(123, 45);
  JsonlScanOperator scan(file_.get(), warm);
  std::vector<int64_t> ids;
  const auto rows = DrainRows(&scan, &ids);
  ASSERT_EQ(rows.size(), 45u);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(ids[i], 123 + static_cast<int64_t>(i));  // file-global ids
    EXPECT_EQ(rows[i][0], std::to_string(ids[i]));
  }

  // Byte ranges, out-of-bounds rows and a range beside a row set are misuse.
  for (const ScanRange& bad :
       {ScanRange::Bytes(0, 10), ScanRange::Rows(490, 20)}) {
    warm.range = bad;
    JsonlScanOperator op(file_.get(), warm);
    EXPECT_EQ(op.Open().code(), StatusCode::kInvalidArgument);
  }
  warm.range = ScanRange::Rows(0, 2);
  warm.row_set = RowSet{{0, 1}, {}};
  JsonlScanOperator both(file_.get(), warm);
  EXPECT_EQ(both.Open().code(), StatusCode::kInvalidArgument);
}

TEST_F(JsonlScanTest, SkipDistanceFollowsTheKeyOrderBit) {
  EnsureBuiltinFormatDriversRegistered();
  const FormatDriver* driver =
      FormatRegistry::Global().Find(FileFormat::kJsonl);
  ASSERT_NE(driver, nullptr);
  Catalog catalog;
  const Schema wide = TableSpec::UniformInt32("w", 12, 1, 1).ToSchema();
  ASSERT_OK(catalog.RegisterJsonl("t", path_, wide));
  ASSERT_OK_AND_ASSIGN(std::vector<FormatScanContext> pinned,
                       catalog.Pin({"t"}));
  FormatScanContext& tc = pinned[0];
  EXPECT_EQ(driver->EstimateSkipDistance(tc), 0);  // no map yet

  const uint64_t positions[12] = {};  // up to one per column (stride 1)
  auto map_with = [&](int stride, bool in_order) {
    auto m = std::make_shared<PositionalMap>(
        PositionalMap::WithStride(12, stride));
    m->AppendRow(0, positions);
    if (!in_order) m->ClearKeysInSchemaOrder();
    return m;
  };
  tc.published_pmap = map_with(4, true);
  EXPECT_EQ(driver->EstimateSkipDistance(tc), 2);  // half the stride
  tc.published_pmap = map_with(10, true);
  EXPECT_EQ(driver->EstimateSkipDistance(tc), 5);
  tc.published_pmap = map_with(4, false);
  EXPECT_EQ(driver->EstimateSkipDistance(tc), 6);  // half the object
  tc.published_pmap = map_with(1, false);
  EXPECT_EQ(driver->EstimateSkipDistance(tc), 0);  // every value mapped
}

}  // namespace
}  // namespace raw
