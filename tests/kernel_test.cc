// Property suite for the kernel core (common/kernels.h + the columnar
// eval/aggregate kernels): every dispatch tier must produce bit-for-bit the
// results of the scalar reference implementation, over randomized inputs —
// unaligned buffers, needle positions straddling word/vector boundaries,
// quoted fields, all numeric types x compare ops x selectivities, and
// engine-level thread-count determinism on every tier.

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <vector>

#include "columnar/aggregate.h"
#include "columnar/eval_kernels.h"
#include "columnar/expression.h"
#include "common/kernels.h"
#include "common/rng.h"
#include "csv/csv_tokenizer.h"
#include "engine/raw_engine.h"
#include "tests/test_util.h"

namespace raw {
namespace {

const KernelTier kAllTiers[] = {KernelTier::kScalar, KernelTier::kSwar,
                                KernelTier::kSse2, KernelTier::kAvx2};

/// Restores the environment-default tier when a test that sweeps tiers ends.
struct TierGuard {
  ~TierGuard() { ResetKernelTierFromEnv(); }
};

std::vector<KernelTier> SupportedTiers() {
  std::vector<KernelTier> tiers;
  for (KernelTier tier : kAllTiers) {
    if (ScanForEitherImpl(tier) != nullptr) tiers.push_back(tier);
  }
  return tiers;
}

// --- byte scanners -----------------------------------------------------------

TEST(KernelScanTest, RandomBuffersMatchScalar) {
  Rng rng(2024);
  ScanTwoFn scalar_two = ScanForEitherImpl(KernelTier::kScalar);
  ScanOneFn scalar_one = ScanForImpl(KernelTier::kScalar);
  for (int round = 0; round < 200; ++round) {
    const int size = static_cast<int>(rng.NextInt32(0, 300));
    std::vector<char> buf(static_cast<size_t>(size) + 8);
    // Full byte range, including 0x80..0xFF (SWAR false-positive territory)
    // and plenty of needle bytes.
    for (int i = 0; i < size; ++i) {
      uint64_t roll = rng.NextBelow(10);
      buf[static_cast<size_t>(i)] =
          roll < 2 ? ','
                   : (roll < 4 ? '\n' : static_cast<char>(rng.NextBelow(256)));
    }
    // Unaligned starts: every offset into the buffer.
    for (int off = 0; off <= size; ++off) {
      const char* p = buf.data() + off;
      const char* end = buf.data() + size;
      const char* expect_two = scalar_two(p, end, ',', '\n');
      const char* expect_one = scalar_one(p, end, '\n');
      for (KernelTier tier : SupportedTiers()) {
        EXPECT_EQ(ScanForEitherImpl(tier)(p, end, ',', '\n'), expect_two)
            << "tier=" << KernelTierName(tier) << " off=" << off;
        EXPECT_EQ(ScanForImpl(tier)(p, end, '\n'), expect_one)
            << "tier=" << KernelTierName(tier) << " off=" << off;
      }
    }
  }
}

TEST(KernelScanTest, NeedleAtEveryPositionAndBoundary) {
  // One needle in a sea of 'x': must be found at every position, for every
  // start offset 0..7 (straddles the 8/16/32-byte steps of every tier).
  const int kSize = 100;
  for (int pos = 0; pos < kSize; ++pos) {
    std::string buf(kSize, 'x');
    buf[static_cast<size_t>(pos)] = ';';
    for (int off = 0; off < 8; ++off) {
      const char* p = buf.data() + off;
      const char* end = buf.data() + buf.size();
      for (KernelTier tier : SupportedTiers()) {
        const char* hit_two = ScanForEitherImpl(tier)(p, end, ';', '\n');
        const char* hit_one = ScanForImpl(tier)(p, end, ';');
        const char* expect =
            pos >= off ? buf.data() + pos : end;  // needle before start: miss
        EXPECT_EQ(hit_two, expect) << KernelTierName(tier) << " pos=" << pos
                                   << " off=" << off;
        EXPECT_EQ(hit_one, expect) << KernelTierName(tier) << " pos=" << pos
                                   << " off=" << off;
      }
    }
  }
}

TEST(KernelScanTest, EmptyAndNoHitBuffers) {
  std::string buf(257, 'a');
  for (KernelTier tier : SupportedTiers()) {
    const char* end = buf.data() + buf.size();
    EXPECT_EQ(ScanForEitherImpl(tier)(buf.data(), buf.data(), ',', '\n'),
              buf.data());
    EXPECT_EQ(ScanForEitherImpl(tier)(buf.data(), end, ',', '\n'), end);
    EXPECT_EQ(ScanForImpl(tier)(buf.data(), end, ','), end);
  }
}

TEST(KernelScanTest, QuotedRowTokenizationUnchangedAcrossTiers) {
  // The quote-aware path sits above the dispatched scanners; rows with
  // quoted fields (embedded delimiters/newlines, "" escapes) must tokenize
  // identically on every tier.
  TierGuard guard;
  Rng rng(7);
  std::string buf;
  for (int r = 0; r < 50; ++r) {
    for (int f = 0; f < 4; ++f) {
      if (f > 0) buf.push_back(',');
      if (rng.NextBool()) {
        buf.push_back('"');
        for (int k = 0; k < 6; ++k) {
          switch (rng.NextBelow(5)) {
            case 0:
              buf += "\"\"";
              break;
            case 1:
              buf.push_back(',');
              break;
            case 2:
              buf.push_back('\n');
              break;
            default:
              buf.push_back(static_cast<char>('a' + rng.NextBelow(26)));
          }
        }
        buf.push_back('"');
      } else {
        buf += std::to_string(rng.NextInt64(0, 999999));
      }
    }
    buf.push_back('\n');
  }
  std::vector<std::vector<std::string>> reference;
  for (KernelTier tier : SupportedTiers()) {
    SetKernelTier(tier);
    std::vector<std::vector<std::string>> rows;
    CsvRowCursor cursor(buf.data(), buf.data() + buf.size(), CsvOptions());
    std::vector<FieldRef> fields;
    while (!cursor.AtEnd()) {
      ASSERT_OK(cursor.NextRow(&fields));
      std::vector<std::string> row;
      for (const FieldRef& f : fields) row.emplace_back(f.view());
      rows.push_back(std::move(row));
    }
    if (reference.empty()) {
      reference = std::move(rows);
      ASSERT_EQ(reference.size(), 50u);
    } else {
      EXPECT_EQ(rows, reference) << KernelTierName(tier);
    }
  }
}

// --- compare kernels ---------------------------------------------------------

template <typename T>
void CompareKernelProperty(Rng* rng, T lo, T hi) {
  TierGuard guard;
  const CompareOp kOps[] = {CompareOp::kLt, CompareOp::kLe, CompareOp::kGt,
                            CompareOp::kGe, CompareOp::kEq, CompareOp::kNe};
  for (int round = 0; round < 20; ++round) {
    const int64_t n = rng->NextInt64(0, 600);
    std::vector<T> values(static_cast<size_t>(n));
    for (auto& v : values) {
      if constexpr (std::is_integral_v<T>) {
        v = static_cast<T>(rng->NextInt64(static_cast<int64_t>(lo),
                                          static_cast<int64_t>(hi)));
      } else {
        v = static_cast<T>(rng->NextDouble(static_cast<double>(lo),
                                           static_cast<double>(hi)));
      }
    }
    // Selectivity sweep comes from constants at the range edges and middle.
    for (T constant : {lo, static_cast<T>((lo + hi) / 2), hi}) {
      // Random sub-selection (sorted, unique) for the gather variant.
      SelectionVector sel;
      for (int64_t i = 0; i < n; ++i) {
        if (rng->NextBool()) sel.Append(static_cast<int32_t>(i));
      }
      for (CompareOp op : kOps) {
        SelectionVector expect_dense, expect_sel;
        expect_dense.Append(-7);  // non-empty: appends must preserve prefixes
        expect_sel.Append(-7);
        SelectCompareConstScalar<T>(op, values.data(), n, constant, nullptr,
                                    &expect_dense);
        SelectCompareConstScalar<T>(op, values.data(), sel.size(), constant,
                                    &sel, &expect_sel);
        for (KernelTier tier : SupportedTiers()) {
          SetKernelTier(tier);
          SelectionVector got_dense, got_sel;
          got_dense.Append(-7);
          got_sel.Append(-7);
          SelectCompareConst<T>(op, values.data(), n, constant, nullptr,
                                &got_dense);
          SelectCompareConst<T>(op, values.data(), sel.size(), constant, &sel,
                                &got_sel);
          EXPECT_EQ(got_dense.indices(), expect_dense.indices())
              << KernelTierName(tier) << " op=" << CompareOpToString(op);
          EXPECT_EQ(got_sel.indices(), expect_sel.indices())
              << KernelTierName(tier) << " op=" << CompareOpToString(op);
        }
      }
    }
  }
}

TEST(KernelCompareTest, Int32MatchesReference) {
  Rng rng(1);
  CompareKernelProperty<int32_t>(&rng, -50, 50);
}

TEST(KernelCompareTest, Int64MatchesReference) {
  Rng rng(2);
  CompareKernelProperty<int64_t>(&rng, -1000000000000LL, 1000000000000LL);
}

TEST(KernelCompareTest, Float32MatchesReference) {
  Rng rng(3);
  CompareKernelProperty<float>(&rng, -10.0f, 10.0f);
}

TEST(KernelCompareTest, Float64MatchesReference) {
  Rng rng(4);
  CompareKernelProperty<double>(&rng, -1e6, 1e6);
}

// --- expression-level: AND short-circuit & arithmetic ------------------------

ColumnBatch RandomNumericBatch(Rng* rng, int64_t n) {
  Schema schema{{"a", DataType::kInt32},
                {"b", DataType::kFloat64},
                {"c", DataType::kInt64},
                {"d", DataType::kFloat32}};
  ColumnBatch batch(schema);
  auto a = std::make_shared<Column>(DataType::kInt32);
  auto b = std::make_shared<Column>(DataType::kFloat64);
  auto c = std::make_shared<Column>(DataType::kInt64);
  auto d = std::make_shared<Column>(DataType::kFloat32);
  for (int64_t i = 0; i < n; ++i) {
    a->Append<int32_t>(rng->NextInt32(-100, 100));
    b->Append<double>(rng->NextDouble(-100, 100));
    c->Append<int64_t>(rng->NextInt64(-1000, 1000));
    d->Append<float>(static_cast<float>(rng->NextDouble(1, 100)));
  }
  batch.AddColumn(a);
  batch.AddColumn(b);
  batch.AddColumn(c);
  batch.AddColumn(d);
  batch.SetNumRows(n);
  return batch;
}

TEST(KernelExpressionTest, AndShortCircuitMatchesBoolMaterialization) {
  TierGuard guard;
  Rng rng(11);
  for (int round = 0; round < 30; ++round) {
    ColumnBatch batch = RandomNumericBatch(&rng, rng.NextInt64(0, 500));
    // 2-4 term conjunction over random columns/constants/ops.
    const int terms = static_cast<int>(rng.NextInt32(2, 4));
    ExprPtr expr;
    for (int t = 0; t < terms; ++t) {
      int col = static_cast<int>(rng.NextInt32(0, 3));
      // The float32-column literal is snapped to an exactly-representable
      // float: the selection fast path compares in float while Evaluate
      // widens to double (seed behavior), and the two agree for all inputs
      // only when the literal has no float rounding gap.
      Datum lit = col == 0   ? Datum::Int32(rng.NextInt32(-100, 100))
                  : col == 1 ? Datum::Float64(rng.NextDouble(-100, 100))
                  : col == 2 ? Datum::Int64(rng.NextInt64(-1000, 1000))
                             : Datum::Float64(static_cast<double>(
                                   static_cast<float>(rng.NextDouble(1, 100))));
      CompareOp op = static_cast<CompareOp>(rng.NextInt32(0, 5));
      ExprPtr term = Cmp(op, Col(col), Lit(lit));
      expr = expr == nullptr ? term : And(std::move(expr), std::move(term));
    }
    // Reference: materialized bool column of the whole conjunction.
    ASSERT_OK_AND_ASSIGN(Column bools, expr->Evaluate(batch));
    SelectionVector expect;
    for (int64_t i = 0; i < bools.length(); ++i) {
      if (bools.Value<bool>(i)) expect.Append(static_cast<int32_t>(i));
    }
    for (KernelTier tier : SupportedTiers()) {
      SetKernelTier(tier);
      SelectionVector got;
      ASSERT_OK(expr->EvaluateSelection(batch, &got));
      EXPECT_EQ(got.indices(), expect.indices()) << KernelTierName(tier);
    }
  }
}

TEST(KernelExpressionTest, ArithKernelsBitIdenticalToScalar) {
  TierGuard guard;
  Rng rng(12);
  const ArithOp kOps[] = {ArithOp::kAdd, ArithOp::kSub, ArithOp::kMul,
                          ArithOp::kDiv};
  for (int round = 0; round < 10; ++round) {
    ColumnBatch batch = RandomNumericBatch(&rng, rng.NextInt64(0, 300));
    for (int lhs = 0; lhs < 4; ++lhs) {
      for (int rhs = 0; rhs < 4; ++rhs) {
        for (ArithOp op : kOps) {
          ExprPtr expr = Arith(op, Col(lhs), Col(rhs));
          SetKernelTier(KernelTier::kScalar);
          ASSERT_OK_AND_ASSIGN(Column expect, expr->Evaluate(batch));
          for (KernelTier tier : SupportedTiers()) {
            SetKernelTier(tier);
            ASSERT_OK_AND_ASSIGN(Column got, expr->Evaluate(batch));
            ASSERT_EQ(got.type(), expect.type());
            ASSERT_EQ(got.length(), expect.length());
            EXPECT_EQ(std::memcmp(got.raw_data(), expect.raw_data(),
                                  static_cast<size_t>(got.MemoryBytes())),
                      0)
                << KernelTierName(tier) << " lhs=" << lhs << " rhs=" << rhs;
          }
        }
      }
    }
  }
}

// --- aggregate kernels -------------------------------------------------------

TEST(KernelAggregateTest, BulkAccumulationBitIdenticalToScalar) {
  TierGuard guard;
  Rng rng(13);
  const AggKind kKinds[] = {AggKind::kCount, AggKind::kSum, AggKind::kAvg,
                            AggKind::kMin, AggKind::kMax};
  const DataType kTypes[] = {DataType::kInt32, DataType::kInt64,
                             DataType::kFloat32, DataType::kFloat64};
  for (int round = 0; round < 30; ++round) {
    const int64_t n = rng.NextInt64(0, 500);
    for (DataType type : kTypes) {
      Column col(type);
      for (int64_t i = 0; i < n; ++i) {
        switch (type) {
          case DataType::kInt32:
            col.Append<int32_t>(rng.NextInt32(-1000, 1000));
            break;
          case DataType::kInt64:
            col.Append<int64_t>(rng.NextInt64(-100000, 100000));
            break;
          case DataType::kFloat32:
            col.Append<float>(static_cast<float>(rng.NextDouble(-100, 100)));
            break;
          default:
            col.Append<double>(rng.NextDouble(-100, 100));
            break;
        }
      }
      SelectionVector sel;
      for (int64_t i = 0; i < n; ++i) {
        if (rng.NextBool()) sel.Append(static_cast<int32_t>(i));
      }
      for (AggKind kind : kKinds) {
        SetKernelTier(KernelTier::kScalar);
        AggAccumulator ref_dense(kind, type);
        AggAccumulator ref_sel(kind, type);
        ASSERT_OK(ref_dense.UpdateBatch(col, nullptr, n));
        ASSERT_OK(ref_sel.UpdateBatch(col, sel.data(), sel.size()));
        for (KernelTier tier : SupportedTiers()) {
          SetKernelTier(tier);
          AggAccumulator got_dense(kind, type);
          AggAccumulator got_sel(kind, type);
          ASSERT_OK(got_dense.UpdateBatch(col, nullptr, n));
          ASSERT_OK(got_sel.UpdateBatch(col, sel.data(), sel.size()));
          EXPECT_EQ(got_dense.count(), ref_dense.count());
          EXPECT_TRUE(got_dense.Finalize() == ref_dense.Finalize())
              << KernelTierName(tier) << " kind=" << AggKindToString(kind)
              << " type=" << DataTypeToString(type);
          EXPECT_TRUE(got_sel.Finalize() == ref_sel.Finalize())
              << KernelTierName(tier) << " kind=" << AggKindToString(kind)
              << " (selection)";
          // Merge must also agree after bulk accumulation.
          AggAccumulator merged(kind, type);
          merged.Merge(got_dense);
          merged.Merge(got_sel);
          AggAccumulator ref_merged(kind, type);
          ref_merged.Merge(ref_dense);
          ref_merged.Merge(ref_sel);
          EXPECT_TRUE(merged.Finalize() == ref_merged.Finalize())
              << KernelTierName(tier) << " merge";
        }
      }
    }
  }
}

// --- engine-level determinism ------------------------------------------------

class KernelEngineTest : public testing::TempDirTest {};

TEST_F(KernelEngineTest, QueriesIdenticalAcrossTiersAndThreadCounts) {
  TierGuard guard;
  Rng rng(99);
  const std::string path = Path("t.csv");
  {
    std::ofstream out(path);
    for (int r = 0; r < 2000; ++r) {
      out << rng.NextInt32(0, 1000) << "," << rng.NextInt64(0, 100000) << ","
          << rng.NextDouble(0, 100) << "," << rng.NextInt32(0, 5) << "\n";
    }
  }
  Schema schema{{"c0", DataType::kInt32},
                {"c1", DataType::kInt64},
                {"c2", DataType::kFloat64},
                {"c3", DataType::kInt32}};
  const std::vector<std::string> queries = {
      "SELECT MAX(c1) FROM t WHERE c0 < 500",
      "SELECT COUNT(*), SUM(c2), MIN(c0) FROM t WHERE c2 < 75.0",
      "SELECT c3, SUM(c1), AVG(c2) FROM t WHERE c0 < 800 GROUP BY c3",
  };
  // Reference: scalar tier, serial.
  std::vector<std::string> expect;
  {
    SetKernelTier(KernelTier::kScalar);
    RawEngine engine;
    auto session = engine.OpenSession();
    ASSERT_OK(engine.RegisterCsv("t", path, schema, CsvOptions(), 1));
    PlannerOptions options;
    options.num_threads = 1;
    for (const std::string& sql : queries) {
      ASSERT_OK_AND_ASSIGN(QueryResult result, session->Query(sql, options));
      EXPECT_NE(result.plan_description.find("[kernels=scalar]"),
                std::string::npos)
          << result.plan_description;
      expect.push_back(result.table.ToString(1 << 20));
    }
  }
  for (KernelTier tier : SupportedTiers()) {
    for (int threads : {1, 2, 4}) {
      SetKernelTier(tier);
      RawEngine engine;
      auto session = engine.OpenSession();
      ASSERT_OK(engine.RegisterCsv("t", path, schema, CsvOptions(), 1));
      PlannerOptions options;
      options.num_threads = threads;
      for (size_t q = 0; q < queries.size(); ++q) {
        // Cold + warm (second run uses the positional map / shred cache).
        for (int run = 0; run < 2; ++run) {
          ASSERT_OK_AND_ASSIGN(QueryResult result,
                               session->Query(queries[q], options));
          EXPECT_NE(result.plan_description.find(
                        "[kernels=" + std::string(KernelTierName(tier)) + "]"),
                    std::string::npos)
              << result.plan_description;
          EXPECT_EQ(result.table.ToString(1 << 20), expect[q])
              << KernelTierName(tier) << " threads=" << threads << " run "
              << run;
        }
      }
    }
  }
}

}  // namespace
}  // namespace raw
