#include "workload/table_spec.h"

#include "common/hash.h"
#include "common/rng.h"

namespace raw {

TableSpec TableSpec::UniformInt32(std::string name, int num_columns,
                                  int64_t rows, uint64_t seed) {
  TableSpec spec;
  spec.name = std::move(name);
  spec.rows = rows;
  spec.seed = seed;
  spec.columns.assign(static_cast<size_t>(num_columns), ColumnSpec{});
  return spec;
}

TableSpec TableSpec::Mixed120(std::string name, int64_t rows, uint64_t seed) {
  TableSpec spec;
  spec.name = std::move(name);
  spec.rows = rows;
  spec.seed = seed;
  for (int c = 0; c < 120; ++c) {
    ColumnSpec col;
    // Even columns int32, odd columns float64; the paper's predicate column
    // (col 0 here) stays an integer and the aggregated column is a float.
    col.type = (c % 2 == 0) ? DataType::kInt32 : DataType::kFloat64;
    spec.columns.push_back(col);
  }
  return spec;
}

Schema TableSpec::ToSchema() const {
  Schema schema;
  for (size_t c = 0; c < columns.size(); ++c) {
    schema.AddField("col" + std::to_string(c), columns[c].type);
  }
  return schema;
}

Datum TableSpec::SelectivityLiteral(int column, double fraction) const {
  const ColumnSpec& col = columns[static_cast<size_t>(column)];
  double span = static_cast<double>(col.max_value - col.min_value);
  double x = static_cast<double>(col.min_value) + fraction * span;
  switch (col.type) {
    case DataType::kInt32:
      return Datum::Int32(static_cast<int32_t>(x));
    case DataType::kInt64:
      return Datum::Int64(static_cast<int64_t>(x));
    case DataType::kFloat32:
      return Datum::Float32(static_cast<float>(x));
    default:
      return Datum::Float64(x);
  }
}

Datum TableDataSource::Value(int64_t row, int column) const {
  const ColumnSpec& col = spec_.columns[static_cast<size_t>(column)];
  // Stateless per-cell randomness: hash (seed, row, column) into an RNG
  // stream so any cell is computable without generating its predecessors.
  uint64_t cell_seed = MixHash64(spec_.seed ^
                                 MixHash64(static_cast<uint64_t>(row) * 0x9e37u +
                                           static_cast<uint64_t>(column)));
  Rng rng(cell_seed);
  switch (col.type) {
    case DataType::kInt32:
      return Datum::Int32(rng.NextInt32(static_cast<int32_t>(col.min_value),
                                        static_cast<int32_t>(col.max_value)));
    case DataType::kInt64:
      return Datum::Int64(rng.NextInt64(col.min_value, col.max_value));
    case DataType::kFloat32:
      return Datum::Float32(static_cast<float>(
          rng.NextDouble(static_cast<double>(col.min_value),
                         static_cast<double>(col.max_value))));
    case DataType::kFloat64:
      return Datum::Float64(rng.NextDouble(
          static_cast<double>(col.min_value),
          static_cast<double>(col.max_value)));
    case DataType::kBool:
      return Datum::Bool(rng.NextBool());
    case DataType::kString: {
      std::string value = "s";
      value += std::to_string(rng.NextBelow(1000000));
      return Datum::String(std::move(value));
    }
  }
  return Datum();
}

void TableDataSource::Row(int64_t row, std::vector<Datum>* out) const {
  out->clear();
  out->reserve(spec_.columns.size());
  for (size_t c = 0; c < spec_.columns.size(); ++c) {
    out->push_back(Value(row, static_cast<int>(c)));
  }
}

std::vector<int64_t> ShuffledPermutation(int64_t rows, uint64_t seed) {
  std::vector<int64_t> perm(static_cast<size_t>(rows));
  for (int64_t i = 0; i < rows; ++i) perm[static_cast<size_t>(i)] = i;
  Rng rng(seed);
  for (int64_t i = rows - 1; i > 0; --i) {
    int64_t j = static_cast<int64_t>(
        rng.NextBelow(static_cast<uint64_t>(i + 1)));
    std::swap(perm[static_cast<size_t>(i)], perm[static_cast<size_t>(j)]);
  }
  return perm;
}

}  // namespace raw
