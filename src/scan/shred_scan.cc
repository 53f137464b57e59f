#include "scan/shred_scan.h"

#include <algorithm>
#include <string>

namespace raw {

// --- LateScanOperator --------------------------------------------------------

LateScanOperator::LateScanOperator(OperatorPtr child, RowFetcherPtr fetcher,
                                   std::string row_id_column)
    : child_(std::move(child)),
      fetcher_(std::move(fetcher)),
      row_id_column_(std::move(row_id_column)) {}

Status LateScanOperator::Open() {
  RAW_RETURN_NOT_OK(child_->Open());
  const Schema& in = child_->output_schema();
  kept_columns_.clear();
  row_id_index_ = -1;
  Schema schema;
  for (int c = 0; c < in.num_fields(); ++c) {
    if (!row_id_column_.empty() && in.field(c).name == row_id_column_) {
      row_id_index_ = c;
      continue;  // consumed, not forwarded
    }
    kept_columns_.push_back(c);
    schema.AddField(in.field(c).name, in.field(c).type);
  }
  if (!row_id_column_.empty() && row_id_index_ < 0) {
    return Status::InvalidArgument("late scan: row-id column '" +
                                   row_id_column_ + "' not found");
  }
  for (const Field& f : fetcher_->fields().fields()) {
    schema.AddField(f.name, f.type);
  }
  RAW_RETURN_NOT_OK(schema.Validate());
  output_schema_ = std::move(schema);
  return Status::OK();
}

StatusOr<ColumnBatch> LateScanOperator::Next() {
  ColumnBatch batch(child_->output_schema());
  while (true) {
    RAW_ASSIGN_OR_RETURN(batch, child_->Next());
    if (batch.end_of_stream()) return ColumnBatch::EndOfStream(output_schema_);
    if (!batch.empty()) break;  // skip zero-row data batches
  }

  RowSet rows;
  if (row_id_index_ >= 0) {
    const Column& ids = *batch.column(row_id_index_);
    rows.ids.reserve(static_cast<size_t>(batch.num_rows()));
    for (int64_t i = 0; i < batch.num_rows(); ++i) {
      rows.ids.push_back(ids.Value<int64_t>(i));
    }
  } else {
    if (!batch.has_row_ids()) {
      return Status::InvalidArgument(
          "late scan: child batch carries no row ids");
    }
    rows.ids = batch.row_ids();
  }

  RAW_ASSIGN_OR_RETURN(std::vector<ColumnPtr> fetched, fetcher_->Fetch(rows));
  values_fetched_ +=
      batch.num_rows() * static_cast<int64_t>(fetched.size());

  ColumnBatch out(output_schema_);
  for (int c : kept_columns_) out.AddColumn(batch.column(c));
  for (ColumnPtr& col : fetched) out.AddColumn(std::move(col));
  out.SetNumRows(batch.num_rows());
  if (batch.has_row_ids()) out.SetRowIds(batch.row_ids());
  return out;
}

// --- ScanRowFetcher ----------------------------------------------------------

ScanRowFetcher::ScanRowFetcher(Schema fields, RowSetScan scan)
    : fields_(std::move(fields)), scan_(std::move(scan)) {}

StatusOr<std::vector<ColumnPtr>> ScanRowFetcher::Fetch(const RowSet& rows) {
  std::vector<ColumnPtr> out;
  if (rows.empty()) {
    for (const Field& f : fields_.fields()) {
      out.push_back(std::make_shared<Column>(f.type));
    }
    return out;
  }
  OperatorPtr scan = scan_(rows);
  RAW_RETURN_NOT_OK(scan->Open());
  RAW_ASSIGN_OR_RETURN(ColumnBatch batch, scan->Next());
  if (batch.num_rows() != rows.size()) {
    return Status::Internal("late fetch of " + std::to_string(rows.size()) +
                            " rows produced " +
                            std::to_string(batch.num_rows()));
  }
  for (int c = 0; c < batch.num_columns(); ++c) out.push_back(batch.column(c));
  return out;
}

// --- ParallelRowFetcher ------------------------------------------------------

ParallelRowFetcher::ParallelRowFetcher(RowFetcherPtr inner, ThreadPool* pool,
                                       int num_threads,
                                       int64_t min_chunk_rows)
    : inner_(std::move(inner)),
      pool_(pool),
      num_threads_(num_threads),
      min_chunk_rows_(std::max<int64_t>(min_chunk_rows, 1)) {}

StatusOr<std::vector<ColumnPtr>> ParallelRowFetcher::Fetch(
    const RowSet& rows) {
  const int64_t n = rows.size();
  if (pool_ == nullptr || num_threads_ <= 1 || n < 2 * min_chunk_rows_) {
    return inner_->Fetch(rows);
  }
  const int64_t target = static_cast<int64_t>(num_threads_) * 2;
  const int64_t chunk = std::max(min_chunk_rows_, (n + target - 1) / target);
  const int64_t num_chunks = (n + chunk - 1) / chunk;

  std::vector<std::vector<ColumnPtr>> partials(
      static_cast<size_t>(num_chunks));
  const bool has_positions = !rows.positions.empty();
  Status status = pool_->ParallelFor(
      num_chunks, num_threads_, [&](int64_t c) -> Status {
        const int64_t first = c * chunk;
        const int64_t count = std::min(chunk, n - first);
        RowSet slice;
        slice.ids.assign(rows.ids.begin() + first,
                         rows.ids.begin() + first + count);
        if (has_positions) {
          slice.positions.assign(rows.positions.begin() + first,
                                 rows.positions.begin() + first + count);
        }
        RAW_ASSIGN_OR_RETURN(partials[static_cast<size_t>(c)],
                             inner_->Fetch(slice));
        return Status::OK();
      });
  RAW_RETURN_NOT_OK(status);

  // Order-preserving reassembly: chunks are contiguous slices, so appending
  // per-chunk columns in chunk order rebuilds exactly the serial result.
  std::vector<ColumnPtr> out;
  const Schema& schema = fields();
  for (int f = 0; f < schema.num_fields(); ++f) {
    auto col = std::make_shared<Column>(schema.field(f).type);
    col->Reserve(n);
    for (const std::vector<ColumnPtr>& part : partials) {
      if (f >= static_cast<int>(part.size())) {
        return Status::Internal("parallel fetch chunk shape mismatch");
      }
      RAW_RETURN_NOT_OK(col->AppendColumn(*part[static_cast<size_t>(f)]));
    }
    out.push_back(std::move(col));
  }
  return out;
}

// --- CachedColumnFetcher -----------------------------------------------------

CachedColumnFetcher::CachedColumnFetcher(Schema fields,
                                         std::vector<ColumnPtr> columns)
    : schema_(std::move(fields)), columns_(std::move(columns)) {}

StatusOr<std::vector<ColumnPtr>> CachedColumnFetcher::Fetch(
    const RowSet& rows) {
  std::vector<ColumnPtr> out;
  out.reserve(columns_.size());
  for (const ColumnPtr& col : columns_) {
    out.push_back(std::make_shared<Column>(
        col->Gather(rows.ids.data(), rows.size())));
  }
  return out;
}

}  // namespace raw
