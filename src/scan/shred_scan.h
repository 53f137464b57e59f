#ifndef RAW_SCAN_SHRED_SCAN_H_
#define RAW_SCAN_SHRED_SCAN_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "scan/access_path.h"

namespace raw {

/// The "placeholder" operator of §3 realized: a scan operator pushed *up* the
/// query plan. For every child batch it fetches additional raw-file fields,
/// but only for the rows that survived the operators below — producing
/// column *shreds* instead of full columns (§5.1, Figure 4).
///
/// Row provenance comes either from the batch's row ids (the pipelined side
/// of a join, or a plain filtered scan) or from an explicit int64 column
/// (HashJoinOperator::kBuildRowIdColumn — the pipeline-breaking side).
class LateScanOperator : public Operator {
 public:
  /// `row_id_column` empty => use batch row ids. When set, the named column
  /// provides row ids and is dropped from the output.
  LateScanOperator(OperatorPtr child, RowFetcherPtr fetcher,
                   std::string row_id_column = "");

  const Schema& output_schema() const override { return output_schema_; }
  Status Open() override;
  StatusOr<ColumnBatch> Next() override;
  Status Close() override { return child_->Close(); }
  std::string name() const override { return "LateScan"; }

  /// Total raw-file values fetched (the number that shreds keep small).
  int64_t values_fetched() const { return values_fetched_; }

 private:
  OperatorPtr child_;
  RowFetcherPtr fetcher_;
  std::string row_id_column_;
  int row_id_index_ = -1;
  Schema output_schema_;
  std::vector<int> kept_columns_;
  int64_t values_fetched_ = 0;
};

/// The format's scan over one explicit row set: a late fetch is the same
/// scan operator pushed up the plan, told which rows to visit.
using RowSetScan = std::function<OperatorPtr(const RowSet& rows)>;

/// The one RowFetcher over raw files: each Fetch builds the format's scan
/// for the requested rows, opens it and takes its single batch. The factory
/// captures only immutable pinned state (file, reader, map, kernel spec), so
/// Fetch is re-entrant. An empty row set returns empty typed columns without
/// opening a scan; a scan that returns other than `rows.size()` rows is an
/// internal error.
class ScanRowFetcher : public RowFetcher {
 public:
  ScanRowFetcher(Schema fields, RowSetScan scan);

  const Schema& fields() const override { return fields_; }
  StatusOr<std::vector<ColumnPtr>> Fetch(const RowSet& rows) override;

 private:
  Schema fields_;
  RowSetScan scan_;
};

/// A RowSetScan over `ScanOp(source, spec)` for every scan whose spec takes
/// explicit rows (`row_set`, read in one batch of `batch_rows`): the
/// interpreted CSV, binary, JSONL and REF scans, and the generated kernels
/// (source = the template cache, spec = FusedPipelineArgs).
template <typename ScanOp, typename Source, typename Spec>
RowSetScan ScanOverRows(Source* source, Spec spec) {
  return [source, spec = std::move(spec)](const RowSet& rows) -> OperatorPtr {
    Spec copy = spec;
    copy.row_set = rows;
    copy.batch_rows = rows.size();
    return std::make_unique<ScanOp>(source, std::move(copy));
  };
}

/// RowFetcher decorator that chunks big row sets across the thread pool and
/// reassembles the fetched columns in chunk order — the parallel late-scan
/// path. Chunks are contiguous slices of the request, so concatenating the
/// per-chunk results in chunk order reproduces the serial output bit for
/// bit. Small requests (under ~2 chunks) skip the pool entirely.
///
/// The inner fetcher's Fetch must be re-entrant: ScanRowFetcher is (each
/// call builds a private scan operator over shared immutable state), which
/// is what makes this decorator safe.
class ParallelRowFetcher : public RowFetcher {
 public:
  static constexpr int64_t kDefaultMinChunkRows = 2048;

  ParallelRowFetcher(RowFetcherPtr inner, ThreadPool* pool, int num_threads,
                     int64_t min_chunk_rows = kDefaultMinChunkRows);

  const Schema& fields() const override { return inner_->fields(); }
  StatusOr<std::vector<ColumnPtr>> Fetch(const RowSet& rows) override;

 private:
  RowFetcherPtr inner_;
  ThreadPool* pool_;
  int num_threads_;
  int64_t min_chunk_rows_;
};

/// RowFetcher gathering from already-materialized full columns (cache hits:
/// the shred pool or a loaded table). `columns` must be full-length.
class CachedColumnFetcher : public RowFetcher {
 public:
  CachedColumnFetcher(Schema fields, std::vector<ColumnPtr> columns);

  const Schema& fields() const override { return schema_; }
  StatusOr<std::vector<ColumnPtr>> Fetch(const RowSet& rows) override;

 private:
  Schema schema_;
  std::vector<ColumnPtr> columns_;
};

}  // namespace raw

#endif  // RAW_SCAN_SHRED_SCAN_H_
