#ifndef RAW_SCAN_SHRED_SCAN_H_
#define RAW_SCAN_SHRED_SCAN_H_

#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "scan/access_path.h"
#include "scan/insitu_bin_scan.h"
#include "scan/insitu_csv_scan.h"
#include "scan/fused_pipeline.h"

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

/// RowFetcher running a generated projection kernel per Fetch() call (CSV
/// by-position, binary / REF by-row-index). For CSV, byte positions are
/// resolved through `args.pmap` at fetch time.
class JitRowFetcher : public RowFetcher {
 public:
  /// `args` must describe a selective-mode spec; its row_set is supplied per
  /// Fetch call.
  JitRowFetcher(JitTemplateCache* cache, FusedPipelineArgs args);

  const Schema& fields() const override { return args_.output_schema; }
  StatusOr<std::vector<ColumnPtr>> Fetch(const RowSet& rows) override;

 private:
  JitTemplateCache* cache_;
  FusedPipelineArgs args_;
};

/// RowFetcher using the interpreted access paths (the in-situ baseline for
/// shred experiments).
class InsituRowFetcher : public RowFetcher {
 public:
  /// CSV flavour: by-position via `pmap` from `anchor_column`.
  InsituRowFetcher(const MmapFile* file, CsvScanSpec spec);
  /// Binary flavour: by row index.
  InsituRowFetcher(const BinaryReader* reader, BinScanSpec spec);

  /// Overrides the published field schema (e.g. qualified names); must have
  /// one field per fetched column, matching types.
  void set_fields(Schema fields) { schema_ = std::move(fields); }

  const Schema& fields() const override { return schema_; }
  StatusOr<std::vector<ColumnPtr>> Fetch(const RowSet& rows) override;

 private:
  const MmapFile* csv_file_ = nullptr;
  CsvScanSpec csv_spec_;
  const BinaryReader* bin_reader_ = nullptr;
  BinScanSpec bin_spec_;
  Schema schema_;
  bool is_csv_ = false;
};

/// RowFetcher decorator that chunks big row sets across the thread pool and
/// reassembles the fetched columns in chunk order — the parallel late-scan
/// path. Chunks are contiguous slices of the request, so concatenating the
/// per-chunk results in chunk order reproduces the serial output bit for
/// bit. Small requests (under ~2 chunks) skip the pool entirely.
///
/// The inner fetcher's Fetch must be re-entrant: every fetcher in this
/// module is (each call builds a private scan operator over shared immutable
/// state), which is what makes this decorator safe.
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
