#include "engine/planner.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>

#include "common/kernels.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "engine/cost_model.h"
#include "engine/executor.h"
#include "engine/formats/driver_util.h"

#include "columnar/filter.h"
#include "columnar/hash_group_by.h"
#include "columnar/hash_join.h"
#include "columnar/project.h"
#include "jit/pipeline_spec.h"
#include "scan/fused_pipeline.h"
#include "scan/shred_scan.h"

namespace raw {

std::string QualifiedName(const std::string& table,
                          const std::string& column) {
  return table + "." + column;
}

namespace {

// =============================================================================
// Small plan-glue operators
// =============================================================================
// Format-specific plan glue (scan construction, fetchers, publish operators)
// lives with the format drivers (engine/formats/); what remains here is the
// format-agnostic part: limits, cache wiring, and subplan assembly.

/// LIMIT n.
class LimitOperator : public Operator {
 public:
  LimitOperator(OperatorPtr child, int64_t limit)
      : child_(std::move(child)), limit_(limit) {}

  const Schema& output_schema() const override {
    return child_->output_schema();
  }
  Status Open() override {
    emitted_ = 0;
    return child_->Open();
  }
  StatusOr<ColumnBatch> Next() override {
    if (emitted_ >= limit_) {
      return ColumnBatch::EndOfStream(child_->output_schema());
    }
    RAW_ASSIGN_OR_RETURN(ColumnBatch batch, child_->Next());
    if (batch.end_of_stream() || batch.empty()) return batch;
    if (emitted_ + batch.num_rows() > limit_) {
      SelectionVector head;
      for (int64_t i = 0; i < limit_ - emitted_; ++i) {
        head.Append(static_cast<int32_t>(i));
      }
      batch = batch.Filter(head);
    }
    emitted_ += batch.num_rows();
    return batch;
  }
  Status Close() override { return child_->Close(); }
  std::string name() const override { return "Limit"; }

 private:
  OperatorPtr child_;
  int64_t limit_;
  int64_t emitted_ = 0;
};

/// Emits a set of full, already-materialized columns (cache hits) with
/// sequential row ids, in batches of `batch_rows` like every raw scan: a
/// single table-sized batch would make each operator above it (filters,
/// late fetches) allocate table-sized buffers. A column that fits one batch
/// goes out zero-copy.
class CachedColumnsScanOperator : public Operator {
 public:
  CachedColumnsScanOperator(Schema schema, std::vector<ColumnPtr> columns,
                            int64_t batch_rows)
      : schema_(std::move(schema)),
        columns_(std::move(columns)),
        batch_rows_(std::max<int64_t>(batch_rows, 1)) {}

  const Schema& output_schema() const override { return schema_; }
  Status Open() override {
    next_row_ = 0;
    return Status::OK();
  }
  StatusOr<ColumnBatch> Next() override {
    const int64_t rows = columns_.empty() ? 0 : columns_[0]->length();
    if (next_row_ >= rows) return ColumnBatch::EndOfStream(schema_);
    const int64_t count = std::min(batch_rows_, rows - next_row_);
    ColumnBatch out(schema_);
    for (const ColumnPtr& col : columns_) {
      out.AddColumn(count == rows ? col
                                  : std::make_shared<Column>(
                                        col->Slice(next_row_, count)));
    }
    out.SetNumRows(count);
    std::vector<int64_t> ids(static_cast<size_t>(count));
    std::iota(ids.begin(), ids.end(), next_row_);
    out.SetRowIds(std::move(ids));
    next_row_ += count;
    return out;
  }
  std::string name() const override { return "CachedColumnsScan"; }

 private:
  Schema schema_;
  std::vector<ColumnPtr> columns_;
  int64_t batch_rows_;
  int64_t next_row_ = 0;
};

/// Accumulates the values flowing out of a raw scan and registers them in the
/// shred cache at Close() — "RAW preserves a pool of column shreds populated
/// as a side-effect of previous queries" (§3). Also discovers the table's
/// row count on full scans. Every publish goes through the table entry's
/// version guard: a plan that pinned a since-replaced file generation
/// publishes nothing. The cache takes the accumulated columns over instead
/// of copying them, columns it already holds in full are not accumulated,
/// and a contiguous full scan keeps no row ids at all.
class CacheInsertOperator : public Operator {
 public:
  struct Mapping {
    int output_index;  // column in the child's output
    int table_column;  // column in the table's schema
  };

  /// `full_scan`: the child emits every row of the table once drained, so a
  /// contiguous drain is a full column and its length the row count.
  /// `version`: the file generation the plan pinned. `expected_rows`: the
  /// rows a full scan will emit when known (-1 otherwise), to size buffers.
  CacheInsertOperator(OperatorPtr child, ShredCache* cache, TableEntry* entry,
                      int64_t version, std::vector<Mapping> mappings,
                      bool full_scan, int64_t expected_rows)
      : child_(std::move(child)),
        cache_(cache),
        entry_(entry),
        version_(version),
        mappings_(std::move(mappings)),
        full_scan_(full_scan),
        expected_rows_(expected_rows) {}

  const Schema& output_schema() const override {
    return child_->output_schema();
  }
  Status Open() override {
    RAW_RETURN_NOT_OK(child_->Open());
    active_.clear();
    accumulators_.clear();
    for (const Mapping& m : mappings_) {
      if (cache_->ContainsFull(entry_->info.name, m.table_column, version_)) {
        continue;
      }
      auto column = std::make_shared<Column>(
          child_->output_schema().field(m.output_index).type);
      if (full_scan_ && expected_rows_ > 0) column->Reserve(expected_rows_);
      active_.push_back(m);
      accumulators_.push_back(std::move(column));
    }
    row_ids_.clear();
    rows_ = 0;
    contiguous_ = true;
    drained_ = false;
    return Status::OK();
  }
  StatusOr<ColumnBatch> Next() override {
    RAW_ASSIGN_OR_RETURN(ColumnBatch batch, child_->Next());
    if (batch.end_of_stream()) {
      drained_ = true;
      return batch;
    }
    if (batch.has_row_ids()) {
      NoteRowIds(batch.row_ids());
      for (size_t i = 0; i < active_.size(); ++i) {
        RAW_RETURN_NOT_OK(accumulators_[i]->AppendColumn(
            *batch.column(active_[i].output_index)));
      }
    }
    return batch;
  }
  Status Close() override {
    Status published = Status::OK();
    if (drained_ && rows_ > 0) {
      const bool full_column = full_scan_ && contiguous_;
      std::shared_ptr<const std::vector<int64_t>> row_ids;
      if (!full_column) {
        row_ids_.shrink_to_fit();
        row_ids =
            std::make_shared<const std::vector<int64_t>>(std::move(row_ids_));
      }
      for (ColumnPtr& column : accumulators_) column->ShrinkToFit();
      entry_->PublishIfCurrent(version_, [&] {
        for (size_t i = 0; i < active_.size() && published.ok(); ++i) {
          published = cache_->Insert(entry_->info.name,
                                     active_[i].table_column, row_ids,
                                     std::move(accumulators_[i]), version_);
        }
        if (full_column) entry_->SetRowCountIfUnknown(rows_);
      });
    }
    // Close may run twice (explicitly, then at destruction): publish once.
    drained_ = false;
    active_.clear();
    accumulators_.clear();
    row_ids_.clear();
    Status closed = child_->Close();
    return published.ok() ? closed : published;
  }
  std::string name() const override { return "CacheInsert"; }

 private:
  /// Tracks the drained row ids. A full scan stays id-free while its ids run
  /// 0, 1, 2, ...; the first gap materializes the run so far.
  void NoteRowIds(const std::vector<int64_t>& ids) {
    if (full_scan_ && contiguous_) {
      for (size_t i = 0; i < ids.size(); ++i) {
        if (ids[i] != rows_ + static_cast<int64_t>(i)) {
          contiguous_ = false;
          break;
        }
      }
      if (!contiguous_ && !active_.empty()) {
        row_ids_.resize(static_cast<size_t>(rows_));
        std::iota(row_ids_.begin(), row_ids_.end(), int64_t{0});
      }
    }
    if (!(full_scan_ && contiguous_) && !active_.empty()) {
      row_ids_.insert(row_ids_.end(), ids.begin(), ids.end());
    }
    rows_ += static_cast<int64_t>(ids.size());
  }

  OperatorPtr child_;
  ShredCache* cache_;
  TableEntry* entry_;
  int64_t version_;
  std::vector<Mapping> mappings_;
  bool full_scan_;
  int64_t expected_rows_;
  std::vector<Mapping> active_;  // mappings the cache lacks in full
  std::vector<ColumnPtr> accumulators_;  // parallel to active_
  std::vector<int64_t> row_ids_;
  int64_t rows_ = 0;
  bool contiguous_ = true;
  bool drained_ = false;
};

/// RowFetcher that consults the shred cache first (shreds of the file
/// generation the plan pinned, `version`) and falls back to a raw fetcher on
/// a subsumption miss (all-or-nothing per fetch).
class CacheAwareFetcher : public RowFetcher {
 public:
  CacheAwareFetcher(ShredCache* cache, std::string table, int64_t version,
                    std::vector<int> table_columns, RowFetcherPtr inner)
      : cache_(cache),
        table_(std::move(table)),
        version_(version),
        table_columns_(std::move(table_columns)),
        inner_(std::move(inner)) {}

  const Schema& fields() const override { return inner_->fields(); }

  StatusOr<std::vector<ColumnPtr>> Fetch(const RowSet& rows) override {
    if (cache_ != nullptr) {
      std::vector<ColumnPtr> cached;
      bool all_hit = true;
      for (int col : table_columns_) {
        auto hit = cache_->Lookup(table_, col, rows.ids, version_);
        if (!hit.ok()) {
          all_hit = false;
          break;
        }
        cached.push_back(std::move(hit).value());
      }
      if (all_hit) return cached;
    }
    return inner_->Fetch(rows);
  }

 private:
  ShredCache* cache_;
  std::string table_;
  int64_t version_;
  std::vector<int> table_columns_;
  RowFetcherPtr inner_;
};

// =============================================================================
// Planning context and helpers
// =============================================================================

/// Per-query planning state: tables map to their FormatScanContext — the
/// per-(query, table) snapshot threaded through every FormatDriver hook.
struct BuildCtx {
  JitTemplateCache* jit;
  ShredCache* shreds;
  const PlannerOptions* opts;
  std::ostringstream* desc;
  int num_threads = 1;  // resolved from opts->num_threads once per plan
  std::map<TableEntry*, FormatScanContext>* tables = nullptr;
  ScanHealth* health = nullptr;  // owned by the PhysicalPlan under build

  /// Adopts a table's pinned context (Catalog::Pin took the snapshot the
  /// whole plan reads, whatever other sessions publish, reset or reopen
  /// meanwhile) and fills in the per-plan fields.
  void Adopt(FormatScanContext pinned) {
    TableEntry* entry = pinned.entry;
    FormatScanContext& tc = (*tables)[entry] = std::move(pinned);
    tc.opts = opts;
    tc.jit = jit;
    tc.num_threads = num_threads;
    tc.desc = desc;
    tc.health = health;
    // One scan tick per (planned query, table).
    if (opts->count_accesses) entry->NoteScan();
  }

  /// The context adopted for `entry`.
  FormatScanContext& Ctx(TableEntry* entry) { return tables->at(entry); }
};

/// Registered driver for the entry's format (annotated NotFound otherwise —
/// normally unreachable past Catalog::Register, which validates this).
StatusOr<const FormatDriver*> DriverFor(const TableEntry& entry) {
  return FormatRegistry::Global().Require(entry.info.format);
}

std::vector<int> SortedUnique(std::vector<int> v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

/// Ensures the DBMS baseline copy exists (loads every column once, shared
/// across sessions) and snapshots it into the table context.
Status EnsureLoaded(BuildCtx& ctx, FormatScanContext& tc) {
  if (tc.loaded != nullptr) return Status::OK();
  double load_seconds = 0;
  RAW_ASSIGN_OR_RETURN(tc.loaded, tc.entry->EnsureLoaded(tc, &load_seconds));
  tc.row_count = tc.loaded->num_rows();
  if (load_seconds > 0) {
    (*ctx.desc) << "[load " << tc.entry->info.name << " " << load_seconds
                << "s] ";
  }
  return Status::OK();
}

/// Builds the raw-file scan for `cols` of the context's table by dispatching
/// to its format driver (no cache involvement). Every driver's BuildScan is
/// a full scan today; the out-param stays for cache bookkeeping.
StatusOr<OperatorPtr> BuildRawScan(BuildCtx& ctx, FormatScanContext& tc,
                                   const std::vector<int>& cols,
                                   bool* full_scan) {
  *full_scan = true;
  RAW_ASSIGN_OR_RETURN(const FormatDriver* driver, DriverFor(*tc.entry));
  (*ctx.desc) << "[format=" << driver->name() << "] ";
  Schema qualified = QualifiedSchema(*tc.entry, cols);
  return driver->BuildScan(tc, cols, qualified);
}

/// Builds the bottom-of-plan scan for `cols`, consulting the shred cache and
/// the DBMS-loaded copy, and wiring cache population.
StatusOr<OperatorPtr> BuildBaseScan(BuildCtx& ctx, FormatScanContext& tc,
                                    std::vector<int> cols) {
  cols = SortedUnique(std::move(cols));
  TableEntry* entry = tc.entry;
  const TableInfo& info = entry->info;
  const PlannerOptions& opts = *ctx.opts;
  if (opts.count_accesses) entry->NoteColumnAccesses(cols);

  if (opts.access_path == AccessPathKind::kLoaded) {
    RAW_RETURN_NOT_OK(EnsureLoaded(ctx, tc));
    // Scan only the needed columns of the loaded table, renamed to their
    // qualified form (the scan output is already in `cols` order).
    OperatorPtr scan = tc.loaded->CreateScan(opts.batch_rows, cols);
    std::vector<int> identity(cols.size());
    std::vector<std::string> names;
    for (size_t i = 0; i < cols.size(); ++i) {
      identity[i] = static_cast<int>(i);
      names.push_back(
          QualifiedName(info.name, info.schema.field(cols[i]).name));
    }
    return OperatorPtr(std::make_unique<SelectColumnsOperator>(
        std::move(scan), std::move(identity), std::move(names)));
  }

  // Partition into cache-served full columns and raw columns. When this
  // query holds a (not yet wired) adaptive-state build claim, skip the
  // cache so the raw scan — and with it the build the late scans of this
  // very plan rely on — is guaranteed to run.
  std::vector<int> cached_cols, raw_cols;
  std::vector<ColumnPtr> cached_values;
  const bool must_run_raw_scan = tc.HoldsUnwiredBuildClaim();
  if (opts.use_shred_cache && !must_run_raw_scan) {
    for (int c : cols) {
      auto hit = ctx.shreds->LookupFull(info.name, c, tc.version);
      if (hit.ok()) {
        cached_cols.push_back(c);
        cached_values.push_back(std::move(hit).value());
      } else {
        raw_cols.push_back(c);
      }
    }
  } else {
    raw_cols = cols;
  }

  if (raw_cols.empty() && !cached_cols.empty()) {
    (*ctx.desc) << "[cache-scan " << info.name << "] ";
    return OperatorPtr(std::make_unique<CachedColumnsScanOperator>(
        QualifiedSchema(*entry, cached_cols), std::move(cached_values),
        opts.batch_rows));
  }

  bool full_scan = true;
  RAW_ASSIGN_OR_RETURN(OperatorPtr op,
                       BuildRawScan(ctx, tc, raw_cols, &full_scan));

  if (opts.populate_shred_cache) {
    std::vector<CacheInsertOperator::Mapping> mappings;
    for (size_t i = 0; i < raw_cols.size(); ++i) {
      mappings.push_back(
          CacheInsertOperator::Mapping{static_cast<int>(i), raw_cols[i]});
    }
    op = std::make_unique<CacheInsertOperator>(
        std::move(op), ctx.shreds, entry, tc.version, std::move(mappings),
        full_scan, tc.row_count);
  }

  if (!cached_cols.empty()) {
    (*ctx.desc) << "[cache-attach " << info.name << "] ";
    auto fetcher = std::make_unique<CachedColumnFetcher>(
        QualifiedSchema(*entry, cached_cols), std::move(cached_values));
    op = std::make_unique<LateScanOperator>(std::move(op), std::move(fetcher));
  }
  return op;
}

/// Builds a cache-aware late-scan fetcher for `cols` of the context's table:
/// the format driver supplies the raw fetcher, the planner adds the generic
/// parallel and cache-aware wrappers.
StatusOr<RowFetcherPtr> BuildFetcher(BuildCtx& ctx, FormatScanContext& tc,
                                     std::vector<int> cols) {
  cols = SortedUnique(std::move(cols));
  const PlannerOptions& opts = *ctx.opts;
  if (opts.count_accesses) tc.entry->NoteColumnAccesses(cols);
  Schema qualified = QualifiedSchema(*tc.entry, cols);
  RAW_ASSIGN_OR_RETURN(const FormatDriver* driver, DriverFor(*tc.entry));
  RAW_ASSIGN_OR_RETURN(RowFetcherPtr inner,
                       driver->BuildFetcher(tc, cols, qualified));
  // Big row sets fan out over the pool (order-preserving chunks); the cache
  // wrapper sits outside so a subsuming shred still answers in one lookup.
  if (ctx.num_threads > 1) {
    inner = std::make_unique<ParallelRowFetcher>(
        std::move(inner), ThreadPool::Shared(), ctx.num_threads);
    (*ctx.desc) << "[parallel-fetch x" << ctx.num_threads << "] ";
  }
  if (!opts.use_shred_cache) return inner;
  return RowFetcherPtr(std::make_unique<CacheAwareFetcher>(
      ctx.shreds, tc.entry->info.name, tc.version, cols, std::move(inner)));
}

// =============================================================================
// Pipeline fusion
// =============================================================================

/// Column types a fused pipeline kernel can read and compare.
bool FusableColumnType(DataType type) {
  return type == DataType::kInt32 || type == DataType::kInt64 ||
         type == DataType::kFloat32 || type == DataType::kFloat64;
}

/// Canonicalizes a predicate literal to the column's comparison type with
/// the coercion CompareExpr::TryConstCompareKernel applies (CoerceLiteral),
/// so the generated compare is bit-identical to the interpreted typed
/// kernel. Returns false when that kernel would not handle the predicate (an
/// inexact literal compares widened instead): the pipeline stays
/// interpreted.
bool CanonicalizeFusedLiteral(DataType col_type, const Datum& lit,
                              Datum* out) {
  StatusOr<Datum> coerced = CoerceLiteral(lit, col_type);
  if (!coerced.ok() || coerced->type() != col_type) return false;
  // Non-finite literals stay interpreted: fused compares are only checked
  // bit-exact against the typed kernel on finite values.
  if ((col_type == DataType::kFloat32 &&
       !std::isfinite(coerced->float32_value())) ||
      (col_type == DataType::kFloat64 &&
       !std::isfinite(coerced->float64_value()))) {
    return false;
  }
  *out = std::move(coerced).value();
  return true;
}

/// Whether partials of `kind` merge order-insensitively. COUNT/MIN/MAX and
/// integer SUM are exact under any morsel split; float SUM and AVG depend on
/// addition order, so they only fuse single-threaded (where one morsel folds
/// in file order, bit-identical to the interpreted operator).
bool FusedAggMergeable(AggKind kind, DataType input_type) {
  switch (kind) {
    case AggKind::kCount:
    case AggKind::kMin:
    case AggKind::kMax:
      return true;
    case AggKind::kSum:
      return input_type == DataType::kInt32 || input_type == DataType::kInt64;
    case AggKind::kAvg:
      return false;
  }
  return false;
}

/// Attempts to plan the (single-table, non-grouped) query as one fused
/// scan→filter→project/aggregate JIT pipeline. Returns a null operator when
/// any eligibility gate fails or the table's format driver has no fusion
/// plug-in for its current state — the caller then builds the interpreted
/// subplan. On success the returned tree replaces the scan, filter, and
/// project/aggregate stages (LIMIT still applies on top).
StatusOr<OperatorPtr> TryPlanFusedPipeline(BuildCtx& ctx, const QuerySpec& q,
                                           TableEntry* entry,
                                           const std::vector<int>& pred_cols,
                                           const std::vector<int>& agg_inputs,
                                           const std::vector<int>& proj_inputs) {
  const PlannerOptions& opts = *ctx.opts;
  if (opts.jit_fusion == JitFusion::kOff) return OperatorPtr();
  // Fused kernels fail hard on the first malformed value; only the
  // interpreted scan path can honor skip / null-fill row policies.
  if (opts.malformed_row_policy != MalformedRowPolicy::kFail) {
    return OperatorPtr();
  }
  if (opts.access_path != AccessPathKind::kJit) return OperatorPtr();
  if (ctx.jit == nullptr || !ctx.jit->compiler_available()) {
    return OperatorPtr();
  }
  if (!q.group_by.empty()) return OperatorPtr();
  const bool aggregate = q.is_aggregate();
  if (!aggregate && q.projections.empty()) return OperatorPtr();
  const Schema& schema = entry->info.schema;

  // Union of touched table columns, ascending — the PipelineSpec input
  // order. COUNT(*)-only queries touch no column and stay interpreted (a
  // fused kernel needs at least one input to drive its loop).
  std::vector<int> cols = pred_cols;
  for (int c : agg_inputs) {
    if (c >= 0) cols.push_back(c);
  }
  if (!aggregate) {
    for (int c : proj_inputs) cols.push_back(c);
  }
  cols = SortedUnique(std::move(cols));
  if (cols.empty()) return OperatorPtr();
  for (int c : cols) {
    if (!FusableColumnType(schema.field(c).type)) return OperatorPtr();
  }
  auto input_of = [&](int col) {
    return static_cast<int>(std::lower_bound(cols.begin(), cols.end(), col) -
                            cols.begin());
  };

  std::vector<PipelinePredicate> preds;
  for (size_t i = 0; i < q.predicates.size(); ++i) {
    PipelinePredicate p;
    p.input = input_of(pred_cols[i]);
    p.op = q.predicates[i].op;
    if (!CanonicalizeFusedLiteral(schema.field(pred_cols[i]).type,
                                  q.predicates[i].literal, &p.literal)) {
      return OperatorPtr();
    }
    preds.push_back(std::move(p));
  }

  std::vector<PipelineAgg> aggs;
  if (aggregate) {
    for (size_t i = 0; i < q.aggregates.size(); ++i) {
      PipelineAgg a;
      a.kind = q.aggregates[i].kind;
      a.input = agg_inputs[i] >= 0 ? input_of(agg_inputs[i]) : -1;
      if (ctx.num_threads > 1) {
        const DataType in_type = agg_inputs[i] >= 0
                                     ? schema.field(agg_inputs[i]).type
                                     : DataType::kInt64;
        if (!FusedAggMergeable(a.kind, in_type)) return OperatorPtr();
      }
      aggs.push_back(a);
    }
  }

  // Shred-cache full-column hits feed the kernel directly (ctx->in_dense);
  // at least one input must still come from the file, else the interpreted
  // cache scan already answers without touching the raw data.
  FormatScanContext& tc = ctx.Ctx(entry);
  FusedPipelineRequest req;
  int file_inputs = 0;
  for (int c : cols) {
    PipelineInput in;
    in.column = c;
    in.type = schema.field(c).type;
    ColumnPtr dense;
    if (opts.use_shred_cache && !tc.HoldsUnwiredBuildClaim()) {
      auto hit = ctx.shreds->LookupFull(entry->info.name, c, tc.version);
      if (hit.ok()) dense = std::move(hit).value();
    }
    in.dense = dense != nullptr;
    if (!in.dense) ++file_inputs;
    req.inputs.push_back(in);
    req.dense_columns.push_back(std::move(dense));
  }
  if (file_inputs == 0) return OperatorPtr();

  req.predicates = std::move(preds);
  if (aggregate) {
    req.mode = PipelineOutputMode::kAggregate;
    req.aggs = std::move(aggs);
  } else {
    req.mode = PipelineOutputMode::kProject;
    // Output names exactly as the interpreted SelectColumnsOperator emits
    // them: the bare column name, qualified on duplicates.
    Schema out;
    std::set<std::string> used;
    for (size_t i = 0; i < q.projections.size(); ++i) {
      req.projections.push_back(input_of(proj_inputs[i]));
      std::string name = q.projections[i].column;
      if (!used.insert(name).second) {
        name = QualifiedName(q.projections[i].table, q.projections[i].column);
      }
      out.AddField(std::move(name), schema.field(proj_inputs[i]).type);
    }
    req.output_schema = std::move(out);
  }

  RAW_ASSIGN_OR_RETURN(const FormatDriver* driver, DriverFor(*entry));
  auto built = driver->BuildFusedPipeline(tc, req);
  if (!built.ok()) {
    if (built.status().code() == StatusCode::kNotImplemented) {
      // No fusion plug-in for this format / table state (cold CSV without a
      // positional map, quoted files, REF projections, ...): interpreted.
      return OperatorPtr();
    }
    return built.status();
  }
  if (opts.count_accesses) entry->NoteColumnAccesses(cols);
  OperatorPtr op = std::move(built).value();

  if (aggregate) {
    // Merge the per-morsel partials with the schema and bit-exact values
    // AggregateOperator would have produced.
    std::vector<AggSpec> specs;
    std::vector<DataType> input_types;
    for (size_t i = 0; i < q.aggregates.size(); ++i) {
      AggSpec spec;
      spec.kind = q.aggregates[i].kind;
      spec.input = -1;  // partial-state columns are positional, not indexed
      spec.output_name =
          !q.aggregates[i].output_name.empty()
              ? q.aggregates[i].output_name
              : std::string(AggKindToString(q.aggregates[i].kind)) + "(" +
                    (q.aggregates[i].count_star
                         ? "*"
                         : q.aggregates[i].column.ToString()) +
                    ")";
      input_types.push_back(q.aggregates[i].kind != AggKind::kCount
                                ? schema.field(agg_inputs[i]).type
                                : DataType::kInt64);
      specs.push_back(std::move(spec));
    }
    op = std::make_unique<FusedAggFinalizeOperator>(
        std::move(op), std::move(specs), std::move(input_types));
    (*ctx.desc) << "[aggregate] ";
  } else {
    (*ctx.desc) << "[project] ";
  }
  (*ctx.desc) << "[jit-fused] ";
  return op;
}

/// True when late scans (selective row fetches) against `tc`'s table can
/// navigate to arbitrary rows — delegated to the format driver, which may
/// claim an adaptive-state build (positional map, block index) as a side
/// effect. Returns false for baselines that never build navigation state and
/// for cold tables whose build claim another in-flight session holds;
/// callers must then route columns into base scans instead of late scans.
StatusOr<bool> LateScanFeasible(FormatScanContext& tc) {
  RAW_ASSIGN_OR_RETURN(const FormatDriver* driver, DriverFor(*tc.entry));
  if (!driver->FullColumnsReason(tc).empty()) return false;
  return driver->EnsureLateScanNavigable(tc);
}

/// Why `tc`'s table would rather not serve late scans (formats whose
/// selective fetch re-reads as much as a full scan), or empty.
std::string_view FullColumnsReason(const FormatScanContext& tc) {
  const FormatDriver* driver =
      FormatRegistry::Global().Find(tc.entry->info.format);
  return driver != nullptr ? driver->FullColumnsReason(tc)
                           : std::string_view();
}

// =============================================================================
// Spec resolution helpers
// =============================================================================

/// The table and column index of a bound (qualified) column reference.
Status ColumnOf(const std::vector<TableEntry*>& tables,
                const ColumnRefSpec& ref, TableEntry** out_entry,
                int* out_column) {
  for (TableEntry* entry : tables) {
    if (entry->info.name != ref.table) continue;
    *out_entry = entry;
    *out_column = entry->info.schema.FieldIndex(ref.column);
    if (*out_column >= 0) return Status::OK();
  }
  return Status::InvalidArgument("column '" + ref.ToString() +
                                 "' is not bound to the query's tables");
}

/// Finds the index of "<table>.<column>" in `schema` or returns an error.
StatusOr<int> QualifiedIndex(const Schema& schema, const ColumnRefSpec& ref) {
  int idx = schema.FieldIndex(QualifiedName(ref.table, ref.column));
  if (idx < 0) {
    return Status::Internal("planner lost track of column " + ref.ToString());
  }
  return idx;
}

/// Builds the bound filter expression for a predicate against `schema`.
StatusOr<ExprPtr> BindPredicate(const Schema& schema,
                                const PredicateSpec& pred) {
  RAW_ASSIGN_OR_RETURN(int idx, QualifiedIndex(schema, pred.column));
  return Cmp(pred.op, Col(idx), Lit(pred.literal));
}

// Per-side planning state for the cascade builder.
struct SidePlan {
  TableEntry* entry = nullptr;
  std::vector<PredicateSpec> predicates;  // bound to this table, query order
  std::vector<int> predicate_cols;        // parallel column indices
  std::vector<int> force_base;            // columns forced into the base scan
  std::vector<int> needed_after;          // columns fetched after filters
  /// Concrete policy for this side (kAdaptive already resolved).
  ShredPolicy policy = ShredPolicy::kShreds;
};

/// Estimates the fraction of `tc`'s table rows passing `pred` using the
/// shred cache (exact when the full predicate column is cached), or nullopt.
std::optional<double> EstimateSelectivity(ShredCache* shreds,
                                          const FormatScanContext& tc,
                                          const PredicateSpec& pred, int col) {
  auto cached = shreds->LookupFull(tc.entry->info.name, col, tc.version);
  if (!cached.ok()) return std::nullopt;
  const Column& values = **cached;
  if (values.length() == 0) return 1.0;
  ColumnBatch batch;
  batch.AddColumn(*cached);
  SelectionVector passing;
  ExprPtr expr = Cmp(pred.op, Col(0), Lit(pred.literal));
  if (!expr->EvaluateSelection(batch, &passing).ok()) return std::nullopt;
  return static_cast<double>(passing.size()) /
         static_cast<double>(values.length());
}

/// Resolves kAdaptive to a concrete policy for one table side using the
/// cost model: estimate the combined selectivity below each late-fetch
/// point, then compare full-column vs shred vs multi-column costs. The
/// per-format cost constants come from the table's format driver.
ShredPolicy ResolveAdaptivePolicy(BuildCtx& ctx, const SidePlan& side) {
  const TableEntry& entry = *side.entry;
  const FormatScanContext& tc = ctx.Ctx(side.entry);
  if (tc.row_count < 0) {
    // First contact with the file: row count unknown, predicate columns not
    // cached. Shreds are never worse than full columns for the bottom
    // predicate and strictly cheaper when anything is filtered.
    (*ctx.desc) << "[adaptive: no stats -> shreds] ";
    return ShredPolicy::kShreds;
  }
  double selectivity = 1.0;
  bool any_estimate = false;
  for (size_t i = 0; i < side.predicates.size(); ++i) {
    std::optional<double> est = EstimateSelectivity(
        ctx.shreds, tc, side.predicates[i], side.predicate_cols[i]);
    if (est.has_value()) {
      selectivity *= *est;
      any_estimate = true;
    } else {
      selectivity *= 0.5;  // agnostic default for unseen predicates
    }
  }
  ShredDecisionInput in;
  in.format = entry.info.format;
  in.table_rows = tc.row_count;
  in.selectivity = selectivity;
  // Columns a late scan would fetch: predicates beyond the first + upstream.
  int fetch_cols = static_cast<int>(side.needed_after.size());
  if (side.predicates.size() > 1) {
    fetch_cols += static_cast<int>(side.predicates.size()) - 1;
  }
  in.colocated_columns = std::max(fetch_cols, 1);
  const FormatDriver* driver = FormatRegistry::Global().Find(entry.info.format);
  if (driver != nullptr) in.skip_distance = driver->EstimateSkipDistance(tc);
  CostModel model;
  ShredPolicy policy = model.ChoosePolicy(in);
  (*ctx.desc) << "[adaptive: sel=" << selectivity
              << (any_estimate ? " (cache-estimated)" : " (default)")
              << " -> " << ShredPolicyToString(policy) << "] ";
  return policy;
}

/// Wraps `op` (a LateScanOperator output) so the freshly fetched columns are
/// registered in the shred pool at Close() — "creating only subsets (shreds)
/// of columns ... preserved in a pool" (§3/§5.1). Only used below filter
/// cascades, where row ids are strictly increasing (post-join order is not).
OperatorPtr WrapLateScanCacheInsert(BuildCtx& ctx, OperatorPtr op,
                                    const FormatScanContext& tc,
                                    int base_fields,
                                    const std::vector<int>& fetch_cols) {
  if (!ctx.opts->populate_shred_cache) return op;
  std::vector<CacheInsertOperator::Mapping> mappings;
  for (size_t j = 0; j < fetch_cols.size(); ++j) {
    mappings.push_back(CacheInsertOperator::Mapping{
        base_fields + static_cast<int>(j), fetch_cols[j]});
  }
  return std::make_unique<CacheInsertOperator>(
      std::move(op), ctx.shreds, tc.entry, tc.version, std::move(mappings),
      /*full_scan=*/false, /*expected_rows=*/-1);
}

/// Builds scan -> [late scan, filter]* -> [late scan] for one table.
StatusOr<OperatorPtr> BuildTableSubplan(BuildCtx& ctx, SidePlan& side) {
  const PlannerOptions& opts = *ctx.opts;
  FormatScanContext& tc = ctx.Ctx(side.entry);
  const std::string& table = side.entry->info.name;

  // A table without navigable late-scan access in reach (e.g. a cold CSV
  // file whose positional-map build claim another in-flight session holds,
  // or build_positional_map=false) cannot serve late scans: force every
  // column into the base scan instead. The format driver owns the decision.
  bool can_late_scan = true;
  if (opts.access_path != AccessPathKind::kLoaded &&
      opts.access_path != AccessPathKind::kExternalTable) {
    RAW_ASSIGN_OR_RETURN(can_late_scan, LateScanFeasible(tc));
    if (const std::string_view why = FullColumnsReason(tc); !why.empty()) {
      (*ctx.desc) << "[full columns " << table << ": " << why << "] ";
    } else if (!can_late_scan) {
      (*ctx.desc) << "[no-pmap: full columns " << table << "] ";
    }
  }

  const bool full_columns =
      side.policy == ShredPolicy::kFullColumns ||
      opts.access_path == AccessPathKind::kLoaded ||
      opts.access_path == AccessPathKind::kExternalTable ||
      !can_late_scan;

  std::vector<int> base_cols = side.force_base;
  std::set<int> have;
  if (full_columns) {
    for (int c : side.predicate_cols) base_cols.push_back(c);
    for (int c : side.needed_after) base_cols.push_back(c);
  } else if (!side.predicate_cols.empty()) {
    base_cols.push_back(side.predicate_cols.front());
  } else {
    for (int c : side.needed_after) base_cols.push_back(c);
  }
  if (base_cols.empty()) {
    // Degenerate: no predicates, nothing needed below — still scan something
    // to drive row ids (first schema column).
    base_cols.push_back(0);
  }
  base_cols = SortedUnique(std::move(base_cols));
  for (int c : base_cols) have.insert(c);

  RAW_ASSIGN_OR_RETURN(OperatorPtr op, BuildBaseScan(ctx, tc, base_cols));

  for (size_t i = 0; i < side.predicates.size(); ++i) {
    int col = side.predicate_cols[i];
    if (have.count(col) == 0) {
      std::vector<int> fetch_cols = {col};
      if (side.policy == ShredPolicy::kMultiColumnShreds) {
        // Speculatively fetch nearby columns needed later in the same pass
        // (§5.3.1: "it may be comparatively cheap to read nearby fields").
        for (size_t k = i + 1; k < side.predicates.size(); ++k) {
          int other = side.predicate_cols[k];
          if (have.count(other) == 0 &&
              std::abs(other - col) <= opts.speculation_window) {
            fetch_cols.push_back(other);
          }
        }
        for (int other : side.needed_after) {
          if (have.count(other) == 0 &&
              std::abs(other - col) <= opts.speculation_window) {
            fetch_cols.push_back(other);
          }
        }
      }
      fetch_cols = SortedUnique(std::move(fetch_cols));
      RAW_ASSIGN_OR_RETURN(RowFetcherPtr fetcher,
                           BuildFetcher(ctx, tc, fetch_cols));
      (*ctx.desc) << "[late-scan " << table << ":";
      for (int c : fetch_cols) (*ctx.desc) << c << ",";
      (*ctx.desc) << "] ";
      RAW_RETURN_NOT_OK(op->Open());  // idempotent; exposes the field count
      int base_fields = op->output_schema().num_fields();
      op = std::make_unique<LateScanOperator>(std::move(op),
                                              std::move(fetcher));
      op = WrapLateScanCacheInsert(ctx, std::move(op), tc, base_fields,
                                   fetch_cols);
      for (int c : fetch_cols) have.insert(c);
    }
    // Operator Open() is idempotent before the first Next(); opening here
    // materializes the subtree's output schema so the predicate can bind.
    RAW_RETURN_NOT_OK(op->Open());
    RAW_ASSIGN_OR_RETURN(
        ExprPtr pred, BindPredicate(op->output_schema(), side.predicates[i]));
    op = std::make_unique<FilterOperator>(std::move(op), std::move(pred));
    (*ctx.desc) << "[filter " << side.predicates[i].ToString() << "] ";
  }

  std::vector<int> missing;
  for (int c : side.needed_after) {
    if (have.count(c) == 0) missing.push_back(c);
  }
  if (!missing.empty()) {
    missing = SortedUnique(std::move(missing));
    RAW_ASSIGN_OR_RETURN(RowFetcherPtr fetcher,
                         BuildFetcher(ctx, tc, missing));
    (*ctx.desc) << "[late-scan " << table << ":";
    for (int c : missing) (*ctx.desc) << c << ",";
    (*ctx.desc) << "] ";
    RAW_RETURN_NOT_OK(op->Open());
    int base_fields = op->output_schema().num_fields();
    op = std::make_unique<LateScanOperator>(std::move(op), std::move(fetcher));
    op = WrapLateScanCacheInsert(ctx, std::move(op), tc, base_fields,
                                 missing);
  }
  return op;
}

}  // namespace

// =============================================================================
// Planner::Plan
// =============================================================================

StatusOr<PhysicalPlan> Planner::Plan(const QuerySpec& query,
                                     std::vector<FormatScanContext> pinned,
                                     const PlannerOptions& options) {
  RAW_RETURN_NOT_OK(query.Validate());
  for (const PredicateSpec& pred : query.predicates) {
    if (pred.is_parameter()) {
      return Status::InvalidArgument(
          "query has unbound '?' parameters; execute it through "
          "Session::Prepare");
    }
  }

  PhysicalPlan plan;
  plan.deadline = options.deadline;
  plan.health = std::make_shared<ScanHealth>();
  std::ostringstream desc;
  // Which kernel dispatch tier the hot scan/eval loops will run on — benches
  // assert on this so recorded numbers prove which path executed.
  desc << "[kernels=" << KernelTierName(ActiveKernelTier()) << "] ";

  // Tolerant malformed-row policies compact or rewrite row ids inside the
  // scan, so everything keyed by raw row id must be disabled for the query:
  // positional-map builds, shred-cache reads and writes, late scans (full
  // columns instead), and JIT access paths / fused pipelines (generated
  // kernels fail hard on the first malformed value).
  PlannerOptions effective = options;
  if (effective.malformed_row_policy != MalformedRowPolicy::kFail &&
      effective.access_path != AccessPathKind::kLoaded) {
    effective.shred_policy = ShredPolicy::kFullColumns;
    effective.use_shred_cache = false;
    effective.populate_shred_cache = false;
    effective.build_positional_map = false;
    effective.jit_fusion = JitFusion::kOff;
    if (effective.access_path == AccessPathKind::kJit) {
      effective.access_path = AccessPathKind::kInSitu;
    }
    desc << "[malformed-rows="
         << MalformedRowPolicyToString(effective.malformed_row_policy)
         << "] ";
  }

  // Under kAuto a host without a compiler plans every query interpreted
  // (kOn keeps failing with the compiler's typed error instead).
  bool jit_deferred = false;
  if (effective.jit_fusion == JitFusion::kAuto &&
      effective.access_path == AccessPathKind::kJit &&
      (jit_ == nullptr || !jit_->compiler_available())) {
    effective.access_path = AccessPathKind::kInSitu;
    desc << "[jit: " << JitKernelStateReason(JitKernelState::kNoCompiler)
         << "] ";
    jit_deferred = true;
  }

  std::map<TableEntry*, FormatScanContext> table_ctxs;
  BuildCtx ctx{jit_,       shreds_,
               &effective, &desc,
               ResolveNumThreads(effective.num_threads),
               &table_ctxs, plan.health.get()};

  if (pinned.size() != query.tables.size()) {
    return Status::Internal("planner needs one pinned context per table");
  }
  std::vector<TableEntry*> entries;
  for (FormatScanContext& tc : pinned) {
    entries.push_back(tc.entry);
    ctx.Adopt(std::move(tc));
  }

  // If planning fails after a table context claimed an adaptive-state build
  // without wiring it into an operator (which would own the claim), release
  // it.
  struct ClaimGuard {
    std::map<TableEntry*, FormatScanContext>* tables;
    bool disarm = false;
    ~ClaimGuard() {
      if (disarm) return;
      for (auto& [entry, tc] : *tables) {
        if (tc.building_pmap != nullptr && !tc.pmap_build_wired) {
          entry->AbandonBuild(AdaptiveSlot::kPositionalMap);
        }
        if (tc.building_format_state != nullptr &&
            !tc.format_state_build_wired) {
          entry->AbandonBuild(AdaptiveSlot::kFormatState);
        }
      }
    }
  } claim_guard{&table_ctxs};

  // Column references arrive bound (qualified) by the binder.
  QuerySpec q = query;
  auto resolve = [&](const ColumnRefSpec* ref, TableEntry** entry,
                     int* column) -> Status {
    return ColumnOf(entries, *ref, entry, column);
  };

  std::vector<TableEntry*> pred_entry(q.predicates.size());
  std::vector<int> pred_col(q.predicates.size());
  for (size_t i = 0; i < q.predicates.size(); ++i) {
    RAW_RETURN_NOT_OK(
        resolve(&q.predicates[i].column, &pred_entry[i], &pred_col[i]));
  }
  struct OutCol {
    TableEntry* entry;
    int column;
  };
  std::vector<OutCol> agg_cols(q.aggregates.size());
  for (size_t i = 0; i < q.aggregates.size(); ++i) {
    if (q.aggregates[i].count_star) {
      agg_cols[i] = {nullptr, -1};
      continue;
    }
    RAW_RETURN_NOT_OK(resolve(&q.aggregates[i].column, &agg_cols[i].entry,
                              &agg_cols[i].column));
  }
  std::vector<OutCol> proj_cols(q.projections.size());
  for (size_t i = 0; i < q.projections.size(); ++i) {
    RAW_RETURN_NOT_OK(
        resolve(&q.projections[i], &proj_cols[i].entry, &proj_cols[i].column));
  }
  std::vector<OutCol> group_cols(q.group_by.size());
  for (size_t i = 0; i < q.group_by.size(); ++i) {
    RAW_RETURN_NOT_OK(
        resolve(&q.group_by[i], &group_cols[i].entry, &group_cols[i].column));
  }

  OperatorPtr op;
  bool fused = false;

  if (!q.is_join()) {
    // Pipeline fusion first: eligible scan→filter→project/aggregate shapes
    // compile into one generated loop, replacing the whole interpreted
    // subplan below (a null return means "not eligible, plan as usual").
    std::vector<int> agg_inputs, proj_inputs;
    for (const OutCol& c : agg_cols) {
      agg_inputs.push_back(c.entry != nullptr ? c.column : -1);
    }
    for (const OutCol& c : proj_cols) proj_inputs.push_back(c.column);
    RAW_ASSIGN_OR_RETURN(
        op, TryPlanFusedPipeline(ctx, q, entries[0], pred_col, agg_inputs,
                                 proj_inputs));
    fused = op != nullptr;
    if (!fused && ctx.Ctx(entries[0]).jit_deferred) {
      // The fused kernel compiles in the background; its interpreted twin
      // scans in situ rather than queueing scan kernels nobody will reuse
      // once the fused one is ready.
      effective.access_path = AccessPathKind::kInSitu;
    }
    if (!fused) {
      SidePlan side;
      side.entry = entries[0];
      for (size_t i = 0; i < q.predicates.size(); ++i) {
        side.predicates.push_back(q.predicates[i]);
        side.predicate_cols.push_back(pred_col[i]);
      }
      for (const OutCol& c : agg_cols) {
        if (c.entry != nullptr) side.needed_after.push_back(c.column);
      }
      for (const OutCol& c : proj_cols) side.needed_after.push_back(c.column);
      for (const OutCol& c : group_cols) side.needed_after.push_back(c.column);
      side.policy = effective.shred_policy;
      if (side.policy == ShredPolicy::kAdaptive) {
        side.policy = ResolveAdaptivePolicy(ctx, side);
      }
      RAW_ASSIGN_OR_RETURN(op, BuildTableSubplan(ctx, side));
    }
  } else {
    TableEntry* probe_entry = entries[0];
    TableEntry* build_entry = entries[1];

    // Resolve join keys.
    TableEntry* jl_entry;
    int jl_col;
    TableEntry* jr_entry;
    int jr_col;
    RAW_RETURN_NOT_OK(resolve(&q.join_left, &jl_entry, &jl_col));
    RAW_RETURN_NOT_OK(resolve(&q.join_right, &jr_entry, &jr_col));
    if (jl_entry == build_entry && jr_entry == probe_entry) {
      std::swap(jl_entry, jr_entry);
      std::swap(jl_col, jr_col);
      std::swap(q.join_left, q.join_right);
    }
    if (jl_entry != probe_entry || jr_entry != build_entry) {
      return Status::InvalidArgument(
          "join condition must reference both tables");
    }

    SidePlan probe, build;
    probe.entry = probe_entry;
    build.entry = build_entry;
    probe.needed_after.push_back(jl_col);
    build.needed_after.push_back(jr_col);
    for (size_t i = 0; i < q.predicates.size(); ++i) {
      SidePlan& side = pred_entry[i] == probe_entry ? probe : build;
      side.predicates.push_back(q.predicates[i]);
      side.predicate_cols.push_back(pred_col[i]);
    }

    // Projected / aggregated columns: placement decides which side structure
    // receives them (early -> base scan, intermediate -> after side filters,
    // late -> after the join). Post-join late scans need navigable row
    // access on their side; when none is in reach (baseline access paths,
    // build_positional_map off, or another session holds the build claim)
    // the columns demote to intermediate placement instead of failing at
    // fetch time.
    RAW_ASSIGN_OR_RETURN(const bool probe_late_ok,
                         LateScanFeasible(ctx.Ctx(probe_entry)));
    RAW_ASSIGN_OR_RETURN(const bool build_late_ok,
                         LateScanFeasible(ctx.Ctx(build_entry)));
    std::vector<OutCol> late_probe, late_build;
    auto place = [&](const OutCol& c) {
      if (c.entry == nullptr) return;
      SidePlan& side = c.entry == probe_entry ? probe : build;
      JoinProjectionPlacement placement = effective.join_placement;
      if (placement == JoinProjectionPlacement::kLate &&
          !(c.entry == probe_entry ? probe_late_ok : build_late_ok)) {
        placement = JoinProjectionPlacement::kIntermediate;
        const std::string& name = c.entry->info.name;
        if (const std::string_view why = FullColumnsReason(ctx.Ctx(c.entry));
            !why.empty()) {
          (*ctx.desc) << "[late->intermediate " << name << ": " << why << "] ";
        } else {
          (*ctx.desc) << "[no-pmap: late->intermediate " << name << "] ";
        }
      }
      switch (placement) {
        case JoinProjectionPlacement::kEarly:
          side.force_base.push_back(c.column);
          break;
        case JoinProjectionPlacement::kIntermediate:
          side.needed_after.push_back(c.column);
          break;
        case JoinProjectionPlacement::kLate:
          if (c.entry == probe_entry) {
            late_probe.push_back(c);
          } else {
            late_build.push_back(c);
          }
          break;
      }
    };
    for (const OutCol& c : agg_cols) {
      // Join keys and group keys must exist at the join; only non-key
      // payload columns are placement-sensitive.
      place(c);
    }
    for (const OutCol& c : proj_cols) place(c);
    for (const OutCol& c : group_cols) {
      // Group keys are needed at the group-by; treat as intermediate to be
      // safe (available right after the join).
      SidePlan& side = c.entry == probe_entry ? probe : build;
      side.needed_after.push_back(c.column);
    }

    probe.policy = effective.shred_policy;
    build.policy = effective.shred_policy;
    if (probe.policy == ShredPolicy::kAdaptive) {
      probe.policy = ResolveAdaptivePolicy(ctx, probe);
    }
    if (build.policy == ShredPolicy::kAdaptive) {
      build.policy = ResolveAdaptivePolicy(ctx, build);
    }

    RAW_ASSIGN_OR_RETURN(OperatorPtr probe_op, BuildTableSubplan(ctx, probe));
    RAW_ASSIGN_OR_RETURN(OperatorPtr build_op, BuildTableSubplan(ctx, build));

    const bool emit_build_ids = !late_build.empty();
    // Open the (idempotent) subplans so their qualified output schemas exist
    // for join-key resolution.
    RAW_RETURN_NOT_OK(probe_op->Open());
    RAW_RETURN_NOT_OK(build_op->Open());
    RAW_ASSIGN_OR_RETURN(int probe_key,
                         QualifiedIndex(probe_op->output_schema(), q.join_left));
    RAW_ASSIGN_OR_RETURN(int build_key, QualifiedIndex(build_op->output_schema(),
                                                       q.join_right));
    (*ctx.desc) << "[hash-join " << q.join_left.ToString() << "="
                << q.join_right.ToString() << " placement="
                << JoinProjectionPlacementToString(effective.join_placement)
                << "] ";
    auto join = std::make_unique<HashJoinOperator>(
        std::move(probe_op), std::move(build_op), probe_key, build_key,
        emit_build_ids);
    if (ctx.num_threads > 1) {
      join->SetParallel(ThreadPool::Shared(), ctx.num_threads);
      (*ctx.desc) << "[parallel join-build x" << ctx.num_threads << "] ";
    }
    // Build structure stats (rows/buckets/max-chain) only exist after the
    // drain; report them through the post-execution describers.
    HashJoinOperator* join_ptr = join.get();
    plan.runtime_describers.push_back(
        [join_ptr] { return join_ptr->build_stats(); });
    op = std::move(join);

    if (!late_probe.empty()) {
      std::vector<int> cols;
      for (const OutCol& c : late_probe) cols.push_back(c.column);
      RAW_ASSIGN_OR_RETURN(RowFetcherPtr fetcher,
                           BuildFetcher(ctx, ctx.Ctx(probe_entry), cols));
      (*ctx.desc) << "[late-scan(post-join,pipelined) " << probe_entry->info.name
                  << "] ";
      op = std::make_unique<LateScanOperator>(std::move(op),
                                              std::move(fetcher));
    }
    if (!late_build.empty()) {
      std::vector<int> cols;
      for (const OutCol& c : late_build) cols.push_back(c.column);
      RAW_ASSIGN_OR_RETURN(RowFetcherPtr fetcher,
                           BuildFetcher(ctx, ctx.Ctx(build_entry), cols));
      (*ctx.desc) << "[late-scan(post-join,breaking) " << build_entry->info.name
                  << "] ";
      op = std::make_unique<LateScanOperator>(
          std::move(op), std::move(fetcher),
          HashJoinOperator::kBuildRowIdColumn);
    }
  }

  // Aggregation / grouping / projection. Fused plans already filtered,
  // projected, and (via FusedAggFinalizeOperator) aggregated inside the
  // generated loop; opening the tree here compiles the kernel so its cost is
  // charged to compile time, exactly like interpreted JIT scans.
  if (fused) {
    RAW_RETURN_NOT_OK(op->Open());
  } else if (q.is_aggregate()) {
    RAW_RETURN_NOT_OK(op->Open());
    const Schema& in = op->output_schema();
    std::vector<AggSpec> specs;
    for (size_t i = 0; i < q.aggregates.size(); ++i) {
      AggSpec spec;
      spec.kind = q.aggregates[i].kind;
      if (q.aggregates[i].count_star) {
        spec.input = -1;
      } else {
        RAW_ASSIGN_OR_RETURN(spec.input,
                             QualifiedIndex(in, q.aggregates[i].column));
      }
      spec.output_name =
          !q.aggregates[i].output_name.empty()
              ? q.aggregates[i].output_name
              : std::string(AggKindToString(q.aggregates[i].kind)) + "(" +
                    (q.aggregates[i].count_star
                         ? "*"
                         : q.aggregates[i].column.ToString()) +
                    ")";
      specs.push_back(std::move(spec));
    }
    if (q.group_by.empty()) {
      op = std::make_unique<AggregateOperator>(std::move(op), std::move(specs));
      (*ctx.desc) << "[aggregate] ";
    } else {
      std::vector<int> keys;
      for (const ColumnRefSpec& g : q.group_by) {
        RAW_ASSIGN_OR_RETURN(int idx, QualifiedIndex(in, g));
        keys.push_back(idx);
      }
      auto group_by = std::make_unique<HashGroupByOperator>(
          std::move(op), std::move(keys), std::move(specs));
      if (ctx.num_threads > 1) {
        group_by->SetParallel(ThreadPool::Shared(), ctx.num_threads);
        (*ctx.desc) << "[group-by x" << ctx.num_threads << "] ";
      } else {
        (*ctx.desc) << "[group-by] ";
      }
      op = std::move(group_by);
    }
  } else {
    RAW_RETURN_NOT_OK(op->Open());
    const Schema& in = op->output_schema();
    std::vector<int> indices;
    std::vector<std::string> names;
    std::set<std::string> used;
    for (const ColumnRefSpec& p : q.projections) {
      RAW_ASSIGN_OR_RETURN(int idx, QualifiedIndex(in, p));
      indices.push_back(idx);
      std::string name = p.column;
      if (!used.insert(name).second) name = QualifiedName(p.table, p.column);
      names.push_back(name);
    }
    op = std::make_unique<SelectColumnsOperator>(std::move(op),
                                                 std::move(indices),
                                                 std::move(names));
    (*ctx.desc) << "[project] ";
  }

  if (q.limit >= 0) {
    op = std::make_unique<LimitOperator>(std::move(op), q.limit);
    (*ctx.desc) << "[limit " << q.limit << "] ";
  }

  // Pin the per-query snapshots for the plan's lifetime: operators reference
  // them by raw pointer, and streaming cursors may outlive engine-side state
  // (a stale-file reopen, ResetAdaptiveState).
  for (auto& [entry, tc] : table_ctxs) {
    if (tc.file != nullptr) plan.resources.push_back(tc.file);
    if (tc.bin_reader != nullptr) plan.resources.push_back(tc.bin_reader);
    if (tc.published_pmap != nullptr) plan.resources.push_back(tc.published_pmap);
    if (tc.building_pmap != nullptr) plan.resources.push_back(tc.building_pmap);
    if (tc.format_state != nullptr) plan.resources.push_back(tc.format_state);
    if (tc.building_format_state != nullptr) {
      plan.resources.push_back(tc.building_format_state);
    }
    if (tc.loaded != nullptr) plan.resources.push_back(tc.loaded);
  }
  claim_guard.disarm = true;  // wired claims are owned by publish operators

  if (fused) {
    plans_fused_.fetch_add(1, std::memory_order_relaxed);
  } else {
    plans_interpreted_.fetch_add(1, std::memory_order_relaxed);
  }

  for (const auto& [entry, tc] : table_ctxs) jit_deferred |= tc.jit_deferred;
  if (jit_deferred) plans_jit_deferred_.fetch_add(1, std::memory_order_relaxed);

  plan.root = std::move(op);
  plan.description = desc.str();
  return plan;
}

}  // namespace raw
