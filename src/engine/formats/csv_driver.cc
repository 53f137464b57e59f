#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "csv/csv_tokenizer.h"
#include "engine/cost_model.h"
#include "engine/executor.h"
#include "engine/formats/driver_util.h"
#include "engine/formats/drivers.h"
#include "engine/physical_plan.h"
#include "jit/pipeline_codegen.h"
#include "scan/external_table_scan.h"
#include "scan/fused_pipeline.h"
#include "scan/insitu_csv_scan.h"
#include "scan/loader.h"
#include "scan/morsel.h"
#include "scan/shred_scan.h"

namespace raw {
namespace {

/// CSV JIT kernels tokenize with the branch-light unquoted fast path and only
/// materialize fixed-width values; quoted files and string columns fall back
/// to the interpreted, quote-aware scan.
bool CsvJitEligible(const FormatScanContext& tc, const std::vector<int>& cols) {
  return !AnyStringColumn(tc.entry->info.schema, cols) && !tc.csv_quoted;
}

/// The map slot late and warm scans jump to for a read starting at column
/// `first_col`: the last tracked column at or before it.
int AnchorFor(const PositionalMap& pmap, int first_col) {
  int anchor = pmap.tracked_columns().front();
  for (int t : pmap.tracked_columns()) {
    if (t <= first_col) anchor = t;
  }
  return anchor;
}

/// `req` as a CSV kernel spec (file inputs read left to right).
PipelineSpec CsvSpecFor(const TableInfo& info, const FusedPipelineRequest& req,
                        ScanMode mode) {
  PipelineSpec spec = PipelineSpecFor(req);
  spec.format = FileFormat::kCsv;
  spec.scan_mode = mode;
  spec.delimiter = info.csv_options.delimiter;
  return spec;
}

/// The interpreted scan spec for `cols`; callers add the access path.
CsvScanSpec InsituSpecFor(const FormatScanContext& tc,
                          const std::vector<int>& cols) {
  CsvScanSpec spec;
  spec.file_schema = tc.entry->info.schema;
  spec.outputs = cols;
  spec.options = tc.entry->info.csv_options;
  spec.quoted = tc.csv_quoted;
  spec.batch_rows = tc.opts->batch_rows;
  spec.health = tc.health;
  return spec;
}

/// Whether the plan may scan `cols` with a generated kernel at all
/// (JitKernelReady then decides whether it is compiled yet).
bool CsvJitPlanned(const FormatScanContext& tc, const std::vector<int>& cols) {
  // Generated kernels fail hard on the first malformed value, so tolerant
  // row policies always take the interpreted scan (the planner already
  // downgrades access_path; this guard keeps the driver safe on its own).
  return tc.opts->access_path == AccessPathKind::kJit &&
         tc.opts->malformed_row_policy == MalformedRowPolicy::kFail &&
         CsvJitEligible(tc, cols);
}

/// First-contact CSV scan: sequential, building the positional map en route
/// (MapBuildingScan); with num_threads > 1 over newline-aligned byte morsels.
OperatorPtr BuildCsvSequentialScan(FormatScanContext& tc,
                                   const std::vector<int>& cols,
                                   const Schema& qualified,
                                   const std::vector<ScanRange>& morsels) {
  const TableInfo& info = tc.entry->info;
  const PlannerOptions& opts = *tc.opts;
  PositionalMap* build = BeginMapBuildingScan(tc);
  PipelineSpec jit_spec = CsvSpecFor(
      info, ProjectionRequest(info.schema, cols, qualified),
      ScanMode::kSequential);
  if (build != nullptr) jit_spec.pmap_tracked = build->tracked_columns();
  const bool use_jit = CsvJitPlanned(tc, cols) && JitKernelReady(tc, jit_spec);
  return MapBuildingScan(
      tc, qualified, build, morsels,
      [&](const ScanRange& range, PositionalMap* build_pmap) -> OperatorPtr {
        if (use_jit) {
          FusedPipelineArgs args;
          args.spec = jit_spec;
          args.output_schema = qualified;
          args.health = tc.health;
          args.file = tc.file.get();
          args.build_pmap = build_pmap;
          args.batch_rows = opts.batch_rows;
          if (!range.whole()) {
            args.window_begin = static_cast<uint64_t>(range.begin);
            args.window_end = static_cast<uint64_t>(range.end);
          }
          return std::make_unique<FusedPipelineOperator>(tc.jit,
                                                         std::move(args));
        }
        CsvScanSpec spec = InsituSpecFor(tc, cols);
        spec.policy = opts.malformed_row_policy;
        spec.build_pmap = build_pmap;
        spec.range = range;
        return WrapQualified(std::make_unique<InsituCsvScanOperator>(
                                 tc.file.get(), std::move(spec)),
                             qualified);
      });
}

/// Warm generated-kernel CSV scan for `req` — a ProjectionRequest (the kJit
/// warm scan) or a planner fusion request, tagged `[fused-pmap-scan]`. Each
/// row-range morsel's kernel reads its anchor positions straight from the
/// map, so nothing per row is built at plan time. Null while the kernel
/// compiles (kAuto).
StatusOr<OperatorPtr> BuildCsvKernelScan(FormatScanContext& tc,
                                         const FusedPipelineRequest& req,
                                         int anchor,
                                         const std::vector<ScanRange>& morsels,
                                         bool fused) {
  const TableInfo& info = tc.entry->info;
  PipelineSpec spec = CsvSpecFor(info, req, ScanMode::kByPosition);
  spec.anchor_column = anchor;
  if (!JitKernelReady(tc, spec)) return OperatorPtr();
  if (fused) {
    (*tc.desc) << "[fused-pmap-scan " << info.name << " anchor=" << anchor
               << "] ";
  }
  const Schema out_schema = PipelineOutputSchema(req);
  std::vector<OperatorPtr> children;
  for (const ScanRange& m : morsels) {
    FusedPipelineArgs args;
    args.spec = spec;
    args.output_schema = out_schema;
    args.health = tc.health;
    args.file = tc.file.get();
    args.pmap = tc.published_pmap.get();
    args.rows = m;
    args.dense_columns = req.dense_columns;
    args.batch_rows = tc.opts->batch_rows;
    children.push_back(
        std::make_unique<FusedPipelineOperator>(tc.jit, std::move(args)));
  }
  return MorselScan(tc, out_schema, std::move(children));
}

/// Warm CSV scan: jump to every mapped row via the positional map. With
/// num_threads > 1 the mapped rows split into row-range morsels; ids are
/// already file-global, so no rebasing is needed.
StatusOr<OperatorPtr> BuildCsvPositionalScan(
    FormatScanContext& tc, const std::vector<int>& cols,
    const Schema& qualified, const std::vector<ScanRange>& morsels) {
  const TableInfo& info = tc.entry->info;
  const PositionalMap& pmap = *tc.published_pmap;
  const int anchor = AnchorFor(pmap, cols.front());
  (*tc.desc) << "[pmap-scan " << info.name << " anchor=" << anchor << "] ";
  if (CsvJitPlanned(tc, cols)) {
    RAW_ASSIGN_OR_RETURN(
        OperatorPtr op,
        BuildCsvKernelScan(tc, ProjectionRequest(info.schema, cols, qualified),
                           anchor, morsels, /*fused=*/false));
    if (op != nullptr) return op;
  }
  std::vector<OperatorPtr> children;
  for (const ScanRange& m : morsels) {
    CsvScanSpec spec = InsituSpecFor(tc, cols);
    spec.use_pmap = &pmap;
    spec.anchor_column = anchor;
    spec.range = m;
    children.push_back(WrapQualified(std::make_unique<InsituCsvScanOperator>(
                                         tc.file.get(), std::move(spec)),
                                     qualified));
  }
  return MorselScan(tc, qualified, std::move(children));
}

class CsvFormatDriver final : public FormatDriver {
 public:
  FileFormat format() const override { return FileFormat::kCsv; }
  std::string_view name() const override { return "csv"; }

  Status OpenTable(TableEntry& entry) const override {
    RAW_ASSIGN_OR_RETURN(std::shared_ptr<const MmapFile> file,
                         entry.EnsureMmap());
    // One memchr pass over the file decides the tokenizer for every future
    // scan (quote handling must be known up front — a quote appearing late
    // would invalidate earlier row boundaries). The pass also warms the page
    // cache the first scan reads right after, so on files that fit in memory
    // the extra disk I/O is ~zero.
    entry.SetCsvQuoted(BufferContainsQuote(file->data(),
                                           file->data() + file->size(),
                                           entry.info.csv_options.quote));
    return Status::OK();
  }

  StatusOr<std::unique_ptr<InMemoryTable>> LoadTable(
      const FormatScanContext& tc) const override {
    const TableInfo& info = tc.entry->info;
    std::vector<int> all;
    for (int c = 0; c < info.schema.num_fields(); ++c) all.push_back(c);
    return LoadCsvTable(tc.file.get(), info.schema, all, info.csv_options,
                        tc.csv_quoted);
  }

  /// Late scans need a positional map — one already published, or one this
  /// query can (and, as a side effect here, does) claim the right to build.
  bool EnsureLateScanNavigable(FormatScanContext& tc) const override {
    return PmapLateScanNavigable(tc);
  }

  int EstimateSkipDistance(const FormatScanContext& tc) const override {
    if (!tc.has_complete_pmap()) return 0;
    // Typical skip distance: half the tracking stride.
    const auto& tracked = tc.published_pmap->tracked_columns();
    int stride = tracked.size() > 1 ? tracked[1] - tracked[0]
                                    : tc.entry->info.schema.num_fields();
    return stride / 2;
  }

  std::vector<ScanRange> SplitMorsels(const FormatScanContext& tc,
                                      int target_morsels) const override {
    if (tc.has_complete_pmap()) {
      return SplitPmapRowRanges(*tc.published_pmap, target_morsels);
    }
    return SplitCsvByteRanges(tc.file->data(), tc.file->size(),
                              tc.entry->info.csv_options, target_morsels);
  }

  StatusOr<OperatorPtr> BuildScan(FormatScanContext& tc,
                                  const std::vector<int>& cols,
                                  const Schema& qualified) const override {
    const PlannerOptions& opts = *tc.opts;
    if (opts.access_path == AccessPathKind::kExternalTable) {
      // The "external tables" baseline re-parses everything per query by
      // design; it stays serial (it is a comparison system, not a target).
      auto ext = std::make_unique<ExternalTableScanOperator>(
          tc.file.get(), tc.entry->info.schema, cols,
          tc.entry->info.csv_options, opts.batch_rows);
      return WrapQualified(std::move(ext), qualified);
    }
    if (!tc.has_complete_pmap()) {
      return BuildCsvSequentialScan(tc, cols, qualified,
                                    PlanMorsels(*this, tc, ScanRange::Whole()));
    }
    return BuildCsvPositionalScan(
        tc, cols, qualified,
        PlanMorsels(*this, tc,
                    ScanRange::Rows(0, tc.published_pmap->num_rows())));
  }

  /// By-position fetches through the map this query navigates: the
  /// generated kernel when it is ready, else the interpreted scan.
  StatusOr<RowFetcherPtr> BuildFetcher(FormatScanContext& tc,
                                       const std::vector<int>& cols,
                                       const Schema& qualified) const override {
    const TableInfo& info = tc.entry->info;
    const PositionalMap* pmap = tc.pmap_view();
    if (pmap == nullptr) {
      return Status::Internal(
          "CSV late scan requires a positional map (none configured)");
    }
    const int anchor = AnchorFor(*pmap, cols.front());
    if (CsvJitPlanned(tc, cols)) {
      FusedPipelineArgs args;
      args.spec =
          CsvSpecFor(info, ProjectionRequest(info.schema, cols, qualified),
                     ScanMode::kByPosition);
      args.spec.anchor_column = anchor;
      if (JitKernelReady(tc, args.spec)) {
        args.output_schema = qualified;
        args.health = tc.health;
        args.file = tc.file.get();
        args.pmap = pmap;
        return RowFetcherPtr(std::make_unique<ScanRowFetcher>(
            qualified,
            ScanOverRows<FusedPipelineOperator>(tc.jit, std::move(args))));
      }
    }
    CsvScanSpec spec = InsituSpecFor(tc, cols);
    spec.use_pmap = pmap;
    spec.anchor_column = anchor;
    return RowFetcherPtr(std::make_unique<ScanRowFetcher>(
        qualified,
        ScanOverRows<InsituCsvScanOperator>(tc.file.get(), std::move(spec))));
  }

  FormatCostParams cost_params(const CostParams& base) const override {
    FormatCostParams p;
    p.read_value = base.csv_parse_field;
    p.jump = base.csv_jump;
    p.skip_field = base.csv_skip_field;
    // Out-of-order textual fetches thrash the parser state and the cache.
    p.random_penalty = base.bin_random_penalty * 4;
    p.colocated_shreds = true;  // adjacent fields parse almost for free
    return p;
  }

  StatusOr<std::string> EmitJitPipelineSource(
      const PipelineSpec& spec) const override {
    return GenerateCsvPipelineSource(spec);
  }

  /// Fused CSV pipelines run warm only: the complete positional map turns
  /// the scan into by-position field parsing, and the fused kernel skips the
  /// parse work of every row its dense predicates reject. Cold tables (and
  /// quoted files) report NotImplemented so the planner stays interpreted.
  StatusOr<OperatorPtr> BuildFusedPipeline(
      FormatScanContext& tc, const FusedPipelineRequest& req) const override {
    if (!tc.has_complete_pmap()) {
      return Status::NotImplemented(
          "fused CSV pipelines require a complete positional map");
    }
    if (tc.csv_quoted) {
      return Status::NotImplemented(
          "fused CSV pipelines do not handle quoted files");
    }
    std::vector<int> file_cols;
    for (const PipelineInput& in : req.inputs) {
      if (!in.dense) file_cols.push_back(in.column);
    }
    if (file_cols.empty()) {
      return Status::NotImplemented(
          "fused CSV pipeline needs at least one file-read input");
    }
    const PositionalMap& pmap = *tc.published_pmap;
    RAW_ASSIGN_OR_RETURN(
        OperatorPtr op,
        BuildCsvKernelScan(
            tc, req, AnchorFor(pmap, file_cols.front()),
            PlanMorsels(*this, tc, ScanRange::Rows(0, pmap.num_rows())),
            /*fused=*/true));
    if (op == nullptr) {
      return Status::NotImplemented("fused CSV kernel not compiled yet");
    }
    return op;
  }
};

}  // namespace

std::unique_ptr<FormatDriver> MakeCsvFormatDriver() {
  return std::make_unique<CsvFormatDriver>();
}

}  // namespace raw
