#include <memory>
#include <utility>
#include <vector>

#include "engine/cost_model.h"
#include "engine/executor.h"
#include "engine/formats/driver_util.h"
#include "engine/formats/drivers.h"
#include "engine/physical_plan.h"
#include "jit/pipeline_codegen.h"
#include "scan/fused_pipeline.h"
#include "scan/insitu_bin_scan.h"
#include "scan/loader.h"
#include "scan/morsel.h"
#include "scan/shred_scan.h"

namespace raw {
namespace {

class BinaryFormatDriver final : public FormatDriver {
 public:
  FileFormat format() const override { return FileFormat::kBinary; }
  std::string_view name() const override { return "bin"; }

  /// One mapping per generation: the binary reader reads through the same
  /// mmap the JIT kernels walk.
  Status OpenTable(TableEntry& entry) const override {
    return entry.EnsureBinReader();
  }

  StatusOr<std::unique_ptr<InMemoryTable>> LoadTable(
      const FormatScanContext& tc) const override {
    std::vector<int> all;
    for (int c = 0; c < tc.entry->info.schema.num_fields(); ++c) {
      all.push_back(c);
    }
    return LoadBinaryTable(tc.bin_reader.get(), all);
  }

  std::vector<ScanRange> SplitMorsels(const FormatScanContext& tc,
                                      int target_morsels) const override {
    return SplitRowRanges(tc.bin_reader->num_rows(), target_morsels);
  }

  /// Full binary scan; with num_threads > 1, row-range morsels. Binary
  /// morsels know their first row up front, so ids stay global.
  StatusOr<OperatorPtr> BuildScan(FormatScanContext& tc,
                                  const std::vector<int>& cols,
                                  const Schema& qualified) const override {
    TableEntry* entry = tc.entry;
    const TableInfo& info = entry->info;
    const PlannerOptions& opts = *tc.opts;
    (*tc.desc) << "[bin-scan " << info.name << "] ";
    if (opts.access_path == AccessPathKind::kJit) {
      RAW_ASSIGN_OR_RETURN(
          OperatorPtr op,
          BuildKernelScan(tc, ProjectionRequest(info.schema, cols, qualified),
                          /*fused=*/false));
      if (op != nullptr) return op;
    }

    const ScanRange whole = ScanRange::Rows(0, tc.bin_reader->num_rows());
    std::vector<OperatorPtr> children;
    for (const ScanRange& m : PlanMorsels(*this, tc, whole)) {
      BinScanSpec spec;
      spec.outputs = cols;
      spec.batch_rows = opts.batch_rows;
      spec.range = m;
      children.push_back(
          WrapQualified(std::make_unique<InsituBinScanOperator>(
                            tc.bin_reader.get(), std::move(spec)),
                        qualified));
    }
    return MorselScan(tc, qualified, std::move(children));
  }

  StatusOr<RowFetcherPtr> BuildFetcher(FormatScanContext& tc,
                                       const std::vector<int>& cols,
                                       const Schema& qualified) const override {
    TableEntry* entry = tc.entry;
    const TableInfo& info = entry->info;
    if (tc.opts->access_path == AccessPathKind::kJit) {
      FusedPipelineArgs args;
      RAW_ASSIGN_OR_RETURN(
          args.spec,
          SpecFor(info, ProjectionRequest(info.schema, cols, qualified),
                  ScanMode::kByRowIndex));
      if (JitKernelReady(tc, args.spec)) {
        args.output_schema = qualified;
        args.health = tc.health;
        args.file = tc.file.get();
        return RowFetcherPtr(
            std::make_unique<JitRowFetcher>(tc.jit, std::move(args)));
      }
    }
    BinScanSpec spec;
    spec.outputs = cols;
    auto fetcher = std::make_unique<InsituRowFetcher>(tc.bin_reader.get(),
                                                      std::move(spec));
    fetcher->set_fields(qualified);
    return RowFetcherPtr(std::move(fetcher));
  }

  FormatCostParams cost_params(const CostParams& base) const override {
    FormatCostParams p;
    p.read_value = base.bin_read_value;
    p.random_penalty = base.bin_random_penalty;
    return p;
  }

  StatusOr<std::string> EmitJitPipelineSource(
      const PipelineSpec& spec) const override {
    return GenerateBinPipelineSource(spec);
  }

  StatusOr<OperatorPtr> BuildFusedPipeline(
      FormatScanContext& tc, const FusedPipelineRequest& req) const override {
    RAW_ASSIGN_OR_RETURN(OperatorPtr op,
                         BuildKernelScan(tc, req, /*fused=*/true));
    if (op == nullptr) {
      return Status::NotImplemented("fused binary kernel not compiled yet");
    }
    return op;
  }

 private:
  /// `req` as a binary kernel spec: the fixed row width and each file
  /// input's byte offset hard-coded.
  static StatusOr<PipelineSpec> SpecFor(const TableInfo& info,
                                        const FusedPipelineRequest& req,
                                        ScanMode mode) {
    RAW_ASSIGN_OR_RETURN(BinaryLayout layout,
                         BinaryLayout::Create(info.schema));
    PipelineSpec spec = PipelineSpecFor(req);
    spec.format = FileFormat::kBinary;
    spec.scan_mode = mode;
    spec.row_width = layout.row_width();
    for (const PipelineInput& in : req.inputs) {
      if (!in.dense) {
        spec.column_offsets.push_back(layout.ColumnOffset(in.column));
      }
    }
    return spec;
  }

  /// The generated-kernel scan of the whole table for `req` — a
  /// ProjectionRequest (the kJit scan) or a planner fusion request, tagged
  /// `[fused-bin-scan]`. Kernels scan row-range morsels sequentially and
  /// emit global row ids. Null while the kernel compiles (kAuto).
  StatusOr<OperatorPtr> BuildKernelScan(FormatScanContext& tc,
                                        const FusedPipelineRequest& req,
                                        bool fused) const {
    const TableInfo& info = tc.entry->info;
    RAW_ASSIGN_OR_RETURN(PipelineSpec spec,
                         SpecFor(info, req, ScanMode::kSequential));
    if (!JitKernelReady(tc, spec)) return OperatorPtr();
    if (fused) (*tc.desc) << "[fused-bin-scan " << info.name << "] ";

    const Schema out_schema = PipelineOutputSchema(req);
    const ScanRange whole = ScanRange::Rows(0, tc.bin_reader->num_rows());
    std::vector<OperatorPtr> children;
    for (const ScanRange& m : PlanMorsels(*this, tc, whole)) {
      FusedPipelineArgs args;
      args.spec = spec;
      args.output_schema = out_schema;
      args.health = tc.health;
      args.file = tc.file.get();
      args.rows = m;
      args.dense_columns = req.dense_columns;
      args.batch_rows = tc.opts->batch_rows;
      children.push_back(
          std::make_unique<FusedPipelineOperator>(tc.jit, std::move(args)));
    }
    return MorselScan(tc, out_schema, std::move(children));
  }
};

}  // namespace

std::unique_ptr<FormatDriver> MakeBinaryFormatDriver() {
  return std::make_unique<BinaryFormatDriver>();
}

}  // namespace raw
