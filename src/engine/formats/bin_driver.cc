#include <memory>
#include <utility>
#include <vector>

#include "engine/cost_model.h"
#include "engine/executor.h"
#include "engine/formats/driver_util.h"
#include "engine/formats/drivers.h"
#include "engine/physical_plan.h"
#include "jit/codegen.h"
#include "jit/pipeline_codegen.h"
#include "scan/fused_pipeline.h"
#include "scan/insitu_bin_scan.h"
#include "scan/jit_scan.h"
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
  /// morsels know their first row up front, so ids stay global (JIT kernels
  /// emit window-local ids that JitScanOperator rebases by row_id_offset).
  StatusOr<OperatorPtr> BuildScan(FormatScanContext& tc,
                                  const std::vector<int>& cols,
                                  const Schema& qualified) const override {
    TableEntry* entry = tc.entry;
    const TableInfo& info = entry->info;
    const PlannerOptions& opts = *tc.opts;
    (*tc.desc) << "[bin-scan " << info.name << "] ";

    std::vector<ScanRange> morsels;
    if (tc.num_threads > 1) {
      morsels = SplitMorsels(tc, tc.num_threads * 4);
    }

    RAW_ASSIGN_OR_RETURN(BinaryLayout layout,
                         BinaryLayout::Create(info.schema));
    AccessPathSpec jit_spec;
    jit_spec.format = FileFormat::kBinary;
    jit_spec.mode = ScanMode::kSequential;
    jit_spec.row_width = layout.row_width();
    for (int c : cols) {
      jit_spec.outputs.push_back(OutputField{c, info.schema.field(c).type});
      jit_spec.column_offsets.push_back(layout.ColumnOffset(c));
    }
    if (opts.access_path == AccessPathKind::kJit &&
        JitKernelReady(tc, jit_spec)) {
      auto make_jit_args = [&](int64_t first, int64_t count) {
        JitScanArgs args;
        args.spec = jit_spec;
        args.output_schema = qualified;
        args.health = tc.health;
        args.file = tc.file.get();
        args.total_rows = count;
        args.batch_rows = opts.batch_rows;
        if (first > 0 || count < tc.bin_reader->num_rows()) {
          const uint64_t width = static_cast<uint64_t>(layout.row_width());
          args.window_begin = static_cast<uint64_t>(first) * width;
          args.window_end = static_cast<uint64_t>(first + count) * width;
          args.row_id_offset = first;
        }
        return args;
      };
      if (morsels.size() > 1) {
        ParallelTableScanOperator::Options popts;
        popts.deadline = tc.opts->deadline;
        popts.num_threads = tc.num_threads;
        std::vector<OperatorPtr> children;
        for (const ScanRange& m : morsels) {
          children.push_back(std::make_unique<JitScanOperator>(
              tc.jit, make_jit_args(m.begin, m.count())));
        }
        (*tc.desc) << "[parallel x" << tc.num_threads << " morsels="
                   << morsels.size() << "] ";
        return OperatorPtr(std::make_unique<ParallelTableScanOperator>(
            qualified, std::move(children), std::move(popts)));
      }
      return OperatorPtr(std::make_unique<JitScanOperator>(
          tc.jit, make_jit_args(0, tc.bin_reader->num_rows())));
    }

    auto make_insitu = [&](int64_t first, int64_t count) {
      BinScanSpec spec;
      spec.outputs = cols;
      spec.batch_rows = opts.batch_rows;
      spec.range = ScanRange::Rows(first, count);
      return WrapQualified(std::make_unique<InsituBinScanOperator>(
                               tc.bin_reader.get(), std::move(spec)),
                           qualified);
    };
    if (morsels.size() > 1) {
      ParallelTableScanOperator::Options popts;
      popts.deadline = tc.opts->deadline;
      popts.num_threads = tc.num_threads;
      std::vector<OperatorPtr> children;
      for (const ScanRange& m : morsels) {
        children.push_back(make_insitu(m.begin, m.count()));
      }
      (*tc.desc) << "[parallel x" << tc.num_threads << " morsels="
                 << morsels.size() << "] ";
      return OperatorPtr(std::make_unique<ParallelTableScanOperator>(
          qualified, std::move(children), std::move(popts)));
    }
    return make_insitu(0, tc.bin_reader->num_rows());
  }

  StatusOr<RowFetcherPtr> BuildFetcher(FormatScanContext& tc,
                                       const std::vector<int>& cols,
                                       const Schema& qualified) const override {
    TableEntry* entry = tc.entry;
    const TableInfo& info = entry->info;
    if (tc.opts->access_path == AccessPathKind::kJit) {
      RAW_ASSIGN_OR_RETURN(BinaryLayout layout,
                           BinaryLayout::Create(info.schema));
      AccessPathSpec spec;
      spec.format = FileFormat::kBinary;
      spec.mode = ScanMode::kByRowIndex;
      spec.row_width = layout.row_width();
      for (int c : cols) {
        spec.outputs.push_back(OutputField{c, info.schema.field(c).type});
        spec.column_offsets.push_back(layout.ColumnOffset(c));
      }
      if (JitKernelReady(tc, spec)) {
        JitScanArgs args;
        args.spec = std::move(spec);
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

  StatusOr<std::string> EmitJitSource(const AccessPathSpec& spec) const override {
    return GenerateBinScanSource(spec);
  }

  StatusOr<std::string> EmitJitPipelineSource(
      const PipelineSpec& spec) const override {
    return GenerateBinPipelineSource(spec);
  }

  /// Fused binary pipelines scan row ranges sequentially; kernels emit
  /// global row ids via dense_row_base, so morsel children need no rebase.
  StatusOr<OperatorPtr> BuildFusedPipeline(
      FormatScanContext& tc, const FusedPipelineRequest& req) const override {
    TableEntry* entry = tc.entry;
    const TableInfo& info = entry->info;
    const PlannerOptions& opts = *tc.opts;
    RAW_ASSIGN_OR_RETURN(BinaryLayout layout,
                         BinaryLayout::Create(info.schema));

    PipelineSpec spec;
    spec.scan.format = FileFormat::kBinary;
    spec.scan.mode = ScanMode::kSequential;
    spec.scan.row_width = layout.row_width();
    for (const PipelineInput& in : req.inputs) {
      if (in.dense) continue;
      spec.scan.outputs.push_back(OutputField{in.column, in.type});
      spec.scan.column_offsets.push_back(layout.ColumnOffset(in.column));
    }
    spec.inputs = req.inputs;
    spec.predicates = req.predicates;
    spec.mode = req.mode;
    spec.projections = req.projections;
    spec.aggs = req.aggs;
    Schema out_schema = req.mode == PipelineOutputMode::kAggregate
                            ? FusedAggPartialSchema(req.aggs)
                            : req.output_schema;
    if (!JitKernelReady(tc, spec)) {
      return Status::NotImplemented("fused binary kernel not compiled yet");
    }
    (*tc.desc) << "[fused-bin-scan " << info.name << "] ";

    const int64_t num_rows = tc.bin_reader->num_rows();
    auto make_args = [&](int64_t first, int64_t count) {
      FusedPipelineArgs args;
      args.spec = spec;
      args.output_schema = out_schema;
      args.health = tc.health;
      args.file = tc.file.get();
      args.total_rows = count;
      args.dense_row_base = first;
      args.dense_columns = req.dense_columns;
      args.batch_rows = opts.batch_rows;
      if (first > 0 || count < num_rows) {
        const uint64_t width = static_cast<uint64_t>(layout.row_width());
        args.window_begin = static_cast<uint64_t>(first) * width;
        args.window_end = static_cast<uint64_t>(first + count) * width;
      }
      return args;
    };

    std::vector<ScanRange> morsels;
    if (tc.num_threads > 1) {
      morsels = SplitMorsels(tc, tc.num_threads * 4);
    }
    if (morsels.size() > 1) {
      ParallelTableScanOperator::Options popts;
      popts.deadline = tc.opts->deadline;
      popts.num_threads = tc.num_threads;
      std::vector<OperatorPtr> children;
      for (const ScanRange& m : morsels) {
        children.push_back(std::make_unique<FusedPipelineOperator>(
            tc.jit, make_args(m.begin, m.count())));
      }
      (*tc.desc) << "[parallel x" << tc.num_threads << " morsels="
                 << morsels.size() << "] ";
      return OperatorPtr(std::make_unique<ParallelTableScanOperator>(
          out_schema, std::move(children), std::move(popts)));
    }
    return OperatorPtr(std::make_unique<FusedPipelineOperator>(
        tc.jit, make_args(0, num_rows)));
  }
};

}  // namespace

std::unique_ptr<FormatDriver> MakeBinaryFormatDriver() {
  return std::make_unique<BinaryFormatDriver>();
}

}  // namespace raw
