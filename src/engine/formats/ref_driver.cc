#include <algorithm>
#include <memory>
#include <string>
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
#include "scan/jit_scan.h"
#include "scan/loader.h"
#include "scan/morsel.h"
#include "scan/ref_scan.h"
#include "scan/shred_scan.h"

namespace raw {
namespace {

int64_t RefTableRows(const TableEntry& entry) {
  return entry.info.ref_group < 0
             ? entry.ref_reader()->num_events()
             : entry.ref_reader()->GroupTotal(entry.info.ref_group);
}

/// Interpreted REF fetcher (handles derived eventID on particle tables).
class RefRowFetcher : public RowFetcher {
 public:
  RefRowFetcher(RefReader* reader, int group, std::vector<std::string> fields,
                Schema qualified_schema)
      : reader_(reader),
        group_(group),
        field_names_(std::move(fields)),
        schema_(std::move(qualified_schema)) {}

  const Schema& fields() const override { return schema_; }

  StatusOr<std::vector<ColumnPtr>> Fetch(const RowSet& rows) override {
    RefScanSpec spec;
    spec.group = group_;
    spec.fields = field_names_;
    spec.row_set = rows;
    spec.batch_rows = std::max<int64_t>(rows.size(), 1);
    RefTableScanOperator op(reader_, std::move(spec));
    RAW_RETURN_NOT_OK(op.Open());
    std::vector<ColumnPtr> out;
    if (rows.empty()) {
      for (const Field& f : schema_.fields()) {
        out.push_back(std::make_shared<Column>(f.type));
      }
      return out;
    }
    RAW_ASSIGN_OR_RETURN(ColumnBatch batch, op.Next());
    for (int c = 0; c < batch.num_columns(); ++c) {
      out.push_back(batch.column(c));
    }
    return out;
  }

 private:
  RefReader* reader_;
  int group_;
  std::vector<std::string> field_names_;
  Schema schema_;
};

class RefFormatDriver final : public FormatDriver {
 public:
  FileFormat format() const override { return FileFormat::kRef; }
  std::string_view name() const override { return "ref"; }

  Status PrepareShared(Catalog& catalog, TableEntry& entry) const override {
    if (entry.HasRefReader()) return Status::OK();
    // First lookup of this REF table: resolve/share the file's reader. The
    // attach is idempotent, so racing lookups are fine.
    RAW_ASSIGN_OR_RETURN(std::shared_ptr<RefReader> reader,
                         catalog.SharedRefReader(entry.info.path));
    entry.AttachRefReader(std::move(reader));
    return Status::OK();
  }

  Status OpenTable(TableEntry& entry) const override {
    if (entry.ref_reader() == nullptr) {
      return Status::Internal("REF reader not attached for table " +
                              entry.info.name);
    }
    entry.StoreRowCount(RefTableRows(entry));
    return Status::OK();
  }

  /// REF row counts refresh on every lookup (the shared reader may serve
  /// several derived tables).
  void RefreshEntry(TableEntry& entry) const override {
    if (entry.ref_reader() != nullptr) entry.StoreRowCount(RefTableRows(entry));
  }

  StatusOr<std::unique_ptr<InMemoryTable>> LoadTable(
      const FormatScanContext& tc) const override {
    const TableEntry& entry = *tc.entry;
    if (entry.info.ref_group < 0) {
      return LoadRefEventTable(entry.ref_reader());
    }
    return LoadRefParticleTable(entry.ref_reader(), entry.info.ref_group);
  }

  /// Morsels split on cluster boundaries of the table's row branch, so
  /// parallel workers decode disjoint cluster sets. Emitted row ids are
  /// file-global already; the driver only re-orders batches.
  std::vector<ScanRange> SplitMorsels(const FormatScanContext& tc,
                                      int target_morsels) const override {
    const RefBranch* row_branch =
        tc.entry->ref_reader()->RowBranch(tc.entry->info.ref_group);
    if (row_branch == nullptr) return {};
    return SplitRefRowRanges(*row_branch, target_morsels);
  }

  StatusOr<OperatorPtr> BuildScan(FormatScanContext& tc,
                                  const std::vector<int>& cols,
                                  const Schema& qualified) const override {
    TableEntry* entry = tc.entry;
    const TableInfo& info = entry->info;
    const PlannerOptions& opts = *tc.opts;
    (*tc.desc) << "[ref-scan " << info.name << "] ";
    std::vector<std::string> field_names;
    bool needs_event_id_derivation = false;
    for (int c : cols) {
      const std::string& f = info.schema.field(c).name;
      field_names.push_back(f);
      if (f == "eventID" && info.ref_group >= 0) {
        needs_event_id_derivation = true;
      }
    }
    bool use_jit = opts.access_path == AccessPathKind::kJit &&
                   !needs_event_id_derivation;
    AccessPathSpec jit_spec;
    if (use_jit) {
      jit_spec.format = FileFormat::kRef;
      jit_spec.mode = ScanMode::kSequential;
      for (size_t i = 0; i < cols.size(); ++i) {
        RAW_ASSIGN_OR_RETURN(
            int branch, RefBranchFor(*entry->ref_reader(), info.ref_group,
                                     field_names[i]));
        jit_spec.outputs.push_back(
            OutputField{branch, info.schema.field(cols[i]).type});
      }
      use_jit = JitKernelReady(tc, jit_spec);
    }

    auto make_jit_args = [&](int64_t first,
                             int64_t count) -> StatusOr<JitScanArgs> {
      JitScanArgs args;
      args.spec = jit_spec;
      args.output_schema = qualified;
      args.health = tc.health;
      args.ref_reader = entry->ref_reader();
      args.first_row = first;
      args.total_rows = first + count;  // REF kernels scan [cursor, total)
      args.batch_rows = opts.batch_rows;
      return args;
    };
    auto make_insitu = [&](int64_t first, int64_t count) -> OperatorPtr {
      RefScanSpec spec;
      spec.group = info.ref_group;
      spec.fields = field_names;
      spec.batch_rows = opts.batch_rows;
      spec.range = ScanRange::Rows(first, count);
      auto op = std::make_unique<RefTableScanOperator>(entry->ref_reader(),
                                                       std::move(spec));
      std::vector<int> idx(cols.size());
      std::vector<std::string> names;
      for (size_t i = 0; i < cols.size(); ++i) {
        idx[i] = static_cast<int>(i);
        names.push_back(qualified.field(static_cast<int>(i)).name);
      }
      return std::make_unique<SelectColumnsOperator>(
          std::move(op), std::move(idx), std::move(names));
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
        if (use_jit) {
          RAW_ASSIGN_OR_RETURN(JitScanArgs args,
                               make_jit_args(m.begin, m.count()));
          children.push_back(
              std::make_unique<JitScanOperator>(tc.jit, std::move(args)));
        } else {
          children.push_back(make_insitu(m.begin, m.count()));
        }
      }
      (*tc.desc) << "[parallel x" << tc.num_threads << " morsels="
                 << morsels.size() << "] ";
      return OperatorPtr(std::make_unique<ParallelTableScanOperator>(
          qualified, std::move(children), std::move(popts)));
    }

    if (use_jit) {
      RAW_ASSIGN_OR_RETURN(JitScanArgs args, make_jit_args(0, tc.row_count));
      return OperatorPtr(
          std::make_unique<JitScanOperator>(tc.jit, std::move(args)));
    }
    return make_insitu(0, -1);
  }

  StatusOr<RowFetcherPtr> BuildFetcher(FormatScanContext& tc,
                                       const std::vector<int>& cols,
                                       const Schema& qualified) const override {
    TableEntry* entry = tc.entry;
    const TableInfo& info = entry->info;
    std::vector<std::string> field_names;
    bool derived_event_id = false;
    for (int c : cols) {
      field_names.push_back(info.schema.field(c).name);
      if (field_names.back() == "eventID" && info.ref_group >= 0) {
        derived_event_id = true;
      }
    }
    if (tc.opts->access_path == AccessPathKind::kJit && !derived_event_id) {
      AccessPathSpec spec;
      spec.format = FileFormat::kRef;
      spec.mode = ScanMode::kByRowIndex;
      for (size_t i = 0; i < cols.size(); ++i) {
        RAW_ASSIGN_OR_RETURN(
            int branch, RefBranchFor(*entry->ref_reader(), info.ref_group,
                                     field_names[i]));
        spec.outputs.push_back(
            OutputField{branch, info.schema.field(cols[i]).type});
      }
      if (JitKernelReady(tc, spec)) {
        JitScanArgs args;
        args.spec = std::move(spec);
        args.output_schema = qualified;
        args.health = tc.health;
        args.ref_reader = entry->ref_reader();
        return RowFetcherPtr(
            std::make_unique<JitRowFetcher>(tc.jit, std::move(args)));
      }
    }
    return RowFetcherPtr(std::make_unique<RefRowFetcher>(
        entry->ref_reader(), info.ref_group, field_names, qualified));
  }

  FormatCostParams cost_params(const CostParams& base) const override {
    FormatCostParams p;
    p.read_value = base.ref_api_value;
    return p;
  }

  StatusOr<std::string> EmitJitSource(const AccessPathSpec& spec) const override {
    return GenerateRefScanSource(spec);
  }

  StatusOr<std::string> EmitJitPipelineSource(
      const PipelineSpec& spec) const override {
    return GenerateRefPipelineSource(spec);
  }

  /// Fused REF pipelines support aggregation only (the bulk-decode API has
  /// no output-compaction path for projections). PipelineInput.column holds
  /// the *table column*; this hook remaps file inputs to branch indices,
  /// which is what the generated read_range calls address.
  StatusOr<OperatorPtr> BuildFusedPipeline(
      FormatScanContext& tc, const FusedPipelineRequest& req) const override {
    TableEntry* entry = tc.entry;
    const TableInfo& info = entry->info;
    const PlannerOptions& opts = *tc.opts;
    if (req.mode != PipelineOutputMode::kAggregate) {
      return Status::NotImplemented(
          "fused REF pipelines support aggregation only");
    }
    PipelineSpec spec;
    spec.scan.format = FileFormat::kRef;
    spec.scan.mode = ScanMode::kSequential;
    spec.inputs = req.inputs;
    for (PipelineInput& in : spec.inputs) {
      if (in.dense) continue;
      const std::string& field = info.schema.field(in.column).name;
      if (field == "eventID" && info.ref_group >= 0) {
        return Status::NotImplemented(
            "fused REF pipelines cannot derive eventID");
      }
      RAW_ASSIGN_OR_RETURN(
          int branch,
          RefBranchFor(*entry->ref_reader(), info.ref_group, field));
      in.column = branch;
      spec.scan.outputs.push_back(OutputField{branch, in.type});
    }
    spec.predicates = req.predicates;
    spec.mode = req.mode;
    spec.projections = req.projections;
    spec.aggs = req.aggs;
    Schema out_schema = FusedAggPartialSchema(req.aggs);
    if (!JitKernelReady(tc, spec)) {
      return Status::NotImplemented("fused REF kernel not compiled yet");
    }
    (*tc.desc) << "[fused-ref-scan " << info.name << "] ";

    auto make_args = [&](int64_t first, int64_t count) {
      FusedPipelineArgs args;
      args.spec = spec;
      args.output_schema = out_schema;
      args.health = tc.health;
      args.ref_reader = entry->ref_reader();
      args.first_row = first;
      args.total_rows = first + count;  // REF kernels scan [cursor, total)
      args.dense_columns = req.dense_columns;
      args.batch_rows = opts.batch_rows;
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
        tc.jit, make_args(0, tc.row_count)));
  }
};

}  // namespace

std::unique_ptr<FormatDriver> MakeRefFormatDriver() {
  return std::make_unique<RefFormatDriver>();
}

}  // namespace raw
