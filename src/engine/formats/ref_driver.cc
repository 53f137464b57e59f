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
#include "jit/pipeline_codegen.h"
#include "scan/fused_pipeline.h"
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
    if (opts.access_path == AccessPathKind::kJit &&
        !needs_event_id_derivation) {
      RAW_ASSIGN_OR_RETURN(
          OperatorPtr op,
          BuildKernelScan(tc, ProjectionRequest(info.schema, cols, qualified),
                          /*fused=*/false));
      if (op != nullptr) return op;
    }

    std::vector<int> idx(cols.size());
    std::vector<std::string> names;
    for (size_t i = 0; i < cols.size(); ++i) {
      idx[i] = static_cast<int>(i);
      names.push_back(qualified.field(static_cast<int>(i)).name);
    }
    std::vector<OperatorPtr> children;
    for (const ScanRange& m : PlanMorsels(*this, tc, ScanRange::Rows(0, -1))) {
      RefScanSpec spec;
      spec.group = info.ref_group;
      spec.fields = field_names;
      spec.batch_rows = opts.batch_rows;
      spec.range = m;
      children.push_back(std::make_unique<SelectColumnsOperator>(
          std::make_unique<RefTableScanOperator>(entry->ref_reader(),
                                                 std::move(spec)),
          idx, names));
    }
    return MorselScan(tc, qualified, std::move(children));
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
      FusedPipelineArgs args;
      RAW_ASSIGN_OR_RETURN(
          args.spec,
          SpecFor(*entry, ProjectionRequest(info.schema, cols, qualified),
                  ScanMode::kByRowIndex));
      if (JitKernelReady(tc, args.spec)) {
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

  StatusOr<std::string> EmitJitPipelineSource(
      const PipelineSpec& spec) const override {
    return GenerateRefPipelineSource(spec);
  }

  /// Planner fusion of REF tables covers aggregation only: fused REF
  /// projections would change which plans fuse, so they stay interpreted
  /// until measured (kJit scans already run project-mode kernels).
  StatusOr<OperatorPtr> BuildFusedPipeline(
      FormatScanContext& tc, const FusedPipelineRequest& req) const override {
    if (req.mode != PipelineOutputMode::kAggregate) {
      return Status::NotImplemented(
          "fused REF pipelines support aggregation only");
    }
    RAW_ASSIGN_OR_RETURN(OperatorPtr op,
                         BuildKernelScan(tc, req, /*fused=*/true));
    if (op == nullptr) {
      return Status::NotImplemented("fused REF kernel not compiled yet");
    }
    return op;
  }

 private:
  /// `req` as a REF kernel spec. PipelineInput.column holds the *table
  /// column*; file inputs are remapped to the branch indices the generated
  /// read_range calls address.
  static StatusOr<PipelineSpec> SpecFor(const TableEntry& entry,
                                        const FusedPipelineRequest& req,
                                        ScanMode mode) {
    const TableInfo& info = entry.info;
    PipelineSpec spec = PipelineSpecFor(req);
    spec.format = FileFormat::kRef;
    spec.scan_mode = mode;
    for (PipelineInput& in : spec.inputs) {
      if (in.dense) continue;
      const std::string& field = info.schema.field(in.column).name;
      if (field == "eventID" && info.ref_group >= 0) {
        return Status::NotImplemented(
            "generated REF kernels cannot derive eventID");
      }
      RAW_ASSIGN_OR_RETURN(
          in.column, RefBranchFor(*entry.ref_reader(), info.ref_group, field));
    }
    return spec;
  }

  /// The generated-kernel scan of the whole table for `req` — a
  /// ProjectionRequest (the kJit scan) or a planner fusion request, tagged
  /// `[fused-ref-scan]`. Kernels address branches by global flat index and
  /// emit global row ids. Null while the kernel compiles (kAuto).
  StatusOr<OperatorPtr> BuildKernelScan(FormatScanContext& tc,
                                        const FusedPipelineRequest& req,
                                        bool fused) const {
    TableEntry* entry = tc.entry;
    RAW_ASSIGN_OR_RETURN(PipelineSpec spec,
                         SpecFor(*entry, req, ScanMode::kSequential));
    if (!JitKernelReady(tc, spec)) return OperatorPtr();
    if (fused) (*tc.desc) << "[fused-ref-scan " << entry->info.name << "] ";

    const Schema out_schema = PipelineOutputSchema(req);
    std::vector<OperatorPtr> children;
    for (const ScanRange& m :
         PlanMorsels(*this, tc, ScanRange::Rows(0, tc.row_count))) {
      FusedPipelineArgs args;
      args.spec = spec;
      args.output_schema = out_schema;
      args.health = tc.health;
      args.ref_reader = entry->ref_reader();
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

std::unique_ptr<FormatDriver> MakeRefFormatDriver() {
  return std::make_unique<RefFormatDriver>();
}

}  // namespace raw
