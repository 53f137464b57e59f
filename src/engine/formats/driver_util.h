#ifndef RAW_ENGINE_FORMATS_DRIVER_UTIL_H_
#define RAW_ENGINE_FORMATS_DRIVER_UTIL_H_

#include <memory>
#include <string>
#include <vector>

#include "columnar/operator.h"
#include "engine/catalog.h"

namespace raw {

/// Plan glue shared by format drivers and the planner: schema-shaping
/// operators and helpers that are format-agnostic but sit right at the
/// driver/planner seam (every BuildScan renames its outputs with these).

/// Zero-copy column subset + rename.
class SelectColumnsOperator : public Operator {
 public:
  SelectColumnsOperator(OperatorPtr child, std::vector<int> indices,
                        std::vector<std::string> names);

  const Schema& output_schema() const override { return schema_; }
  Status Open() override;
  StatusOr<ColumnBatch> Next() override;
  Status Close() override { return child_->Close(); }
  std::string name() const override { return "SelectColumns"; }

 private:
  OperatorPtr child_;
  std::vector<int> indices_;
  std::vector<std::string> names_;
  Schema schema_;
};

/// Owns the adaptive structure a cold scan is building for this query under
/// the table's build claim for `slot` (a positional map or the driver's
/// format state) and publishes it with the version the query pinned once
/// the scan drains completely and the structure checks consistent. It stays
/// private to the query until then, so concurrent sessions never observe a
/// half-built one; a partial scan (LIMIT, error, dropped cursor) abandons
/// the claim instead, letting a later query rebuild.
class BuildPublishOperator : public Operator {
 public:
  BuildPublishOperator(OperatorPtr child, const FormatScanContext& ctx,
                       AdaptiveSlot slot);
  ~BuildPublishOperator() override { Finish(/*publish=*/false); }

  const Schema& output_schema() const override {
    return child_->output_schema();
  }
  Status Open() override { return child_->Open(); }
  StatusOr<ColumnBatch> Next() override;
  Status Close() override;
  std::string name() const override { return "BuildPublish"; }

 private:
  void Finish(bool publish);

  OperatorPtr child_;
  TableEntry* entry_;
  int64_t version_;
  AdaptiveSlot slot_;
  std::shared_ptr<const FormatAdaptiveState> state_;
  bool drained_ = false;
  bool finished_ = false;
};

/// This query's positional-map build: the map it holds already, or a fresh
/// one under a newly taken claim; false when another query holds the claim
/// or the table's map is published.
bool ClaimPmapBuild(FormatScanContext& tc);

/// Qualified ("<table>.<column>") output schema for table columns.
Schema QualifiedSchema(const TableEntry& entry, const std::vector<int>& cols);

/// Zero-copy rename of a scan's outputs to their qualified names.
OperatorPtr WrapQualified(OperatorPtr op, const Schema& qualified);

/// True when any of `cols` is variable-length. JIT kernels only materialize
/// fixed-width values; string columns take the interpreted path.
bool AnyStringColumn(const Schema& schema, const std::vector<int>& cols);

/// The morsels a scan of `ctx`'s table runs: the driver's split into
/// ~4 × num_threads ranges when the plan is parallel, else (or when the
/// split yields at most one) just `whole`.
std::vector<ScanRange> PlanMorsels(const FormatDriver& driver,
                                   const FormatScanContext& ctx,
                                   ScanRange whole);

/// `children` (one per morsel, each emitting `schema`) as one scan: the
/// only child itself, or a ParallelTableScanOperator over them on
/// ctx.num_threads workers, noted as `[parallel xN morsels=M]`.
OperatorPtr MorselScan(FormatScanContext& ctx, const Schema& schema,
                       std::vector<OperatorPtr> children);

/// Whether the plan may use the generated kernel for `spec` now. Under
/// JitFusion::kAuto this asks the template cache without blocking; a kernel
/// that is not compiled yet is queued for the background compiler, the plan
/// says why (`[jit: compiling]`, `[jit: no compiler]`, `[jit: compile
/// failed]`), `ctx.jit_deferred` is set, and the caller builds the
/// interpreted twin instead. Under kOn and kOff always true: the generated
/// operator compiles at Open() and the query waits for it.
bool JitKernelReady(FormatScanContext& ctx, const PipelineSpec& spec);

}  // namespace raw

#endif  // RAW_ENGINE_FORMATS_DRIVER_UTIL_H_
