#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "engine/cost_model.h"
#include "engine/executor.h"
#include "engine/formats/driver_util.h"
#include "engine/formats/drivers.h"
#include "engine/physical_plan.h"
#include "jsonl/jsonl_scan.h"
#include "scan/morsel.h"
#include "scan/shred_scan.h"

namespace raw {
namespace {

/// First-contact JSONL scan: sequential, building the field-offset map en
/// route (same claim/publish protocol as the CSV positional map — the map
/// machinery is format-agnostic; only what the offsets *mean* differs).
StatusOr<OperatorPtr> BuildJsonlSequentialScan(FormatScanContext& tc,
                                               const std::vector<int>& cols,
                                               const Schema& qualified,
                                               std::vector<ScanRange> morsels) {
  TableEntry* entry = tc.entry;
  const TableInfo& info = entry->info;
  const PlannerOptions& opts = *tc.opts;
  PositionalMap* build = nullptr;
  if (opts.access_path != AccessPathKind::kExternalTable &&
      opts.build_positional_map && !tc.has_complete_pmap() &&
      !tc.pmap_build_wired && ClaimPmapBuild(tc)) {
    tc.pmap_build_wired = true;
    build = tc.building_pmap.get();
  }
  (*tc.desc) << "[seq-scan " << info.name << "] ";

  auto make_spec = [&] {
    JsonlScanSpec spec;
    spec.file_schema = info.schema;
    spec.outputs = cols;
    spec.batch_rows = opts.batch_rows;
    spec.policy = opts.malformed_row_policy;
    spec.health = tc.health;
    return spec;
  };
  auto wrap_publish = [&](OperatorPtr op) -> OperatorPtr {
    if (build == nullptr) return op;
    return std::make_unique<BuildPublishOperator>(
        std::move(op), tc, AdaptiveSlot::kPositionalMap);
  };

  if (morsels.size() > 1) {
    ParallelTableScanOperator::Options popts;
    popts.deadline = tc.opts->deadline;
    popts.num_threads = tc.num_threads;
    popts.rebase_row_ids = true;  // morsel children emit range-local ids
    popts.merge_pmap_into = build;
    std::vector<OperatorPtr> children;
    for (const ScanRange& m : morsels) {
      PositionalMap* child_pmap = nullptr;
      if (build != nullptr) {
        popts.partial_pmaps.push_back(
            std::make_unique<PositionalMap>(PositionalMap::WithStride(
                info.schema.num_fields(), info.pmap_stride)));
        child_pmap = popts.partial_pmaps.back().get();
      }
      JsonlScanSpec spec = make_spec();
      spec.build_pmap = child_pmap;
      spec.range = m;
      children.push_back(WrapQualified(
          std::make_unique<JsonlScanOperator>(tc.file.get(), std::move(spec)),
          qualified));
    }
    (*tc.desc) << "[parallel x" << tc.num_threads << " morsels="
               << morsels.size() << "] ";
    return wrap_publish(std::make_unique<ParallelTableScanOperator>(
        qualified, std::move(children), std::move(popts)));
  }

  JsonlScanSpec spec = make_spec();
  spec.build_pmap = build;
  return wrap_publish(WrapQualified(
      std::make_unique<JsonlScanOperator>(tc.file.get(), std::move(spec)),
      qualified));
}

/// Warm JSONL scan: jump to every mapped value offset. With num_threads > 1
/// the mapped rows split into row-range morsels; ids are file-global, so no
/// rebasing is needed.
StatusOr<OperatorPtr> BuildJsonlPositionalScan(FormatScanContext& tc,
                                               const std::vector<int>& cols,
                                               const Schema& qualified,
                                               std::vector<ScanRange> morsels) {
  TableEntry* entry = tc.entry;
  const TableInfo& info = entry->info;
  const PlannerOptions& opts = *tc.opts;
  const PositionalMap& pmap = *tc.published_pmap;
  (*tc.desc) << "[offset-scan " << info.name << "] ";

  auto make_insitu = [&](const ScanRange& rows) {
    JsonlScanSpec spec;
    spec.file_schema = info.schema;
    spec.outputs = cols;
    spec.batch_rows = opts.batch_rows;
    spec.use_pmap = &pmap;
    spec.range = rows;
    spec.health = tc.health;
    return WrapQualified(
        std::make_unique<JsonlScanOperator>(tc.file.get(), std::move(spec)),
        qualified);
  };

  if (morsels.size() > 1) {
    ParallelTableScanOperator::Options popts;
    popts.deadline = tc.opts->deadline;
    popts.num_threads = tc.num_threads;
    std::vector<OperatorPtr> children;
    for (const ScanRange& m : morsels) children.push_back(make_insitu(m));
    (*tc.desc) << "[parallel x" << tc.num_threads << " morsels="
               << morsels.size() << "] ";
    return OperatorPtr(std::make_unique<ParallelTableScanOperator>(
        qualified, std::move(children), std::move(popts)));
  }
  return StatusOr<OperatorPtr>(make_insitu(ScanRange::Whole()));
}

class JsonlFormatDriver final : public FormatDriver {
 public:
  FileFormat format() const override { return FileFormat::kJsonl; }
  std::string_view name() const override { return "jsonl"; }

  Status OpenTable(TableEntry& entry) const override {
    return entry.EnsureMmap().status();
  }

  StatusOr<std::unique_ptr<InMemoryTable>> LoadTable(
      const FormatScanContext& tc) const override {
    JsonlScanSpec spec;
    spec.file_schema = tc.entry->info.schema;
    for (int c = 0; c < spec.file_schema.num_fields(); ++c) {
      spec.outputs.push_back(c);
    }
    JsonlScanOperator scan(tc.file.get(), std::move(spec));
    RAW_RETURN_NOT_OK(scan.Open());
    auto table = std::make_unique<InMemoryTable>(scan.output_schema());
    while (true) {
      RAW_ASSIGN_OR_RETURN(ColumnBatch batch, scan.Next());
      if (batch.end_of_stream()) break;
      if (batch.empty()) continue;
      RAW_RETURN_NOT_OK(table->AppendBatch(batch));
    }
    RAW_RETURN_NOT_OK(scan.Close());
    return table;
  }

  /// Same protocol as CSV: a published field-offset map, or the right to
  /// build one as a side effect of this query's base scan.
  bool EnsureLateScanNavigable(FormatScanContext& tc) const override {
    const PlannerOptions& opts = *tc.opts;
    if (tc.has_complete_pmap()) return true;
    if (opts.access_path == AccessPathKind::kLoaded ||
        opts.access_path == AccessPathKind::kExternalTable ||
        !opts.build_positional_map) {
      return false;
    }
    return ClaimPmapBuild(tc);
  }

  int EstimateSkipDistance(const FormatScanContext& tc) const override {
    if (!tc.has_complete_pmap()) return 0;
    const PositionalMap& pmap = *tc.published_pmap;
    const int num_fields = tc.entry->info.schema.num_fields();
    if (!pmap.keys_in_schema_order() && pmap.num_tracked() < num_fields) {
      // Untracked values re-parse from the row start, so the typical "skip"
      // is about half the object's keys.
      return num_fields / 2;
    }
    // Keys in schema order: walks start at the nearest tracked value, as the
    // CSV anchor does — half the tracking stride.
    const auto& tracked = pmap.tracked_columns();
    const int stride =
        tracked.size() > 1 ? tracked[1] - tracked[0] : num_fields;
    return stride / 2;
  }

  std::vector<ScanRange> SplitMorsels(const FormatScanContext& tc,
                                      int target_morsels) const override {
    if (tc.has_complete_pmap()) {
      return SplitPmapRowRanges(*tc.published_pmap, target_morsels);
    }
    return SplitJsonlByteRanges(tc.file->data(), tc.file->size(),
                                target_morsels);
  }

  StatusOr<OperatorPtr> BuildScan(FormatScanContext& tc,
                                  const std::vector<int>& cols,
                                  const Schema& qualified) const override {
    // The external-table baseline re-parses per query even when a map has
    // been published, so its morsels must stay byte-addressed.
    const bool sequential =
        !tc.has_complete_pmap() ||
        tc.opts->access_path == AccessPathKind::kExternalTable;
    std::vector<ScanRange> morsels;
    if (tc.num_threads > 1) {
      if (sequential) {
        morsels = SplitJsonlByteRanges(tc.file->data(), tc.file->size(),
                                       tc.num_threads * 4);
      } else {
        morsels = SplitMorsels(tc, tc.num_threads * 4);
      }
    }
    if (sequential) {
      return BuildJsonlSequentialScan(tc, cols, qualified, std::move(morsels));
    }
    return BuildJsonlPositionalScan(tc, cols, qualified, std::move(morsels));
  }

  StatusOr<RowFetcherPtr> BuildFetcher(FormatScanContext& tc,
                                       const std::vector<int>& cols,
                                       const Schema& qualified) const override {
    const PositionalMap* pmap = tc.pmap_view();
    if (pmap == nullptr) {
      return Status::Internal(
          "JSONL late scan requires a field-offset map (none configured)");
    }
    JsonlScanSpec spec;
    spec.file_schema = tc.entry->info.schema;
    spec.outputs = cols;
    spec.use_pmap = pmap;
    spec.health = tc.health;
    auto fetcher =
        std::make_unique<JsonlRowFetcher>(tc.file.get(), std::move(spec));
    fetcher->set_fields(qualified);
    return RowFetcherPtr(std::move(fetcher));
  }

  FormatCostParams cost_params(const CostParams& base) const override {
    FormatCostParams p;
    // Keys ride along with every value, so tokenizing one JSONL field costs
    // more than one CSV field; jumps resolve through the same offset map.
    p.read_value = base.csv_parse_field * 1.5;
    p.jump = base.csv_jump;
    p.skip_field = base.csv_skip_field;
    p.random_penalty = base.bin_random_penalty * 4;
    // An untracked fetch walks (or parses) across the neighbouring values
    // anyway, so extra columns in the same late scan are nearly free.
    p.colocated_shreds = true;
    return p;
  }
};

}  // namespace

std::unique_ptr<FormatDriver> MakeJsonlFormatDriver() {
  return std::make_unique<JsonlFormatDriver>();
}

}  // namespace raw
