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
#include "scan/loader.h"
#include "scan/morsel.h"
#include "scan/shred_scan.h"

namespace raw {
namespace {

/// The interpreted JSONL scan of `cols`, outputs renamed to `qualified`.
/// `spec` carries the access path (morsel range, map to build or follow).
OperatorPtr JsonlScan(FormatScanContext& tc, const std::vector<int>& cols,
                      const Schema& qualified, JsonlScanSpec spec) {
  spec.file_schema = tc.entry->info.schema;
  spec.outputs = cols;
  spec.batch_rows = tc.opts->batch_rows;
  spec.health = tc.health;
  return WrapQualified(
      std::make_unique<JsonlScanOperator>(tc.file.get(), std::move(spec)),
      qualified);
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
    return Drain(&scan);
  }

  /// Same protocol as CSV: a published field-offset map, or the right to
  /// build one as a side effect of this query's base scan.
  bool EnsureLateScanNavigable(FormatScanContext& tc) const override {
    return PmapLateScanNavigable(tc);
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

  /// Cold (and external-table) scans read the file sequentially, building
  /// the field-offset map en route, over byte morsels when parallel; warm
  /// scans jump to every mapped value, over row-range morsels whose ids are
  /// file-global already.
  StatusOr<OperatorPtr> BuildScan(FormatScanContext& tc,
                                  const std::vector<int>& cols,
                                  const Schema& qualified) const override {
    // The external-table baseline re-parses per query even when a map has
    // been published, so its morsels must stay byte-addressed.
    if (!tc.has_complete_pmap() ||
        tc.opts->access_path == AccessPathKind::kExternalTable) {
      std::vector<ScanRange> morsels;
      if (tc.num_threads > 1) {
        morsels = SplitJsonlByteRanges(tc.file->data(), tc.file->size(),
                                       tc.num_threads * 4);
      }
      PositionalMap* build = BeginMapBuildingScan(tc);
      return MapBuildingScan(
          tc, qualified, build, morsels,
          [&](const ScanRange& range, PositionalMap* build_pmap) {
            JsonlScanSpec spec;
            spec.policy = tc.opts->malformed_row_policy;
            spec.build_pmap = build_pmap;
            spec.range = range;
            return JsonlScan(tc, cols, qualified, std::move(spec));
          });
    }
    (*tc.desc) << "[offset-scan " << tc.entry->info.name << "] ";
    std::vector<OperatorPtr> children;
    for (const ScanRange& m : PlanMorsels(*this, tc, ScanRange::Whole())) {
      JsonlScanSpec spec;
      spec.use_pmap = tc.published_pmap.get();
      spec.range = m;
      children.push_back(JsonlScan(tc, cols, qualified, std::move(spec)));
    }
    return MorselScan(tc, qualified, std::move(children));
  }

  /// Fetches through the field-offset map this query navigates.
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
    return RowFetcherPtr(std::make_unique<ScanRowFetcher>(
        qualified,
        ScanOverRows<JsonlScanOperator>(tc.file.get(), std::move(spec))));
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
