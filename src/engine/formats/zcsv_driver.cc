#include <memory>
#include <utility>
#include <vector>

#include "engine/cost_model.h"
#include "engine/executor.h"
#include "engine/formats/driver_util.h"
#include "engine/formats/drivers.h"
#include "engine/physical_plan.h"
#include "scan/loader.h"
#include "scan/morsel.h"
#include "zcsv/zcsv_scan.h"

namespace raw {
namespace {

class CsvGzFormatDriver final : public FormatDriver {
 public:
  FileFormat format() const override { return FileFormat::kCsvGz; }
  std::string_view name() const override { return "csv.gz"; }

  Status OpenTable(TableEntry& entry) const override {
    return entry.EnsureMmap().status();
  }

  StatusOr<std::unique_ptr<InMemoryTable>> LoadTable(
      const FormatScanContext& tc) const override {
    ZcsvScanSpec spec;
    spec.file_schema = tc.entry->info.schema;
    for (int c = 0; c < spec.file_schema.num_fields(); ++c) {
      spec.outputs.push_back(c);
    }
    spec.options = tc.entry->info.csv_options;
    ZcsvScanOperator scan(tc.file.get(), std::move(spec));
    return Drain(&scan);
  }

  /// A late fetch inflates every gzip member holding a wanted row, and at
  /// ~500 rows per member almost any filter touches every member: the fetch
  /// would inflate the whole file a second time. Queries therefore read all
  /// their columns in the base scan (whose cold pass still builds the block
  /// index).
  std::string_view FullColumnsReason(
      const FormatScanContext& /*tc*/) const override {
    return "late fetches re-inflate members";
  }

  std::vector<ScanRange> SplitMorsels(const FormatScanContext& tc,
                                      int target_morsels) const override {
    // Warm scans parallelize over blocks (each decompresses independently);
    // cold scans are serial — members are discovered in file order.
    if (tc.format_state == nullptr) return {};
    const auto* index =
        static_cast<const GzipBlockIndex*>(tc.format_state.get());
    return SplitRowRanges(index->num_blocks(), target_morsels,
                          /*min_rows=*/1);
  }

  StatusOr<OperatorPtr> BuildScan(FormatScanContext& tc,
                                  const std::vector<int>& cols,
                                  const Schema& qualified) const override {
    TableEntry* entry = tc.entry;
    const TableInfo& info = entry->info;
    const PlannerOptions& opts = *tc.opts;

    auto make_spec = [&] {
      ZcsvScanSpec spec;
      spec.file_schema = info.schema;
      spec.outputs = cols;
      spec.options = info.csv_options;
      spec.batch_rows = opts.batch_rows;
      spec.policy = opts.malformed_row_policy;
      spec.health = tc.health;
      return spec;
    };

    // The external-table baseline re-decompresses and re-parses per query,
    // building nothing — even when an index has been published. Warm
    // children emit file-global row ids (rebased per block inside the
    // operator), so the parallel driver does not rebase.
    if (tc.format_state != nullptr &&
        opts.access_path != AccessPathKind::kExternalTable) {
      const auto* index =
          static_cast<const GzipBlockIndex*>(tc.format_state.get());
      (*tc.desc) << "[zcsv-scan " << info.name << " blocks="
                 << index->num_blocks() << "] ";
      std::vector<OperatorPtr> children;
      for (const ScanRange& m : PlanMorsels(*this, tc, ScanRange::Whole())) {
        ZcsvScanSpec spec = make_spec();
        spec.index = index;
        spec.range = m;
        children.push_back(WrapQualified(
            std::make_unique<ZcsvScanOperator>(tc.file.get(), std::move(spec)),
            qualified));
      }
      return MorselScan(tc, qualified, std::move(children));
    }

    // Cold scan: serial member-by-member streaming decompress, building the
    // block index en route when this query can claim the build.
    GzipBlockIndex* build = nullptr;
    if (opts.access_path != AccessPathKind::kExternalTable &&
        opts.build_positional_map && tc.format_state == nullptr &&
        !tc.format_state_build_wired &&
        tc.entry->TryClaimBuild(AdaptiveSlot::kFormatState, tc.version)) {
      auto index = std::make_shared<GzipBlockIndex>();
      build = index.get();
      tc.building_format_state = std::move(index);
      tc.format_state_build_wired = true;
    }
    (*tc.desc) << "[zcsv-scan " << info.name << " cold] ";
    ZcsvScanSpec spec = make_spec();
    spec.build_index = build;
    OperatorPtr op = WrapQualified(
        std::make_unique<ZcsvScanOperator>(tc.file.get(), std::move(spec)),
        qualified);
    if (build != nullptr) {
      op = std::make_unique<BuildPublishOperator>(std::move(op), tc,
                                                  AdaptiveSlot::kFormatState);
    }
    return op;
  }

  FormatCostParams cost_params(const CostParams& base) const override {
    FormatCostParams p;
    p.read_value = base.csv_parse_field;
    // A positional jump lands on a compressed block: reaching one row pays
    // an (amortized) member decompression on top of the CSV field walk.
    p.jump = base.csv_jump * 16;
    p.skip_field = base.csv_skip_field;
    p.random_penalty = base.bin_random_penalty * 8;
    // Once a block is decompressed for one column, sibling columns of the
    // same rows ride along nearly free.
    p.colocated_shreds = true;
    return p;
  }
};

}  // namespace

std::unique_ptr<FormatDriver> MakeCsvGzFormatDriver() {
  return std::make_unique<CsvGzFormatDriver>();
}

}  // namespace raw
