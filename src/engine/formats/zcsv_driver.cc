#include <memory>
#include <utility>
#include <vector>

#include "engine/cost_model.h"
#include "engine/executor.h"
#include "engine/formats/driver_util.h"
#include "engine/formats/drivers.h"
#include "engine/physical_plan.h"
#include "scan/morsel.h"
#include "scan/shred_scan.h"
#include "zcsv/zcsv_scan.h"

namespace raw {
namespace {

/// This query's block-index build: the one it holds already, or a fresh
/// claim; false when another query holds the claim or the index is
/// published.
bool ClaimIndexBuild(FormatScanContext& tc) {
  if (tc.building_format_state != nullptr) return true;
  if (!tc.entry->TryClaimBuild(AdaptiveSlot::kFormatState, tc.version)) {
    return false;
  }
  tc.building_format_state = std::make_shared<GzipBlockIndex>();
  return true;
}

const GzipBlockIndex* IndexView(const FormatScanContext& tc) {
  if (tc.format_state != nullptr) {
    return static_cast<const GzipBlockIndex*>(tc.format_state.get());
  }
  return static_cast<const GzipBlockIndex*>(tc.building_format_state.get());
}

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

  /// A late fetch inflates every gzip member holding a wanted row, and at
  /// ~500 rows per member almost any filter touches every member: the fetch
  /// would inflate the whole file a second time. Queries therefore read all
  /// their columns in the base scan (whose cold pass still builds the block
  /// index).
  std::string_view FullColumnsReason(
      const FormatScanContext& /*tc*/) const override {
    return "late fetches re-inflate members";
  }

  /// Late scans navigate through the block-offset index: published, or
  /// claimed for construction as a side effect of this query's cold scan
  /// (the format-state analogue of the CSV positional-map protocol).
  bool EnsureLateScanNavigable(FormatScanContext& tc) const override {
    const PlannerOptions& opts = *tc.opts;
    if (tc.format_state != nullptr) return true;
    if (opts.access_path == AccessPathKind::kLoaded ||
        opts.access_path == AccessPathKind::kExternalTable ||
        !opts.build_positional_map) {
      return false;
    }
    return ClaimIndexBuild(tc);
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
    // building nothing — even when an index has been published.
    if (tc.format_state != nullptr &&
        opts.access_path != AccessPathKind::kExternalTable) {
      const auto* index =
          static_cast<const GzipBlockIndex*>(tc.format_state.get());
      (*tc.desc) << "[zcsv-scan " << info.name << " blocks="
                 << index->num_blocks() << "] ";
      std::vector<ScanRange> morsels;
      if (tc.num_threads > 1) morsels = SplitMorsels(tc, tc.num_threads * 4);
      if (morsels.size() > 1) {
        // Warm children emit file-global row ids (rebased per block inside
        // the operator), so the parallel driver does not rebase.
        ParallelTableScanOperator::Options popts;
        popts.deadline = tc.opts->deadline;
        popts.num_threads = tc.num_threads;
        std::vector<OperatorPtr> children;
        for (const ScanRange& m : morsels) {
          ZcsvScanSpec spec = make_spec();
          spec.index = index;
          spec.range = m;
          children.push_back(WrapQualified(
              std::make_unique<ZcsvScanOperator>(tc.file.get(),
                                                 std::move(spec)),
              qualified));
        }
        (*tc.desc) << "[parallel x" << tc.num_threads << " morsels="
                   << morsels.size() << "] ";
        return OperatorPtr(std::make_unique<ParallelTableScanOperator>(
            qualified, std::move(children), std::move(popts)));
      }
      ZcsvScanSpec spec = make_spec();
      spec.index = index;
      return WrapQualified(
          std::make_unique<ZcsvScanOperator>(tc.file.get(), std::move(spec)),
          qualified);
    }

    // Cold scan: serial member-by-member streaming decompress, building the
    // block index en route when this query holds (or can claim) the build.
    GzipBlockIndex* build = nullptr;
    if (opts.access_path != AccessPathKind::kExternalTable &&
        opts.build_positional_map && tc.format_state == nullptr &&
        !tc.format_state_build_wired && ClaimIndexBuild(tc)) {
      tc.format_state_build_wired = true;
      build = static_cast<GzipBlockIndex*>(tc.building_format_state.get());
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

  StatusOr<RowFetcherPtr> BuildFetcher(FormatScanContext& tc,
                                       const std::vector<int>& cols,
                                       const Schema& qualified) const override {
    const GzipBlockIndex* index = IndexView(tc);
    if (index == nullptr) {
      return Status::Internal(
          "compressed-CSV late scan requires the block index "
          "(none configured)");
    }
    auto fetcher = std::make_unique<ZcsvRowFetcher>(
        tc.file.get(), index, tc.entry->info.schema, cols,
        tc.entry->info.csv_options);
    fetcher->set_fields(qualified);
    return RowFetcherPtr(std::move(fetcher));
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
