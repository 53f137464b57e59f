#ifndef RAW_FORMAT_FORMAT_DRIVER_H_
#define RAW_FORMAT_FORMAT_DRIVER_H_

#include <map>
#include <memory>
#include <shared_mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/scan_health.h"
#include "common/schema.h"
#include "common/status.h"
#include "common/statusor.h"
#include "csv/positional_map.h"
#include "format/format.h"
#include "scan/access_path.h"

namespace raw {

class BinaryReader;
class Catalog;
class InMemoryTable;
class JitTemplateCache;
class MmapFile;
struct CostParams;
struct FusedPipelineRequest;
struct PipelineSpec;
struct PlannerOptions;
struct TableEntry;

/// Per-format cost parameters the shared cost model charges for one value —
/// the driver-owned half of CostModel (engine/cost_model.h keeps only the
/// format-independent pieces). `base` tuning knobs come from CostParams so a
/// custom-calibrated model still reaches every driver.
struct FormatCostParams {
  /// Materialize one value during a forward scan (tokenize/convert/read).
  double read_value = 1.0;
  /// Position to one row for selective access (map jump, offset computation).
  double jump = 0.0;
  /// Incrementally parse past one intervening field after a jump.
  double skip_field = 0.0;
  /// Extra per-value cost when row ids arrive out of order (random access).
  double random_penalty = 0.0;
  /// True when adjacent columns ride along almost for free after one jump —
  /// enables the multi-column (speculative) shred policy of §5.3.1.
  bool colocated_shreds = false;
};

/// Per-(query, table) planning context threaded through every FormatDriver
/// hook: the snapshot of the table taken when planning started (open file
/// handles and adaptive state — one consistent view even while other
/// sessions publish maps, reset the engine, or reopen a changed file), the
/// planner options, and the plan-description sink. Catalog::Pin takes one
/// per (query, table), the planner fills in the per-plan fields and the
/// plan keeps its shared handles for the plan's lifetime; drivers update
/// the build-claim fields when they wire adaptive-state construction into a
/// scan.
struct FormatScanContext {
  TableEntry* entry = nullptr;
  const PlannerOptions* opts = nullptr;
  JitTemplateCache* jit = nullptr;
  int num_threads = 1;           // resolved from opts once per plan
  std::ostringstream* desc = nullptr;  // plan-description sink
  /// Per-query robustness counters the driver threads into its scan specs
  /// (owned by the physical plan; may be null in tests).
  ScanHealth* health = nullptr;

  // --- snapshot taken by TableEntry::Pin ------------------------------------
  /// The file generation this query reads. Drivers read these, never the
  /// entry's own handles: a concurrent stale-file check replaces the entry's
  /// handles, while this query keeps (and frees, when it is the last holder)
  /// the generation it pinned. Non-null for every handle the format's
  /// OpenTable installs (null `file` for REF, null `bin_reader` for
  /// non-binary formats).
  std::shared_ptr<const MmapFile> file;
  std::shared_ptr<const BinaryReader> bin_reader;
  bool csv_quoted = false;  // CSV-family: the pinned file uses quoting
  /// Staleness epoch of the snapshot; adaptive-state build claims carry it
  /// so a structure built over a displaced generation is never published.
  int64_t version = 0;

  /// Complete, immutable map published by an earlier query (may be null).
  std::shared_ptr<const PositionalMap> published_pmap;
  /// Map this query is building (claim held); merged/appended during the
  /// base scan, published on full drain.
  std::shared_ptr<PositionalMap> building_pmap;
  bool pmap_build_wired = false;  // a scan of this plan already builds it

  /// Published per-format adaptive state (e.g. a block index), or null.
  std::shared_ptr<const FormatAdaptiveState> format_state;
  /// Per-format state this query is building (claim held).
  std::shared_ptr<FormatAdaptiveState> building_format_state;
  bool format_state_build_wired = false;

  /// DBMS-baseline copy: the published one, or this query's load (kLoaded).
  std::shared_ptr<const InMemoryTable> loaded;
  int64_t row_count = -1;

  /// Set when a generated kernel this plan asked for was not compiled yet
  /// (JitKernelReady): the plan runs its interpreted twin instead.
  bool jit_deferred = false;

  bool has_complete_pmap() const {
    return published_pmap != nullptr && !published_pmap->empty();
  }
  /// The map same-query late scans should navigate: the one being built, or
  /// the published one.
  const PositionalMap* pmap_view() const {
    if (building_pmap != nullptr) return building_pmap.get();
    return published_pmap.get();
  }
  /// True while this query holds an adaptive-state build claim that no scan
  /// operator owns yet — the base scan must then run raw so the build
  /// actually happens (see Planner::BuildBaseScan).
  bool HoldsUnwiredBuildClaim() const {
    return (building_pmap != nullptr && !pmap_build_wired) ||
           (building_format_state != nullptr && !format_state_build_wired);
  }
};

/// Everything the engine needs to query one raw-file format in situ. One
/// stateless, immutable instance per format lives in the FormatRegistry;
/// every hook must be thread-safe (drivers hold no mutable state — per-table
/// state lives on TableEntry, per-query state in FormatScanContext).
///
/// The contract, hook by hook, is documented in docs/format-drivers.md
/// ("Writing a format driver"); the short version:
///  * OpenTable runs under the entry's open lock and installs the handles
///    (mmap, readers) that each query pins into its FormatScanContext; every
///    later hook reads the pinned handles, never the entry's current ones.
///    PrepareShared/RefreshEntry resolve shared readers and refresh derived
///    state on each catalog lookup.
///  * BuildScan returns the complete (possibly morsel-parallel) scan
///    operator for `cols`, with outputs renamed to `qualified`; morsels come
///    from the driver's own SplitMorsels and must cover every row exactly
///    once, aligned so workers never split a row.
///  * BuildFetcher returns a ScanRowFetcher: the format's own scan, run
///    over explicit row sets (re-entrant: each Fetch builds a private scan
///    over shared immutable state). The planner asks only after the late
///    scan is feasible (no FullColumnsReason, navigable).
///  * Adaptive-state hooks (EnsureLateScanNavigable, the claim fields on
///    FormatScanContext) let a driver gate late scans on navigation
///    structures and build them as scan side effects.
class FormatDriver {
 public:
  virtual ~FormatDriver() = default;

  virtual FileFormat format() const = 0;
  /// Short stable name ("csv", "jsonl", ...): printed in plan descriptions
  /// as `[format=<name>]`, parsed by ParseFileFormat, used in JIT cache keys.
  virtual std::string_view name() const = 0;

  // --- catalog hooks ---------------------------------------------------------

  /// Opens the per-table handles (serialized by the entry's open lock). Runs
  /// on first use and again after a stale-file check dropped the handles;
  /// queries pin the installed handles per plan (TableEntry::Pin), so a
  /// displaced generation lives until its last query finishes.
  virtual Status OpenTable(TableEntry& entry) const = 0;

  /// Runs on every catalog lookup after the entry is open — refresh derived
  /// state that may change between queries (e.g. REF row counts served by a
  /// shared reader). Default: nothing.
  virtual void RefreshEntry(TableEntry& entry) const { (void)entry; }

  /// Resolves catalog-wide shared resources before OpenTable (e.g. one REF
  /// reader shared by all derived tables of a file). Default: nothing.
  virtual Status PrepareShared(Catalog& catalog, TableEntry& entry) const {
    (void)catalog;
    (void)entry;
    return Status::OK();
  }

  /// Fully materializes the table from the handles pinned in `ctx` — the
  /// "DBMS" baseline load (§2.1).
  virtual StatusOr<std::unique_ptr<InMemoryTable>> LoadTable(
      const FormatScanContext& ctx) const = 0;

  // --- planner hooks ---------------------------------------------------------

  /// True when late scans (selective row fetches) against the table can
  /// navigate to arbitrary rows. Drivers needing an adaptive navigation
  /// structure (CSV/JSONL positional maps) claim its build here as a side
  /// effect; returning false routes every column into the base scan.
  virtual bool EnsureLateScanNavigable(FormatScanContext& ctx) const {
    (void)ctx;
    return true;
  }

  /// Non-empty when a late scan (selective row fetch) costs this format
  /// about as much as re-reading the table: the planner then reads every
  /// column a query needs in the base scan, post-join columns included, and
  /// prints this reason in the plan. Default: late scans pay off.
  virtual std::string_view FullColumnsReason(
      const FormatScanContext& ctx) const {
    (void)ctx;
    return {};
  }

  /// Estimated fields to incrementally parse past per selective fetch —
  /// feeds ShredDecisionInput::skip_distance. Formats with computed or
  /// exactly-mapped offsets return 0.
  virtual int EstimateSkipDistance(const FormatScanContext& ctx) const {
    (void)ctx;
    return 0;
  }

  /// Splits the table into independently scannable ranges for the access
  /// path the driver would choose under `ctx` (cold scans split the raw
  /// bytes, warm scans split mapped/indexed rows). At most `target_morsels`
  /// ranges, covering all data exactly once, aligned to row boundaries.
  virtual std::vector<ScanRange> SplitMorsels(const FormatScanContext& ctx,
                                              int target_morsels) const = 0;

  /// Builds the full scan operator over `cols` (ascending table column
  /// indices), outputs renamed to `qualified`. The driver owns access-path
  /// choice (interpreted vs JIT vs positional), morsel parallelism (via
  /// SplitMorsels + ParallelTableScanOperator), and adaptive-state build
  /// wiring; generic cache glue stays in the planner.
  virtual StatusOr<OperatorPtr> BuildScan(FormatScanContext& ctx,
                                          const std::vector<int>& cols,
                                          const Schema& qualified) const = 0;

  /// Builds the late-scan row fetcher for `cols` (fields() == `qualified`):
  /// a ScanRowFetcher over the format's scan (see class comment). The
  /// planner asks for one only when FullColumnsReason is empty and
  /// EnsureLateScanNavigable returned true, and adds the parallel and
  /// cache-aware wrappers. Default: NotImplemented, for formats that always
  /// give a FullColumnsReason.
  virtual StatusOr<RowFetcherPtr> BuildFetcher(
      FormatScanContext& /*ctx*/, const std::vector<int>& /*cols*/,
      const Schema& /*qualified*/) const {
    return Status::NotImplemented("format '" + std::string(name()) +
                                  "' serves no late fetches");
  }

  // --- cost model ------------------------------------------------------------

  /// Per-value access costs, derived from the model's tuning knobs.
  virtual FormatCostParams cost_params(const CostParams& base) const = 0;

  // --- JIT plug-in -----------------------------------------------------------

  /// Emits the C++ translation unit for a generated kernel — a JIT scan or
  /// fetcher, or a fused scan→filter→project→aggregate pipeline
  /// (jit/pipeline_spec.h): "a file-format-specific plug-in is activated for
  /// each scan operator specification" (§3). Default: no JIT plug-in; the
  /// planner keeps the format on the interpreted path.
  virtual StatusOr<std::string> EmitJitPipelineSource(
      const PipelineSpec& /*spec*/) const {
    return Status::NotImplemented("format '" + std::string(name()) +
                                  "' has no JIT code-generation plug-in");
  }

  /// Builds the scan-level operator executing a fused pipeline over this
  /// table (morsel-parallel when ctx.num_threads allows). kProject requests
  /// emit filtered projected rows; kAggregate requests emit one mergeable
  /// partial row per morsel, in morsel order. Default: no fusion support —
  /// NotImplemented routes the planner to the interpreted pipeline.
  virtual StatusOr<OperatorPtr> BuildFusedPipeline(
      FormatScanContext& /*ctx*/, const FusedPipelineRequest& /*request*/)
      const {
    return Status::NotImplemented("format '" + std::string(name()) +
                                  "' has no JIT pipeline-fusion plug-in");
  }
};

/// Process-wide FileFormat -> FormatDriver registry. Registration happens at
/// engine construction (see engine/formats/builtin.h) or from user code for
/// out-of-tree formats; lookups are lock-cheap and the returned drivers are
/// immortal, so planners and codegen dispatch through raw pointers.
class FormatRegistry {
 public:
  static FormatRegistry& Global();

  /// Installs a driver; AlreadyExists if the format or name is taken.
  Status Register(std::unique_ptr<FormatDriver> driver);

  /// Driver for `format`, or null when none is registered.
  const FormatDriver* Find(FileFormat format) const;

  /// Driver for `format`, or an annotated NotFound naming the format value
  /// and the registered drivers — the error surfaces at Register*/plan time
  /// instead of crashing a per-format switch.
  StatusOr<const FormatDriver*> Require(FileFormat format) const;

  /// Driver by name ("csv", "jsonl", ...), or null.
  const FormatDriver* FindByName(std::string_view name) const;

  /// All registered drivers, ordered by format value.
  std::vector<const FormatDriver*> Drivers() const;

 private:
  mutable std::shared_mutex mu_;
  std::map<FileFormat, std::unique_ptr<FormatDriver>> drivers_;
};

}  // namespace raw

#endif  // RAW_FORMAT_FORMAT_DRIVER_H_
