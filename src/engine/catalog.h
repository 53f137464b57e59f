#ifndef RAW_ENGINE_CATALOG_H_
#define RAW_ENGINE_CATALOG_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "binfmt/binary_reader.h"
#include "columnar/in_memory_table.h"
#include "common/mmap_file.h"
#include "common/schema.h"
#include "csv/csv_options.h"
#include "csv/positional_map.h"
#include "eventsim/ref_reader.h"
#include "format/format_driver.h"

namespace raw {

/// Static description of a registered raw file ("each file exposed to RAW is
/// given a name ... RAW maintains a catalog with the original filename, the
/// schema and the file format", §3).
struct TableInfo {
  std::string name;
  std::string path;
  FileFormat format = FileFormat::kCsv;
  /// CSV/binary/JSONL: the file's full physical schema. REF: the derived
  /// table schema (partial schemas are natural here — only queried fields).
  Schema schema;
  CsvOptions csv_options;
  /// REF: particle group of this table (-1 = event table).
  int ref_group = -1;
  /// Textual formats: positional-map tracking stride used when the map is
  /// first built (CSV field positions, JSONL field offsets).
  int pmap_stride = 10;
};

/// Read-only snapshot of one table's runtime state (see RawEngine::Stats()).
struct TableStats {
  std::string name;
  FileFormat format = FileFormat::kCsv;
  int64_t row_count = -1;   // -1 until discovered
  int64_t pmap_rows = 0;    // 0 when no positional map is published
  int64_t pmap_bytes = 0;
  /// Footprint of the driver's published adaptive state (e.g. the
  /// compressed-CSV block index); 0 when none.
  int64_t format_state_bytes = 0;
  bool loaded = false;      // DBMS-baseline copy resident
  /// Queries that planned a scan over this table (one per query, not per
  /// operator) — the background materializer's table-level heat signal.
  int64_t scans = 0;
  /// Per-schema-column access counts, incremented at scan/fetcher
  /// construction. Indexed like info.schema; empty until first access.
  std::vector<int64_t> column_accesses;
  /// Bumped whenever the table's backing file is detected stale (mtime or
  /// size changed) — cache keys derived from the table include it, so stale
  /// results can never be served.
  int64_t version = 0;
  /// File signature recorded at open (-1 / 0 before the first open).
  int64_t file_size = -1;
  int64_t file_mtime_ns = 0;
  /// Publishes of adaptive state (shreds, row count, map, format state,
  /// loaded copy) dropped because they described a file generation since
  /// replaced.
  int64_t stale_publishes = 0;
  /// File-signature checks (one per query that pinned the table).
  int64_t signature_checks = 0;
};

/// The adaptive structures a query builds under a TableEntry build claim.
enum class AdaptiveSlot { kPositionalMap = 0, kFormatState = 1 };

/// Per-table runtime state accumulated across queries: open file handles,
/// the positional map, format-specific adaptive state, discovered row
/// counts, and (for the DBMS baseline) a fully loaded copy.
///
/// Thread-safety: `info` is immutable after registration. Open file handles
/// (the mmap, the binary reader) are shared_ptr-owned: Pin installs them
/// through the format driver, CheckStale drops them when the file
/// changes, and queries never read them from the entry directly — Pin copies
/// the current handles into the query's FormatScanContext under the entry
/// mutex and the plan keeps them alive, so a displaced generation is freed
/// when its last query finishes. Adaptive state — the positional map, the
/// driver's format state, and the loaded copy — follows the same pattern:
/// immutable shared_ptr snapshots pinned per query, so ResetAdaptiveState()
/// can drop the entry's reference while in-flight queries keep theirs.
///
/// Every publish of state a query derived from the file — shreds, row
/// counts, maps, format state, the loaded copy — passes the version the
/// query pinned through one guard (PublishIfCurrent), so state of a replaced
/// generation is dropped and counted instead of published.
struct TableEntry {
  TableInfo info;

  /// Takes one query's snapshot of the table into `ctx` under the entry
  /// mutex: the open handles, the published adaptive state, the row count
  /// and the staleness epoch. Opens the table through its format driver
  /// first when it has no open handles (first use, or after CheckStale
  /// dropped them), then lets the driver refresh derived state
  /// (RefreshEntry). A failed (re)open returns its typed error (kIOError for
  /// a failed open) and leaves `ctx` alone.
  Status Pin(FormatScanContext& ctx);

  /// REF tables share one reader per file, attached once and never replaced
  /// (CheckStale skips them), so the raw pointer stays valid.
  RefReader* ref_reader() const { return ref_reader_.get(); }

  // --- driver-facing open hooks ----------------------------------------------
  // Called from FormatDriver catalog hooks (OpenTable/PrepareShared); each is
  // idempotent and takes the entry mutex internally.

  /// Maps the table's file read-only; returns the current handle.
  StatusOr<std::shared_ptr<const MmapFile>> EnsureMmap();
  /// Records whether the (CSV-family) file uses quoting.
  void SetCsvQuoted(bool quoted);
  /// Opens the fixed-layout binary reader for `info.schema` over the mapped
  /// file (EnsureMmap first) and discovers the row count.
  Status EnsureBinReader();
  /// Adopts a shared REF reader (first attach wins; later calls no-op).
  void AttachRefReader(std::shared_ptr<RefReader> reader);
  bool HasRefReader() const;

  // --- version-guarded publication -------------------------------------------
  /// Runs `publish` (which publishes state a query derived from the file
  /// generation it pinned at `pinned_version`) under the entry mutex when
  /// that generation is still the current one and returns true; otherwise
  /// drops it, counts it in stale_publishes and returns false. CheckStale
  /// bumps the version under the same mutex, so whatever `publish` adds
  /// describes the current generation. `publish` must not take the entry
  /// mutex.
  bool PublishIfCurrent(int64_t pinned_version,
                        const std::function<void()>& publish);

  // --- discovered row count --------------------------------------------------
  int64_t row_count() const {
    return row_count_.load(std::memory_order_acquire);
  }
  /// Records a row count nothing has recorded yet. Callers that counted the
  /// rows of a pinned generation go through PublishIfCurrent.
  void SetRowCountIfUnknown(int64_t rows) {
    int64_t expected = -1;
    row_count_.compare_exchange_strong(expected, rows,
                                       std::memory_order_acq_rel);
  }
  /// Unconditional store, for drivers whose backing store reports exact
  /// counts that may grow between queries (REF shared readers).
  void StoreRowCount(int64_t rows) {
    row_count_.store(rows, std::memory_order_release);
  }

  // --- adaptive-state builds -------------------------------------------------
  /// The published (complete, immutable) positional map, or null.
  std::shared_ptr<const PositionalMap> pmap() const;

  /// Claims the right to build `slot`'s structure for a query that pinned
  /// the table at `pinned_version`. Refused when the slot is published,
  /// when another in-flight query holds the claim (concurrent cold scans
  /// simply run without building), or when the file changed since the pin.
  /// The claim ends with PublishBuild (complete drain) or AbandonBuild
  /// (partial scan, error, plan dropped).
  bool TryClaimBuild(AdaptiveSlot slot, int64_t pinned_version);
  void AbandonBuild(AdaptiveSlot slot);
  /// Publishes `state`, with its row count, through
  /// PublishIfCurrent(pinned_version) and ends the claim. A structure that
  /// indexes no rows is not published; the next query rebuilds it.
  void PublishBuild(AdaptiveSlot slot, int64_t pinned_version,
                    std::shared_ptr<const FormatAdaptiveState> state);

  // --- DBMS-baseline loaded copy ---------------------------------------------
  /// The copy pinned in `ctx`, or a full load through the format driver from
  /// the handles pinned there, published through PublishIfCurrent (a copy
  /// of a replaced generation serves its caller only; concurrent first
  /// loads each load, the first to finish publishes). `load_seconds`
  /// (optional) receives the load time when this call loaded, else 0.
  StatusOr<std::shared_ptr<const InMemoryTable>> EnsureLoaded(
      const FormatScanContext& ctx, double* load_seconds);

  // --- workload access counters ----------------------------------------------
  /// Sizes the per-column counters to the schema width (called once at
  /// registration; later calls are no-ops).
  void InitAccessCounters(int num_columns);
  /// Records that a query's scan or late-scan fetcher was constructed over
  /// `cols` (relaxed atomics; out-of-range columns are ignored).
  void NoteColumnAccesses(const std::vector<int>& cols);
  /// Records one query planning a scan over this table.
  void NoteScan() { scan_count_.fetch_add(1, std::memory_order_relaxed); }
  int64_t scan_count() const {
    return scan_count_.load(std::memory_order_relaxed);
  }
  std::vector<int64_t> ColumnAccessSnapshot() const;

  // --- file identity / staleness ---------------------------------------------
  /// Stats the backing file and records its (mtime, size) signature; called
  /// after every successful driver open so a reopened table re-anchors.
  void RecordFileSignature();
  /// Re-stats the backing file (counted in signature_checks). When the
  /// signature changed since the last open: bumps the version, drops
  /// adaptive state and the open file handles (queries that pinned them
  /// keep theirs) and arranges for the next Pin to remap, then returns true.
  /// Never true before the first open, on stat failure, or for
  /// shared-reader (REF) tables.
  bool CheckStale();
  /// Monotonic staleness epoch; part of every cache key over this table.
  int64_t version() const { return version_.load(std::memory_order_acquire); }

  /// Drops the positional map, the driver state, and the loaded copy
  /// (snapshots held by in-flight queries stay alive).
  void ResetAdaptiveState();

  TableStats Stats() const;

 private:
  mutable std::mutex mu_;
  /// Serializes the driver's OpenTable against CheckStale without holding
  /// `mu_` (driver hooks like EnsureMmap take `mu_` themselves).
  std::mutex open_mu_;

  bool opened_ = false;  // guarded by open_mu_
  // Current open generation (guarded by mu_; null until opened and after
  // CheckStale). Queries pin these via Pin; the last holder frees them.
  std::shared_ptr<const MmapFile> mmap_;           // raw file bytes
  std::shared_ptr<const BinaryReader> bin_reader_;  // binary view of mmap_
  bool csv_quoted_ = false;
  std::shared_ptr<RefReader> ref_reader_;  // shared across one file's tables

  /// Recorded file signature (guarded by mu_; -1 size = not yet recorded).
  int64_t file_size_ = -1;
  int64_t file_mtime_ns_ = 0;
  std::atomic<int64_t> version_{0};
  std::atomic<int64_t> stale_publishes_{0};
  std::atomic<int64_t> signature_checks_{0};

  std::atomic<int64_t> scan_count_{0};
  /// Fixed-size once InitAccessCounters runs (never resized, so concurrent
  /// relaxed increments need no lock).
  std::unique_ptr<std::atomic<int64_t>[]> column_accesses_;
  int num_access_columns_ = 0;

  std::atomic<int64_t> row_count_{-1};  // -1 until discovered

  /// One published structure per AdaptiveSlot (guarded by mu_) and its
  /// build claim.
  struct Build {
    std::shared_ptr<const FormatAdaptiveState> published;
    std::atomic<bool> claimed{false};
  };
  Build builds_[2];
  Build& build(AdaptiveSlot slot) { return builds_[static_cast<int>(slot)]; }
  const Build& build(AdaptiveSlot slot) const {
    return builds_[static_cast<int>(slot)];
  }

  std::shared_ptr<const InMemoryTable> loaded_;  // DBMS baseline storage
};

/// Options controlling catalog-wide runtime behaviour.
struct CatalogOptions {
  /// REF cluster-cache capacity per open file.
  int64_t ref_pool_bytes = 256ll << 20;
};

/// Name -> table registry plus shared readers. Registration takes the writer
/// lock; lookups are shared, so concurrent sessions resolve tables without
/// serializing on each other (entries are stable once registered).
///
/// Constructing a catalog registers the built-in format drivers (CSV,
/// binary, REF, JSONL, compressed CSV) in the global FormatRegistry; every
/// Register* call validates that a driver exists for the table's format, so
/// unknown formats fail at registration instead of plan time.
class Catalog {
 public:
  explicit Catalog(CatalogOptions options = CatalogOptions());

  Status RegisterCsv(const std::string& name, const std::string& path,
                     Schema schema, CsvOptions options = CsvOptions(),
                     int pmap_stride = 10);
  Status RegisterBinary(const std::string& name, const std::string& path,
                        Schema schema);

  /// Registers the four relational views of an REF file:
  /// `<prefix>_events`, `<prefix>_muons`, `<prefix>_electrons`,
  /// `<prefix>_jets` (Figure 13).
  Status RegisterRef(const std::string& prefix, const std::string& path);

  /// Registers a line-delimited JSON file (one flat object per line).
  Status RegisterJsonl(const std::string& name, const std::string& path,
                       Schema schema, int pmap_stride = 10);

  /// Registers a gzip-compressed CSV file (single- or multi-member).
  Status RegisterCsvGz(const std::string& name, const std::string& path,
                       Schema schema, CsvOptions options = CsvOptions());

  /// Looks up a table without touching its file (binding needs only
  /// TableInfo); the entry is owned by the catalog and stable.
  StatusOr<TableEntry*> Lookup(const std::string& name) const;

  /// Pins each of `tables` for one query, in order: the registry lookup, the
  /// driver's PrepareShared, one file-signature check — a changed file drops
  /// the entry's adaptive state, bumps its version and fires the
  /// invalidation callback — and TableEntry::Pin. Everything the query does
  /// with a table reads its context here.
  StatusOr<std::vector<FormatScanContext>> Pin(
      const std::vector<std::string>& tables);

  /// Invoked (outside catalog locks) with a table's name whenever its
  /// backing file was detected stale. The engine hooks this to purge the
  /// shred cache and the semantic result cache for that table (their
  /// entries are keyed by version, so the purge only frees memory). Set
  /// once at engine construction, before any concurrent Pin.
  void SetInvalidationCallback(std::function<void(const std::string&)> cb) {
    on_invalidated_ = std::move(cb);
  }

  bool Contains(const std::string& name) const;

  std::vector<std::string> TableNames() const;

  /// One shared REF reader per file path, opened on first use (drivers call
  /// this from PrepareShared so every derived table of a file shares one
  /// cluster cache).
  StatusOr<std::shared_ptr<RefReader>> SharedRefReader(const std::string& path);

  /// Drops every table's adaptive state (see TableEntry::ResetAdaptiveState)
  /// and every REF file's decoded-cluster cache (safe against in-flight
  /// readers: their pinned cluster handles stay alive).
  void ResetAdaptiveState();

  std::vector<TableStats> Stats() const;

  /// Aggregated cluster-buffer-pool counters across every open REF file
  /// (readers are shared per file, so each pool counts once).
  ClusterPoolStats RefPoolStats() const;

 private:
  Status Register(TableInfo info);

  CatalogOptions options_;
  std::function<void(const std::string&)> on_invalidated_;
  mutable std::shared_mutex mu_;
  std::map<std::string, std::unique_ptr<TableEntry>> tables_;
  mutable std::mutex ref_mu_;
  std::map<std::string, std::shared_ptr<RefReader>> ref_readers_;  // by path
};

}  // namespace raw

#endif  // RAW_ENGINE_CATALOG_H_
