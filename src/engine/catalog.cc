#include "engine/catalog.h"

#include <sys/stat.h>

#include "common/stopwatch.h"
#include "engine/formats/builtin.h"

namespace raw {

namespace {

/// Stats `path` into a (mtime_ns, size) signature; false on failure.
bool FileSignature(const std::string& path, int64_t* mtime_ns, int64_t* size) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return false;
  *mtime_ns = static_cast<int64_t>(st.st_mtim.tv_sec) * 1000000000 +
              static_cast<int64_t>(st.st_mtim.tv_nsec);
  *size = static_cast<int64_t>(st.st_size);
  return true;
}

}  // namespace

Status TableEntry::Pin(FormatScanContext& ctx) {
  RAW_ASSIGN_OR_RETURN(const FormatDriver* driver,
                       FormatRegistry::Global().Require(info.format));
  // open_mu_ orders this against CheckStale: the handles copied below are
  // the complete set one OpenTable installed, never a half-dropped one.
  std::lock_guard<std::mutex> open_lock(open_mu_);
  if (!opened_) {
    RAW_RETURN_NOT_OK(driver->OpenTable(*this));
    opened_ = true;
    RecordFileSignature();
  }
  driver->RefreshEntry(*this);
  std::lock_guard<std::mutex> lock(mu_);
  ctx.entry = this;
  ctx.file = mmap_;
  ctx.bin_reader = bin_reader_;
  ctx.csv_quoted = csv_quoted_;
  ctx.published_pmap = std::static_pointer_cast<const PositionalMap>(
      build(AdaptiveSlot::kPositionalMap).published);
  ctx.format_state = build(AdaptiveSlot::kFormatState).published;
  ctx.loaded = loaded_;
  ctx.row_count = row_count();
  ctx.version = version();
  return Status::OK();
}

void TableEntry::InitAccessCounters(int num_columns) {
  if (column_accesses_ != nullptr || num_columns <= 0) return;
  column_accesses_ =
      std::make_unique<std::atomic<int64_t>[]>(static_cast<size_t>(num_columns));
  for (int i = 0; i < num_columns; ++i) column_accesses_[i].store(0);
  num_access_columns_ = num_columns;
}

void TableEntry::NoteColumnAccesses(const std::vector<int>& cols) {
  if (column_accesses_ == nullptr) return;
  for (int c : cols) {
    if (c >= 0 && c < num_access_columns_) {
      column_accesses_[c].fetch_add(1, std::memory_order_relaxed);
    }
  }
}

std::vector<int64_t> TableEntry::ColumnAccessSnapshot() const {
  std::vector<int64_t> out(static_cast<size_t>(num_access_columns_), 0);
  for (int i = 0; i < num_access_columns_; ++i) {
    out[static_cast<size_t>(i)] =
        column_accesses_[i].load(std::memory_order_relaxed);
  }
  return out;
}

void TableEntry::RecordFileSignature() {
  int64_t mtime_ns = 0;
  int64_t size = -1;
  if (!FileSignature(info.path, &mtime_ns, &size)) return;
  std::lock_guard<std::mutex> lock(mu_);
  file_mtime_ns_ = mtime_ns;
  file_size_ = size;
}

bool TableEntry::CheckStale() {
  signature_checks_.fetch_add(1, std::memory_order_relaxed);
  // Shared-reader tables (REF) multiplex one file across entries and their
  // reader cannot be swapped per entry; skip them.
  if (info.format == FileFormat::kRef) return false;
  int64_t mtime_ns = 0;
  int64_t size = -1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (file_size_ < 0) return false;  // never opened: nothing to invalidate
    if (!FileSignature(info.path, &mtime_ns, &size)) return false;
    if (mtime_ns == file_mtime_ns_ && size == file_size_) return false;
  }
  // The file changed underneath us. Drop the open handles (queries that
  // pinned them keep their own references), drop derived state, and force
  // the next Pin to remap the new contents.
  std::lock_guard<std::mutex> open_lock(open_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    mmap_.reset();
    bin_reader_.reset();
    for (Build& b : builds_) b.published.reset();
    loaded_.reset();
    row_count_.store(-1, std::memory_order_release);
    file_mtime_ns_ = mtime_ns;
    file_size_ = size;
    version_.fetch_add(1, std::memory_order_acq_rel);
  }
  opened_ = false;  // guarded by open_mu_
  return true;
}

bool TableEntry::PublishIfCurrent(int64_t pinned_version,
                                  const std::function<void()>& publish) {
  std::lock_guard<std::mutex> lock(mu_);
  if (pinned_version != version()) {
    stale_publishes_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  publish();
  return true;
}

StatusOr<std::shared_ptr<const MmapFile>> TableEntry::EnsureMmap() {
  std::lock_guard<std::mutex> lock(mu_);
  if (mmap_ == nullptr) {
    RAW_ASSIGN_OR_RETURN(mmap_, MmapFile::Open(info.path));
  }
  return mmap_;
}

void TableEntry::SetCsvQuoted(bool quoted) {
  std::lock_guard<std::mutex> lock(mu_);
  csv_quoted_ = quoted;
}

Status TableEntry::EnsureBinReader() {
  RAW_ASSIGN_OR_RETURN(std::shared_ptr<const MmapFile> file, EnsureMmap());
  std::lock_guard<std::mutex> lock(mu_);
  if (bin_reader_ == nullptr) {
    RAW_ASSIGN_OR_RETURN(BinaryLayout layout, BinaryLayout::Create(info.schema));
    RAW_ASSIGN_OR_RETURN(
        bin_reader_, BinaryReader::Open(std::move(file), std::move(layout)));
    StoreRowCount(bin_reader_->num_rows());
  }
  return Status::OK();
}

void TableEntry::AttachRefReader(std::shared_ptr<RefReader> reader) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ref_reader_ == nullptr) ref_reader_ = std::move(reader);
}

bool TableEntry::HasRefReader() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ref_reader_ != nullptr;
}

std::shared_ptr<const PositionalMap> TableEntry::pmap() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::static_pointer_cast<const PositionalMap>(
      build(AdaptiveSlot::kPositionalMap).published);
}

bool TableEntry::TryClaimBuild(AdaptiveSlot slot, int64_t pinned_version) {
  Build& b = build(slot);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (b.published != nullptr || pinned_version != version()) return false;
  }
  bool expected = false;
  return b.claimed.compare_exchange_strong(expected, true,
                                           std::memory_order_acq_rel);
}

void TableEntry::AbandonBuild(AdaptiveSlot slot) {
  build(slot).claimed.store(false, std::memory_order_release);
}

void TableEntry::PublishBuild(
    AdaptiveSlot slot, int64_t pinned_version,
    std::shared_ptr<const FormatAdaptiveState> state) {
  // A structure built over bytes that changed mid-scan indexes the old
  // file; publishing it would hand later queries offsets into unrelated
  // data. The guard drops it and the next query rebuilds.
  Build& b = build(slot);
  if (state != nullptr && state->num_rows() > 0) {
    PublishIfCurrent(pinned_version, [&] {
      if (b.published != nullptr) return;
      SetRowCountIfUnknown(state->num_rows());
      b.published = std::move(state);
    });
  }
  AbandonBuild(slot);
}

StatusOr<std::shared_ptr<const InMemoryTable>> TableEntry::EnsureLoaded(
    const FormatScanContext& ctx, double* load_seconds) {
  if (load_seconds != nullptr) *load_seconds = 0;
  if (ctx.loaded != nullptr) return ctx.loaded;
  // The driver reads the handles pinned in `ctx`, which the caller keeps
  // alive; `mu_` stays free, so readers of the entry's other state are not
  // stalled behind a multi-second load.
  RAW_ASSIGN_OR_RETURN(const FormatDriver* driver,
                       FormatRegistry::Global().Require(info.format));
  Stopwatch watch;
  RAW_ASSIGN_OR_RETURN(std::unique_ptr<InMemoryTable> table,
                       driver->LoadTable(ctx));
  std::shared_ptr<const InMemoryTable> loaded(std::move(table));
  if (load_seconds != nullptr) *load_seconds = watch.ElapsedSeconds();
  PublishIfCurrent(ctx.version, [&] {
    if (loaded_ != nullptr) return;
    loaded_ = loaded;
    row_count_.store(loaded->num_rows(), std::memory_order_release);
  });
  return loaded;
}

void TableEntry::ResetAdaptiveState() {
  std::lock_guard<std::mutex> lock(mu_);
  for (Build& b : builds_) b.published.reset();
  loaded_.reset();
}

TableStats TableEntry::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  TableStats stats;
  stats.name = info.name;
  stats.format = info.format;
  stats.row_count = row_count_.load(std::memory_order_acquire);
  if (const auto& pmap = build(AdaptiveSlot::kPositionalMap).published) {
    stats.pmap_rows = pmap->num_rows();
    stats.pmap_bytes = pmap->MemoryBytes();
  }
  if (const auto& state = build(AdaptiveSlot::kFormatState).published) {
    stats.format_state_bytes = state->MemoryBytes();
  }
  stats.loaded = loaded_ != nullptr;
  stats.version = version_.load(std::memory_order_acquire);
  stats.file_size = file_size_;
  stats.file_mtime_ns = file_mtime_ns_;
  stats.stale_publishes = stale_publishes_.load(std::memory_order_relaxed);
  stats.signature_checks = signature_checks_.load(std::memory_order_relaxed);
  stats.scans = scan_count_.load(std::memory_order_relaxed);
  stats.column_accesses = ColumnAccessSnapshot();
  return stats;
}

Catalog::Catalog(CatalogOptions options) : options_(options) {
  EnsureBuiltinFormatDriversRegistered();
}

Status Catalog::Register(TableInfo info) {
  RAW_RETURN_NOT_OK(info.schema.Validate());
  // Unknown formats fail here — with the registry's annotated error naming
  // the registered drivers — instead of deep inside a later plan.
  RAW_ASSIGN_OR_RETURN(const FormatDriver* driver,
                       FormatRegistry::Global().Require(info.format));
  (void)driver;
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (tables_.count(info.name) > 0) {
    return Status::AlreadyExists("table '" + info.name +
                                 "' is already registered");
  }
  auto entry = std::make_unique<TableEntry>();
  entry->info = std::move(info);
  entry->InitAccessCounters(entry->info.schema.num_fields());
  tables_[entry->info.name] = std::move(entry);
  return Status::OK();
}

Status Catalog::RegisterCsv(const std::string& name, const std::string& path,
                            Schema schema, CsvOptions options,
                            int pmap_stride) {
  TableInfo info;
  info.name = name;
  info.path = path;
  info.format = FileFormat::kCsv;
  info.schema = std::move(schema);
  info.csv_options = options;
  info.pmap_stride = pmap_stride;
  return Register(std::move(info));
}

Status Catalog::RegisterBinary(const std::string& name,
                               const std::string& path, Schema schema) {
  TableInfo info;
  info.name = name;
  info.path = path;
  info.format = FileFormat::kBinary;
  info.schema = std::move(schema);
  return Register(std::move(info));
}

Status Catalog::RegisterRef(const std::string& prefix,
                            const std::string& path) {
  TableInfo events;
  events.name = prefix + "_events";
  events.path = path;
  events.format = FileFormat::kRef;
  events.ref_group = -1;
  events.schema = Schema{{"eventID", DataType::kInt64},
                         {"runNumber", DataType::kInt32}};
  RAW_RETURN_NOT_OK(Register(std::move(events)));
  static const char* kSuffix[] = {"_muons", "_electrons", "_jets"};
  for (int g = 0; g < ref_branches::kNumGroups; ++g) {
    TableInfo particles;
    particles.name = prefix + kSuffix[g];
    particles.path = path;
    particles.format = FileFormat::kRef;
    particles.ref_group = g;
    particles.schema = Schema{{"eventID", DataType::kInt64},
                              {"pt", DataType::kFloat32},
                              {"eta", DataType::kFloat32},
                              {"phi", DataType::kFloat32}};
    RAW_RETURN_NOT_OK(Register(std::move(particles)));
  }
  return Status::OK();
}

Status Catalog::RegisterJsonl(const std::string& name, const std::string& path,
                              Schema schema, int pmap_stride) {
  TableInfo info;
  info.name = name;
  info.path = path;
  info.format = FileFormat::kJsonl;
  info.schema = std::move(schema);
  info.pmap_stride = pmap_stride;
  return Register(std::move(info));
}

Status Catalog::RegisterCsvGz(const std::string& name, const std::string& path,
                              Schema schema, CsvOptions options) {
  TableInfo info;
  info.name = name;
  info.path = path;
  info.format = FileFormat::kCsvGz;
  info.schema = std::move(schema);
  info.csv_options = options;
  return Register(std::move(info));
}

StatusOr<TableEntry*> Catalog::Lookup(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("unknown table '" + name + "'");
  }
  return it->second.get();
}

StatusOr<std::vector<FormatScanContext>> Catalog::Pin(
    const std::vector<std::string>& tables) {
  std::vector<FormatScanContext> pinned(tables.size());
  for (size_t i = 0; i < tables.size(); ++i) {
    RAW_ASSIGN_OR_RETURN(TableEntry * entry, Lookup(tables[i]));
    RAW_ASSIGN_OR_RETURN(const FormatDriver* driver,
                         FormatRegistry::Global().Require(entry->info.format));
    RAW_RETURN_NOT_OK(driver->PrepareShared(*this, *entry));
    if (entry->CheckStale() && on_invalidated_) on_invalidated_(tables[i]);
    RAW_RETURN_NOT_OK(entry->Pin(pinned[i]));
  }
  return pinned;
}

bool Catalog::Contains(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return tables_.count(name) > 0;
}

std::vector<std::string> Catalog::TableNames() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, entry] : tables_) names.push_back(name);
  return names;
}

StatusOr<std::shared_ptr<RefReader>> Catalog::SharedRefReader(
    const std::string& path) {
  // Cold-path-only global lock; racing lookups both enter, the map makes the
  // open happen once per path.
  std::lock_guard<std::mutex> lock(ref_mu_);
  auto it = ref_readers_.find(path);
  if (it == ref_readers_.end()) {
    RAW_ASSIGN_OR_RETURN(std::unique_ptr<RefReader> reader,
                         RefReader::Open(path, options_.ref_pool_bytes));
    it = ref_readers_
             .emplace(path, std::shared_ptr<RefReader>(std::move(reader)))
             .first;
  }
  return it->second;
}

void Catalog::ResetAdaptiveState() {
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    for (const auto& [name, entry] : tables_) entry->ResetAdaptiveState();
  }
  // Decoded-cluster caches are adaptive state too: drop them so REF queries
  // revert to cold behaviour. In-flight reads keep their pinned handles.
  std::lock_guard<std::mutex> lock(ref_mu_);
  for (const auto& [path, reader] : ref_readers_) reader->ClearCache();
}

ClusterPoolStats Catalog::RefPoolStats() const {
  ClusterPoolStats total;
  std::lock_guard<std::mutex> lock(ref_mu_);
  for (const auto& [path, reader] : ref_readers_) {
    ClusterPoolStats s = reader->pool()->Stats();
    total.entries += s.entries;
    total.bytes += s.bytes;
    total.hits += s.hits;
    total.misses += s.misses;
    total.evictions += s.evictions;
  }
  return total;
}

std::vector<TableStats> Catalog::Stats() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<TableStats> stats;
  stats.reserve(tables_.size());
  for (const auto& [name, entry] : tables_) stats.push_back(entry->Stats());
  return stats;
}

}  // namespace raw
