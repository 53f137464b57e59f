#ifndef RAW_FORMAT_FORMAT_H_
#define RAW_FORMAT_FORMAT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "common/statusor.h"

namespace raw {

/// Raw-file formats the engine ships drivers for. The enum is the stable
/// registry key (catalog entries and JIT cache keys persist it); everything
/// else about a format — how it opens, scans, splits, fetches, costs, and
/// code-generates — lives behind the FormatDriver registered for the value
/// (see format/format_driver.h). Extending the engine with a new format
/// means adding a value here and registering a driver; no planner, executor,
/// or codegen switch needs to learn about it.
enum class FileFormat : uint8_t {
  kCsv = 0,
  kBinary = 1,
  kRef = 2,
  kJsonl = 3,  // line-delimited JSON, one flat object per line
  kCsvGz = 4,  // gzip-compressed CSV (multi-member, block-indexed)
};

/// Registry-driven name of a format ("csv", "bin", "ref", "jsonl",
/// "csv.gz"); "unregistered" for values with no driver installed.
std::string_view FileFormatToString(FileFormat format);

/// Registry-driven inverse of FileFormatToString: resolves a driver name to
/// its format, or an annotated NotFound listing the registered names.
StatusOr<FileFormat> ParseFileFormat(std::string_view name);

/// One independently scannable slice of a raw file — the unit of work
/// morsel-driven parallel scans hand to the thread pool, and the single
/// range representation every scan spec consumes (formats with computed or
/// mapped offsets count rows; textual formats count bytes).
///
/// `end` is exclusive; end < 0 means "through the end of the data". The
/// default-constructed range covers everything.
struct ScanRange {
  enum class Unit : uint8_t {
    kBytes = 0,  // begin/end are byte offsets into the (raw) file
    kRows = 1,   // begin/end are row indices
  };

  Unit unit = Unit::kRows;
  int64_t begin = 0;
  int64_t end = -1;

  static ScanRange Whole() { return ScanRange{}; }
  static ScanRange Bytes(int64_t begin, int64_t end) {
    return ScanRange{Unit::kBytes, begin, end};
  }
  static ScanRange Rows(int64_t first, int64_t count) {
    return ScanRange{Unit::kRows, first, count < 0 ? -1 : first + count};
  }

  /// True for the default "everything" range.
  bool whole() const { return begin == 0 && end < 0; }
  /// True when the range has an explicit upper bound.
  bool bounded() const { return end >= 0; }
  /// Rows/bytes covered; meaningless (negative) while unbounded.
  int64_t count() const { return end - begin; }

  /// Resolves the range over data of `limit` units of `expected` into
  /// [*first, *last); the whole range is [0, limit). InvalidArgument when
  /// the range counts the other unit or reaches outside [0, limit).
  Status Resolve(Unit expected, int64_t limit, int64_t* first,
                 int64_t* last) const {
    *first = 0;
    *last = limit;
    if (whole()) return Status::OK();
    const char* name = expected == Unit::kBytes ? "byte" : "row";
    if (unit != expected) {
      return Status::InvalidArgument(std::string("scan range must be ") +
                                     name + "-addressed");
    }
    const int64_t range_end = bounded() ? end : limit;
    if (begin < 0 || range_end > limit || begin > range_end) {
      return Status::InvalidArgument(std::string("scan ") + name +
                                     " range out of bounds");
    }
    *first = begin;
    *last = range_end;
    return Status::OK();
  }

  bool operator==(const ScanRange& other) const {
    return unit == other.unit && begin == other.begin && end == other.end;
  }
};

}  // namespace raw

#endif  // RAW_FORMAT_FORMAT_H_
