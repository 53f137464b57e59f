#ifndef RAW_CSV_CSV_TOKENIZER_H_
#define RAW_CSV_CSV_TOKENIZER_H_

#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

#include "common/kernels.h"
#include "common/status.h"
#include "common/statusor.h"
#include "csv/csv_options.h"

namespace raw {

/// A view into one CSV field inside the mapped raw file.
struct FieldRef {
  const char* data = nullptr;
  int32_t size = 0;

  std::string_view view() const {
    return std::string_view(data, static_cast<size_t>(size));
  }
};

/// Low-level field navigation primitives. These are the building blocks both
/// the interpreted (NoDB-style) scan and the JIT-generated scan use; the
/// difference is that generated code calls them in an unrolled, schema-aware
/// sequence with no per-field switch (§4.1).

/// Returns a pointer one past the end of the field starting at `p`
/// (i.e. at the delimiter / newline / `end`). Dispatches to the active
/// kernel tier: SWAR walks 8 bytes per iteration via the zero-byte trick,
/// SSE2/AVX2 compare 16/32 bytes at a time (see common/kernels.h).
inline const char* FieldEnd(const char* p, const char* end, char delim) {
  return ScanForEither(p, end, delim, '\n');
}

/// Returns a pointer to the first row terminator ('\n') at or after `p`, or
/// `end` — the newline search used by row skipping, row counting and morsel
/// boundary alignment; rides the same dispatched kernel core as FieldEnd.
inline const char* RowEnd(const char* p, const char* end) {
  return ScanFor(p, end, '\n');
}

/// Advances past the field *and* its trailing delimiter.
inline const char* SkipField(const char* p, const char* end, char delim) {
  p = FieldEnd(p, end, delim);
  if (p != end && *p == delim) ++p;
  return p;
}

/// Advances past the row terminator ('\n'; tolerates "\r\n").
inline const char* SkipRowEnd(const char* p, const char* end) {
  if (p != end && *p == '\r') ++p;
  if (p != end && *p == '\n') ++p;
  return p;
}

/// True when the buffer contains the quote character at all. Quote-free files
/// (the paper's numeric workloads) take the branch-light tokenization paths;
/// files with quotes route through the quote-aware variants below, so
/// inference, scans and positional jumps all agree on field boundaries.
inline bool BufferContainsQuote(const char* begin, const char* end,
                                char quote) {
  // An empty file maps to a null buffer, which memchr must not see.
  return begin != end && std::memchr(begin, quote,
                                     static_cast<size_t>(end - begin)) !=
                             nullptr;
}

/// Quote-aware single-field step: reads the field starting at `*pp` and
/// returns its *content* view — outer quotes stripped, `""` escapes left
/// in place, exactly like CsvRowCursor::NextRow — leaving `*pp` at the
/// delimiter / row terminator / `end`.
inline FieldRef NextFieldQuoted(const char** pp, const char* end, char delim,
                                char quote) {
  const char* p = *pp;
  if (p != end && *p == quote) {
    const char* start = ++p;
    while (p != end) {
      if (*p == quote) {
        if (p + 1 != end && p[1] == quote) {
          p += 2;
          continue;
        }
        break;
      }
      ++p;
    }
    FieldRef field{start, static_cast<int32_t>(p - start)};
    if (p != end) ++p;  // past the closing quote
    *pp = p;
    return field;
  }
  const char* start = p;
  while (p != end && *p != delim && *p != '\n' && *p != '\r') ++p;
  *pp = p;
  return FieldRef{start, static_cast<int32_t>(p - start)};
}

/// Quote-aware SkipField: advances past the field and its trailing delimiter.
inline const char* SkipFieldQuoted(const char* p, const char* end, char delim,
                                   char quote) {
  FieldRef ignored = NextFieldQuoted(&p, end, delim, quote);
  (void)ignored;
  if (p != end && *p == delim) ++p;
  return p;
}

/// Zero-allocation cursor over the rows of an in-memory CSV buffer.
///
/// Handles quoted fields (RFC-4180 style) on a slow path; the hot path for
/// the paper's numeric workloads never sees a quote.
class CsvRowCursor {
 public:
  CsvRowCursor(const char* begin, const char* end, CsvOptions options);

  /// True once all rows are consumed.
  bool AtEnd() const { return pos_ >= end_; }

  /// Byte offset of the row the cursor currently points at.
  uint64_t CurrentOffset() const {
    return static_cast<uint64_t>(pos_ - begin_);
  }

  /// Tokenizes the current row into `fields` (views into the buffer) and
  /// advances to the next row. `fields` is cleared first.
  Status NextRow(std::vector<FieldRef>* fields);

  /// Skips the current row without tokenizing (fast line scan).
  void SkipRow();

  /// Repositions the cursor at an absolute byte offset (positional-map jump).
  void SeekTo(uint64_t offset) { pos_ = begin_ + offset; }

  const char* position() const { return pos_; }
  const char* end() const { return end_; }

 private:
  const char* begin_;
  const char* end_;
  const char* pos_;
  CsvOptions options_;
};

/// Counts data rows in the buffer (excluding a header row when configured).
int64_t CountRows(const char* begin, const char* end, const CsvOptions& options);

/// Returns the offset of the first data row (skips the header when present).
uint64_t DataStartOffset(const char* begin, const char* end,
                         const CsvOptions& options);

}  // namespace raw

#endif  // RAW_CSV_CSV_TOKENIZER_H_
