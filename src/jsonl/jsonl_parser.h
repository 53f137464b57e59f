#ifndef RAW_JSONL_JSONL_PARSER_H_
#define RAW_JSONL_JSONL_PARSER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/schema.h"
#include "common/status.h"
#include "common/statusor.h"

namespace raw {

/// A view into one JSON value inside a mapped JSONL file. For string values
/// the view covers the *content* between the quotes (escapes left in place —
/// see `escaped`); for numbers / booleans it covers the literal text.
struct JsonlField {
  const char* data = nullptr;
  int32_t size = 0;
  bool present = false;  // the row contained this schema key
  bool quoted = false;   // the value was a JSON string
  bool escaped = false;  // content contains backslash escapes
  /// Byte offset of the value's first byte (strings: the opening quote),
  /// relative to the parse base — the JSONL field-offset map entry for this
  /// value, the generalization of the CSV positional map (§2.3): keys may
  /// appear in any order, so per-value offsets replace per-column positions.
  uint64_t offset = 0;
};

/// Decodes a JSON string span (content between the quotes) into `out`,
/// resolving \" \\ \/ \b \f \n \r \t and \uXXXX escapes. A high/low
/// surrogate escape pair (😀) combines into the astral-plane code
/// point's UTF-8 sequence; an unpaired surrogate is rejected with
/// InvalidArgument rather than smuggled through as invalid UTF-8.
Status UnescapeJsonString(const char* data, int32_t size, std::string* out);

/// Parses the single scalar JSON value starting at `*pp` (no leading
/// whitespace): a string, number, true, false or null. Advances `*pp` one
/// past the value. Nested objects and arrays are rejected — RAW's JSONL
/// driver handles flat objects, mirroring the paper's tabular raw files.
Status ParseJsonValue(const char** pp, const char* end, JsonlField* out);

/// Reusable parser for the rows of one JSONL file: each line is a flat JSON
/// object whose keys are matched against a fixed schema. Unknown keys are
/// skipped; schema keys may appear in any order but must all be present
/// (RAW columns have no null representation). A key listed twice keeps its
/// last value.
///
/// Keys are matched in schema order first: each key is compared (one memcmp
/// of the quoted name) against the schema key after the previous match, and
/// only a miss falls back to a lookup by name. Files written in schema order
/// therefore match every key with one comparison.
///
/// The parser is immutable after construction and safe to share across
/// threads (morsel-parallel scans parse disjoint line ranges concurrently).
class JsonlRowParser {
 public:
  explicit JsonlRowParser(const Schema& schema);

  /// Parses the object on the line starting at `*pp` (leading spaces/tabs
  /// tolerated) and fills `fields[0..num_fields)` indexed by schema column.
  /// Offsets are recorded relative to `base`. Advances `*pp` one past the
  /// row's terminating '\n' (or to `end`). `fields` is reset first. When
  /// `schema_order` is non-null and the row parses, it is set to whether the
  /// row listed exactly the schema's keys, once each, in schema order.
  Status ParseRow(const char** pp, const char* end, const char* base,
                  JsonlField* fields, bool* schema_order = nullptr) const;

  /// The resume walk of a warm scan (the JSONL twin of the CSV anchor's
  /// incremental parse, §2.3), valid only for rows that list the schema's
  /// keys in schema order. `p` points at the value of schema column `from`
  /// (or at the row start when `from` is -1), and `base` is the start of the
  /// buffer. Checks the key just before a jumped-to value, parses that value
  /// and every following key/value pair through column `to`, checking each
  /// key's bytes against the schema name, and fills `fields[from..to]`
  /// (offsets relative to `base`). Returns false on the first key mismatch
  /// or malformed byte — a miss, after which the caller parses the whole
  /// object with ParseRow.
  bool ResumeRow(const char* p, const char* end, const char* base, int from,
                 int to, JsonlField* fields) const;

  int num_fields() const { return num_fields_; }

 private:
  /// True when the bytes at `p` are schema column `c`'s quoted name.
  bool KeyIs(const char* p, const char* end, int c) const;
  /// True when column `c`'s quoted name, ':' and optional whitespace end
  /// right before `value`, reading back no further than `begin`.
  bool KeyBefore(const char* value, const char* begin, int c) const;
  /// Matches column `c`'s quoted name, ':' and the surrounding whitespace at
  /// `*pp`, leaving `*pp` at the value; false (and `*pp` unspecified) when
  /// the bytes differ.
  bool MatchKey(const char** pp, const char* end, int c) const;

  struct SchemaKey {
    std::string quoted;  // `"name"`
    // False when the name holds a quote or a backslash: such a key can never
    // be read unescaped, so it is left to the lookup path, which rejects it.
    bool comparable = true;
  };
  std::vector<SchemaKey> keys_;  // one per schema column
  // Heterogeneous lookup (string_view key probe without allocating).
  std::map<std::string, int, std::less<>> index_;
  int num_fields_;
};

/// Counts data rows (non-empty lines) in the buffer.
int64_t CountJsonlRows(const char* begin, const char* end);

}  // namespace raw

#endif  // RAW_JSONL_JSONL_PARSER_H_
