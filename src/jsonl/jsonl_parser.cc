#include "jsonl/jsonl_parser.h"

#include "common/macros.h"

#include <array>
#include <cstring>

#include "common/kernels.h"

namespace raw {
namespace {

// The bytes that end a number / true / false / null literal.
constexpr std::array<bool, 256> kEndsLiteral = [] {
  std::array<bool, 256> t{};
  for (unsigned char c : {',', '}', ' ', '\t', '\r', '\n'}) t[c] = true;
  return t;
}();

inline const char* SkipSpace(const char* p, const char* end) {
  while (p != end && (*p == ' ' || *p == '\t' || *p == '\r')) ++p;
  return p;
}

// Malformed raw data is a parse error (the CSV taxonomy); InvalidArgument
// stays reserved for caller API misuse (bad scan specs, out-of-range ids).
Status Malformed(const char* what) {
  return Status::ParseError(std::string("malformed JSONL row: ") + what);
}

void AppendUtf8(uint32_t cp, std::string* out) {
  if (cp < 0x80) {
    out->push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

StatusOr<uint32_t> ParseHex4(const char* p, const char* end) {
  if (end - p < 4) return Malformed("truncated \\u escape");
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    char c = p[i];
    v <<= 4;
    if (c >= '0' && c <= '9') {
      v |= static_cast<uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v |= static_cast<uint32_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      v |= static_cast<uint32_t>(c - 'A' + 10);
    } else {
      return Malformed("invalid \\u escape digit");
    }
  }
  return v;
}

/// Scans a JSON string starting *after* the opening quote; returns the span
/// of its content and leaves `*pp` one past the closing quote. Rides the
/// dispatched SWAR/SIMD byte scanners: each step jumps to the next quote or
/// backslash instead of inspecting every character.
Status ScanJsonString(const char** pp, const char* end, const char** content,
                      int32_t* size, bool* escaped) {
  const char* start = *pp;
  const char* p = start;
  *escaped = false;
  while (true) {
    p = ScanForEither(p, end, '"', '\\');
    if (p == end) return Malformed("unterminated string");
    if (*p == '"') break;
    // Backslash: skip the escape introducer and the escaped character.
    *escaped = true;
    p += 2;
    if (p > end) return Malformed("unterminated escape");
  }
  *content = start;
  *size = static_cast<int32_t>(p - start);
  *pp = p + 1;  // past the closing quote
  return Status::OK();
}

}  // namespace

Status UnescapeJsonString(const char* data, int32_t size, std::string* out) {
  out->clear();
  out->reserve(static_cast<size_t>(size));
  const char* p = data;
  const char* end = data + size;
  while (p != end) {
    if (*p != '\\') {
      const char* next = ScanFor(p, end, '\\');
      out->append(p, static_cast<size_t>(next - p));
      p = next;
      continue;
    }
    if (++p == end) return Malformed("dangling backslash");
    switch (*p) {
      case '"': out->push_back('"'); ++p; break;
      case '\\': out->push_back('\\'); ++p; break;
      case '/': out->push_back('/'); ++p; break;
      case 'b': out->push_back('\b'); ++p; break;
      case 'f': out->push_back('\f'); ++p; break;
      case 'n': out->push_back('\n'); ++p; break;
      case 'r': out->push_back('\r'); ++p; break;
      case 't': out->push_back('\t'); ++p; break;
      case 'u': {
        ++p;
        RAW_ASSIGN_OR_RETURN(uint32_t cp, ParseHex4(p, end));
        p += 4;
        if (cp >= 0xD800 && cp <= 0xDBFF) {
          // High surrogate: only valid immediately followed by a low
          // surrogate escape; together they name one astral code point.
          if (end - p < 6 || p[0] != '\\' || p[1] != 'u') {
            return Malformed("unpaired high surrogate in \\u escape");
          }
          RAW_ASSIGN_OR_RETURN(uint32_t low, ParseHex4(p + 2, end));
          if (low < 0xDC00 || low > 0xDFFF) {
            return Malformed("unpaired high surrogate in \\u escape");
          }
          cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          p += 6;
        } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
          return Malformed("unpaired low surrogate in \\u escape");
        }
        AppendUtf8(cp, out);
        break;
      }
      default:
        return Malformed("unknown escape character");
    }
  }
  return Status::OK();
}

Status ParseJsonValue(const char** pp, const char* end, JsonlField* out) {
  const char* p = *pp;
  if (p == end) return Malformed("missing value");
  out->quoted = false;
  out->escaped = false;
  if (*p == '"') {
    out->quoted = true;
    ++p;
    RAW_RETURN_NOT_OK(
        ScanJsonString(&p, end, &out->data, &out->size, &out->escaped));
    *pp = p;
    return Status::OK();
  }
  if (*p == '{' || *p == '[') {
    return Malformed("nested objects/arrays are not supported");
  }
  // Number / true / false / null: literal text up to a structural character.
  const char* start = p;
  while (p != end && !kEndsLiteral[static_cast<unsigned char>(*p)]) ++p;
  if (p == start) return Malformed("empty value");
  out->data = start;
  out->size = static_cast<int32_t>(p - start);
  *pp = p;
  return Status::OK();
}

JsonlRowParser::JsonlRowParser(const Schema& schema)
    : num_fields_(schema.num_fields()) {
  for (int c = 0; c < schema.num_fields(); ++c) {
    const std::string& name = schema.field(c).name;
    index_.emplace(name, c);
    SchemaKey key;
    key.quoted.push_back('"');
    key.quoted += name;
    key.quoted.push_back('"');
    key.comparable = name.find_first_of("\"\\") == std::string::npos;
    keys_.push_back(std::move(key));
  }
}

bool JsonlRowParser::KeyIs(const char* p, const char* end, int c) const {
  const SchemaKey& key = keys_[static_cast<size_t>(c)];
  return key.comparable &&
         static_cast<size_t>(end - p) >= key.quoted.size() &&
         std::memcmp(p, key.quoted.data(), key.quoted.size()) == 0;
}

bool JsonlRowParser::MatchKey(const char** pp, const char* end, int c) const {
  const char* p = *pp;
  if (!KeyIs(p, end, c)) return false;
  p = SkipSpace(p + keys_[static_cast<size_t>(c)].quoted.size(), end);
  if (p == end || *p != ':') return false;
  *pp = SkipSpace(p + 1, end);
  return true;
}

Status JsonlRowParser::ParseRow(const char** pp, const char* end,
                                const char* base, JsonlField* fields,
                                bool* schema_order) const {
  for (int c = 0; c < num_fields_; ++c) fields[c] = JsonlField{};
  const char* p = SkipSpace(*pp, end);
  if (p == end || *p != '{') return Malformed("expected '{'");
  p = SkipSpace(p + 1, end);
  int expect = 0;         // the schema key predicted next
  bool in_order = true;   // every key so far was the predicted one
  if (p != end && *p == '}') {
    ++p;
  } else {
    while (true) {
      if (p == end || *p != '"') return Malformed("expected key string");
      int col;
      if (expect < num_fields_ && KeyIs(p, end, expect)) {
        p += keys_[static_cast<size_t>(expect)].quoted.size();
        col = expect++;
      } else {
        in_order = false;
        const char* key = nullptr;
        int32_t key_size = 0;
        bool key_escaped = false;
        ++p;
        RAW_RETURN_NOT_OK(
            ScanJsonString(&p, end, &key, &key_size, &key_escaped));
        if (key_escaped) return Malformed("escaped keys are not supported");
        auto it =
            index_.find(std::string_view(key, static_cast<size_t>(key_size)));
        col = it != index_.end() ? it->second : -1;
        if (col >= 0) expect = col + 1;
      }
      p = SkipSpace(p, end);
      if (p == end || *p != ':') return Malformed("expected ':'");
      p = SkipSpace(p + 1, end);
      JsonlField skipped;
      JsonlField& value = col >= 0 ? fields[col] : skipped;
      // The offset map records the value *including* a string's opening
      // quote, so a positional jump can re-detect the value kind in place.
      value.offset = static_cast<uint64_t>(p - base);
      RAW_RETURN_NOT_OK(ParseJsonValue(&p, end, &value));
      value.present = true;
      p = SkipSpace(p, end);
      if (p == end) return Malformed("unterminated object");
      if (*p == ',') {
        p = SkipSpace(p + 1, end);
        continue;
      }
      if (*p == '}') {
        ++p;
        break;
      }
      return Malformed("expected ',' or '}'");
    }
  }
  p = SkipSpace(p, end);
  if (p != end && *p != '\n') return Malformed("trailing data after object");
  if (p != end) ++p;  // past '\n'
  *pp = p;
  for (int c = 0; c < num_fields_; ++c) {
    if (!fields[c].present) {
      return Status::ParseError("JSONL row is missing key " +
                                keys_[static_cast<size_t>(c)].quoted);
    }
  }
  if (schema_order != nullptr) {
    *schema_order = in_order && expect == num_fields_;
  }
  return Status::OK();
}

bool JsonlRowParser::KeyBefore(const char* value, const char* begin,
                               int c) const {
  const char* p = value;
  while (p != begin && (p[-1] == ' ' || p[-1] == '\t' || p[-1] == '\r')) --p;
  if (p == begin || p[-1] != ':') return false;
  --p;
  while (p != begin && (p[-1] == ' ' || p[-1] == '\t' || p[-1] == '\r')) --p;
  const size_t key_size = keys_[static_cast<size_t>(c)].quoted.size();
  return static_cast<size_t>(p - begin) >= key_size &&
         KeyIs(p - key_size, p, c);
}

bool JsonlRowParser::ResumeRow(const char* p, const char* end,
                               const char* base, int from, int to,
                               JsonlField* fields) const {
  int c = from;
  if (c < 0) {
    p = SkipSpace(p, end);
    if (p == end || *p != '{') return false;
    p = SkipSpace(p + 1, end);
    c = 0;
    if (!MatchKey(&p, end, c)) return false;
  } else if (!KeyBefore(p, base, c)) {
    return false;
  }
  while (true) {
    JsonlField& f = fields[c];
    f.offset = static_cast<uint64_t>(p - base);
    if (!ParseJsonValue(&p, end, &f).ok()) return false;
    f.present = true;
    if (c == to) return true;
    p = SkipSpace(p, end);
    if (p == end || *p != ',') return false;
    p = SkipSpace(p + 1, end);
    if (!MatchKey(&p, end, ++c)) return false;
  }
}

int64_t CountJsonlRows(const char* begin, const char* end) {
  int64_t rows = 0;
  const char* p = begin;
  while (p < end) {
    const char* line_end = ScanFor(p, end, '\n');
    const char* q = SkipSpace(p, line_end);
    if (q != line_end) ++rows;
    p = (line_end == end) ? end : line_end + 1;
  }
  return rows;
}

}  // namespace raw
