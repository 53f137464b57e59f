// Fuzz target: the JSONL row parser over arbitrary bytes.
//
// JsonlRowParser::ParseRow walks attacker-controlled line content (flat JSON
// objects with a schema-keyed field match); the invariants are memory safety,
// termination, typed errors for structural garbage, and field views that
// never escape the input buffer. String escape decoding (including \uXXXX
// surrogate pairs) runs on every quoted field that parsed.
//
// Differential check of the warm-scan resume walk: for every parsed row,
// JsonlRowParser::ResumeRow runs from the row start and from each field's
// offset to every later field. An independent tokenization of the row says
// what the walk must see: it succeeds exactly when the keys after its start
// are the schema's next keys, and then yields the value ParseRow's tokenizer
// saw under the last one. For a row whose keys came in schema order that is
// always ParseRow's own field; for any other row, the walk misses unless the
// stretch it covers happens to be in schema order.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/schema.h"
#include "common/types.h"
#include "jsonl/jsonl_parser.h"

namespace {

constexpr size_t kMaxInput = 1 << 16;
constexpr int kMaxRows = 1 << 14;
constexpr int kNumFields = 3;
const char* const kNames[kNumFields] = {"a", "b", "c"};

struct Pair {
  raw::JsonlField key;
  raw::JsonlField value;
};

const char* SkipSpace(const char* p, const char* end) {
  while (p != end && (*p == ' ' || *p == '\t' || *p == '\r')) ++p;
  return p;
}

// The row's key/value pairs in row order, tokenized without the parser's
// key matching. Only called on rows ParseRow accepted, so it cannot fail.
std::vector<Pair> RowPairs(const char* p, const char* end, const char* base) {
  std::vector<Pair> pairs;
  p = SkipSpace(p, end);
  if (p == end || *p != '{') __builtin_trap();
  p = SkipSpace(p + 1, end);
  if (p != end && *p == '}') return pairs;
  while (true) {
    Pair pair;
    if (!raw::ParseJsonValue(&p, end, &pair.key).ok()) __builtin_trap();
    p = SkipSpace(p, end);
    if (p == end || *p != ':') __builtin_trap();
    p = SkipSpace(p + 1, end);
    pair.value.offset = static_cast<uint64_t>(p - base);
    if (!raw::ParseJsonValue(&p, end, &pair.value).ok()) __builtin_trap();
    pair.value.present = true;
    pairs.push_back(pair);
    p = SkipSpace(p, end);
    if (p == end) __builtin_trap();
    if (*p == '}') return pairs;
    if (*p != ',') __builtin_trap();
    p = SkipSpace(p + 1, end);
  }
}

bool KeyIsName(const raw::JsonlField& key, int c) {
  const std::string name = kNames[c];
  return !key.escaped && key.size == static_cast<int32_t>(name.size()) &&
         name.compare(0, name.size(), key.data, name.size()) == 0;
}

bool SameField(const raw::JsonlField& x, const raw::JsonlField& y) {
  return x.data == y.data && x.size == y.size && x.present == y.present &&
         x.quoted == y.quoted && x.escaped == y.escaped &&
         x.offset == y.offset;
}

// Resumes from pair `k` (-1: the row start, at `row`) as schema column
// `from` to every later column and checks each outcome against `pairs`.
void CheckResumes(const raw::JsonlRowParser& parser, const char* row,
                  const char* end, const char* base,
                  const std::vector<Pair>& pairs, int k, int from,
                  bool ordered, const raw::JsonlField* parsed) {
  const char* start = k < 0 ? row : base + pairs[static_cast<size_t>(k)].value.offset;
  for (int to = std::max(from, 0); to < kNumFields; ++to) {
    bool expect_ok = true;
    for (int c = from + 1; c <= to && expect_ok; ++c) {
      const size_t i = static_cast<size_t>(k + c - from);
      expect_ok = i < pairs.size() && KeyIsName(pairs[i].key, c);
    }
    raw::JsonlField resumed[kNumFields];
    const bool ok = parser.ResumeRow(start, end, base, from, to, resumed);
    if (ok != expect_ok) __builtin_trap();
    if (ordered && !ok) __builtin_trap();
    if (!ok) continue;
    const Pair& last = pairs[static_cast<size_t>(k + to - from)];
    if (!SameField(resumed[to], last.value)) __builtin_trap();
    if (ordered && !SameField(resumed[to], parsed[to])) __builtin_trap();
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size > kMaxInput) size = kMaxInput;
  const char* begin = reinterpret_cast<const char*>(data);
  const char* end = begin + size;

  static const raw::Schema* schema =
      new raw::Schema{{kNames[0], raw::DataType::kInt32},
                      {kNames[1], raw::DataType::kString},
                      {kNames[2], raw::DataType::kFloat64}};
  static const raw::JsonlRowParser* parser = new raw::JsonlRowParser(*schema);

  (void)raw::CountJsonlRows(begin, end);

  raw::JsonlField fields[kNumFields];
  std::string unescaped;
  const char* p = begin;
  int rows = 0;
  while (p < end && rows < kMaxRows) {
    const char* before = p;
    bool ordered = false;
    const raw::Status st = parser->ParseRow(&p, end, begin, fields, &ordered);
    if (st.ok()) {
      const std::vector<Pair> pairs = RowPairs(before, end, begin);
      CheckResumes(*parser, before, end, begin, pairs, -1, -1, ordered,
                   fields);
      for (int from = 0; from < kNumFields; ++from) {
        // ParseRow keeps a repeated key's last value: find that pair.
        int k = -1;
        for (size_t i = 0; i < pairs.size(); ++i) {
          if (pairs[i].value.offset == fields[from].offset) {
            k = static_cast<int>(i);
          }
        }
        if (k < 0 || !KeyIsName(pairs[static_cast<size_t>(k)].key, from)) {
          __builtin_trap();
        }
        CheckResumes(*parser, before, end, begin, pairs, k, from, ordered,
                     fields);
      }
      for (const raw::JsonlField& f : fields) {
        if (!f.present) continue;
        if (f.size < 0) __builtin_trap();
        if (f.size > 0 && (f.data < begin || f.data + f.size > end)) {
          __builtin_trap();
        }
        if (f.offset > static_cast<uint64_t>(size)) __builtin_trap();
        if (f.quoted && f.escaped) {
          // Escape decoding must reject bad escapes, not emit wild bytes.
          (void)raw::UnescapeJsonString(f.data, f.size, &unescaped);
        }
      }
    } else {
      // Structural failure: resynchronize at the next line, as the tolerant
      // scan policies do.
      while (p < end && *p != '\n') ++p;
      if (p < end) ++p;
    }
    if (p <= before) break;  // no forward progress — stop, don't spin
    ++rows;
  }

  // The scalar-value parser on the raw buffer head.
  raw::JsonlField value;
  const char* vp = begin;
  (void)raw::ParseJsonValue(&vp, end, &value);
  return 0;
}
