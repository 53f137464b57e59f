#include "jsonl/jsonl_scan.h"

#include <algorithm>
#include <cstring>

#include "csv/fast_parse.h"

namespace raw {
namespace {

inline const char* SkipBlank(const char* p, const char* end) {
  while (p != end &&
         (*p == ' ' || *p == '\t' || *p == '\r' || *p == '\n')) {
    ++p;
  }
  return p;
}

}  // namespace

JsonlScanOperator::JsonlScanOperator(const MmapFile* file, JsonlScanSpec spec)
    : JsonlScanOperator(file->data(), file->size(), std::move(spec)) {}

JsonlScanOperator::JsonlScanOperator(const char* data, size_t size,
                                     JsonlScanSpec spec)
    : data_(data), size_(size), spec_(std::move(spec)),
      parser_(spec_.file_schema) {
  output_schema_ = SchemaForColumns(spec_.file_schema, spec_.outputs);
}

Status JsonlScanOperator::Open() {
  row_ = 0;
  input_cursor_ = 0;
  const PositionalMap* pmap = spec_.use_pmap;
  if (pmap != nullptr) {
    if (spec_.row_set.has_value() && !spec_.range.whole()) {
      return Status::InvalidArgument(
          "JSONL offset scan takes a row range or a row set, not both");
    }
    RAW_RETURN_NOT_OK(spec_.range.Resolve(
        ScanRange::Unit::kRows, pmap->num_rows(), &row_begin_, &row_end_));
  } else {
    int64_t first = 0;
    int64_t last = 0;
    RAW_RETURN_NOT_OK(spec_.range.Resolve(ScanRange::Unit::kBytes,
                                          static_cast<int64_t>(size_), &first,
                                          &last));
    pos_ = data_ + first;
    end_ = data_ + last;
  }
  if (spec_.outputs.empty()) {
    return Status::InvalidArgument("JSONL scan needs at least one output");
  }
  if (!std::is_sorted(spec_.outputs.begin(), spec_.outputs.end())) {
    return Status::InvalidArgument("JSONL scan outputs must be ascending");
  }
  for (int c : spec_.outputs) {
    if (c < 0 || c >= spec_.file_schema.num_fields()) {
      return Status::InvalidArgument("JSONL scan output column out of range");
    }
  }
  row_fields_.assign(static_cast<size_t>(spec_.file_schema.num_fields()), {});
  refs_.assign(spec_.outputs.size(), {});
  if (pmap != nullptr) {
    // Plan each row's walk: an output starts a new segment at its nearest
    // tracked value unless walking on from the previous output is no longer.
    segments_.clear();
    bool walks_keys = false;
    for (int c : spec_.outputs) {
      const int slot = pmap->NearestTrackedAtOrBefore(c);
      const int anchor = slot < 0 ? -1 : pmap->tracked_columns()[slot];
      if (!segments_.empty() && anchor <= segments_.back().to) {
        segments_.back().to = c;
      } else {
        segments_.push_back({slot, anchor, c});
      }
      walks_keys = walks_keys || segments_.back().from != c;
    }
    // Jumping straight to tracked values needs no key order; walking past
    // keys does.
    resume_ = !walks_keys || pmap->keys_in_schema_order();
  }
  return Status::OK();
}

namespace {

// True when the field's bytes convert cleanly to `type` (including the
// string unescape path — a broken \u escape is malformed data too).
bool JsonlFieldConverts(DataType type, const JsonlField& f,
                        std::string* scratch) {
  if (f.data == nullptr) return false;  // absent / null-filled placeholder
  switch (type) {
    case DataType::kInt32:
      return ParseInt32(f.data, f.size).ok();
    case DataType::kInt64:
      return ParseInt64(f.data, f.size).ok();
    case DataType::kFloat32:
      return ParseFloat32(f.data, f.size).ok();
    case DataType::kFloat64:
      return ParseFloat64(f.data, f.size).ok();
    case DataType::kBool:
      return ParseBool(f.data, f.size).ok();
    case DataType::kString:
      if (f.escaped) return UnescapeJsonString(f.data, f.size, scratch).ok();
      return true;
  }
  return true;
}

// Appends the column type's zero value (the null-fill substitute).
void AppendJsonlZeroValue(DataType type, Column* col) {
  switch (type) {
    case DataType::kInt32:
      col->Append<int32_t>(0);
      break;
    case DataType::kInt64:
      col->Append<int64_t>(0);
      break;
    case DataType::kFloat32:
      col->Append<float>(0.0f);
      break;
    case DataType::kFloat64:
      col->Append<double>(0.0);
      break;
    case DataType::kBool:
      col->Append<bool>(false);
      break;
    case DataType::kString:
      col->AppendString(std::string());
      break;
  }
}

}  // namespace

Status JsonlScanOperator::ConvertAndBuild(int64_t rows, ColumnBatch* out,
                                          std::vector<int64_t>* row_ids) {
  if (spec_.profile) spec_.profile->conversion.Start();

  // Tolerant policies pre-validate row-wise so a malformed row is dropped or
  // null-filled coherently across every output column.
  std::vector<uint8_t> bad;
  int64_t bad_rows = 0;
  if (spec_.policy != MalformedRowPolicy::kFail && rows > 0) {
    bad.assign(static_cast<size_t>(rows), 0);
    for (size_t j = 0; j < spec_.outputs.size(); ++j) {
      DataType type = spec_.file_schema.field(spec_.outputs[j]).type;
      const std::vector<JsonlField>& fr = refs_[j];
      for (int64_t i = 0; i < rows; ++i) {
        if (!bad[static_cast<size_t>(i)] &&
            !JsonlFieldConverts(type, fr[static_cast<size_t>(i)],
                                &unescape_scratch_)) {
          bad[static_cast<size_t>(i)] = 1;
          ++bad_rows;
        }
      }
    }
  }
  const bool skip = spec_.policy == MalformedRowPolicy::kSkip && bad_rows > 0;
  const bool null_fill =
      spec_.policy == MalformedRowPolicy::kNullFill && bad_rows > 0;
  const int64_t out_rows = skip ? rows - bad_rows : rows;

  std::vector<ColumnPtr> columns;
  columns.reserve(refs_.size());
  for (size_t j = 0; j < spec_.outputs.size(); ++j) {
    DataType type = spec_.file_schema.field(spec_.outputs[j]).type;
    auto col = std::make_shared<Column>(type);
    col->Reserve(out_rows);
    const std::vector<JsonlField>& fr = refs_[j];
    for (int64_t i = 0; i < rows; ++i) {
      if (!bad.empty() && bad[static_cast<size_t>(i)]) {
        if (skip) continue;
        if (null_fill) {
          AppendJsonlZeroValue(type, col.get());
          continue;
        }
      }
      const JsonlField& f = fr[static_cast<size_t>(i)];
      switch (type) {
        case DataType::kInt32: {
          RAW_ASSIGN_OR_RETURN(int32_t v, ParseInt32(f.data, f.size));
          col->Append<int32_t>(v);
          break;
        }
        case DataType::kInt64: {
          RAW_ASSIGN_OR_RETURN(int64_t v, ParseInt64(f.data, f.size));
          col->Append<int64_t>(v);
          break;
        }
        case DataType::kFloat32: {
          RAW_ASSIGN_OR_RETURN(float v, ParseFloat32(f.data, f.size));
          col->Append<float>(v);
          break;
        }
        case DataType::kFloat64: {
          RAW_ASSIGN_OR_RETURN(double v, ParseFloat64(f.data, f.size));
          col->Append<double>(v);
          break;
        }
        case DataType::kBool: {
          RAW_ASSIGN_OR_RETURN(bool v, ParseBool(f.data, f.size));
          col->Append<bool>(v);
          break;
        }
        case DataType::kString:
          if (f.escaped) {
            RAW_RETURN_NOT_OK(
                UnescapeJsonString(f.data, f.size, &unescape_scratch_));
            col->AppendString(unescape_scratch_);
          } else {
            col->AppendString(
                std::string(f.data, static_cast<size_t>(f.size)));
          }
          break;
      }
    }
    columns.push_back(std::move(col));
  }

  if (skip && row_ids != nullptr) {
    size_t kept = 0;
    for (int64_t i = 0; i < rows; ++i) {
      if (!bad[static_cast<size_t>(i)]) {
        (*row_ids)[kept++] = (*row_ids)[static_cast<size_t>(i)];
      }
    }
    row_ids->resize(kept);
  }
  if (spec_.health != nullptr) {
    if (skip) {
      spec_.health->rows_skipped.fetch_add(bad_rows, std::memory_order_relaxed);
    } else if (null_fill) {
      spec_.health->rows_nulled.fetch_add(bad_rows, std::memory_order_relaxed);
    }
  }

  if (spec_.profile) {
    spec_.profile->conversion.Stop();
    spec_.profile->build_columns.Start();
  }
  for (ColumnPtr& col : columns) out->AddColumn(std::move(col));
  out->SetNumRows(out_rows);
  if (spec_.profile) spec_.profile->build_columns.Stop();
  return Status::OK();
}

StatusOr<ColumnBatch> JsonlScanOperator::NextSequential() {
  ColumnBatch out(output_schema_);
  pos_ = SkipBlank(pos_, end_);
  if (pos_ >= end_) return ColumnBatch::EndOfStream(output_schema_);
  if (spec_.profile) spec_.profile->parsing.Start();

  PositionalMap* pmap = spec_.build_pmap;
  const int num_slots = pmap != nullptr ? pmap->num_tracked() : 0;
  std::vector<uint64_t> slot_positions(
      static_cast<size_t>(std::max(num_slots, 1)));

  for (auto& v : refs_) v.clear();
  row_id_scratch_.clear();

  int64_t rows = 0;
  while (rows < spec_.batch_rows) {
    pos_ = SkipBlank(pos_, end_);
    if (pos_ >= end_) break;
    const uint64_t row_start = static_cast<uint64_t>(pos_ - data_);
    bool schema_order = true;
    Status parsed = parser_.ParseRow(&pos_, end_, data_, row_fields_.data(),
                                     pmap != nullptr ? &schema_order : nullptr);
    if (!parsed.ok()) {
      // A line that isn't valid JSON at all. Tolerant policies step over it
      // to the next newline (skip drops it; null-fill emits a zero row);
      // map building is incompatible with either (the map can't index what
      // didn't tokenize), so the strict error stands when a map is due.
      if (spec_.policy == MalformedRowPolicy::kFail || pmap != nullptr) {
        return parsed;
      }
      const char* line_start = data_ + row_start;
      const void* nl = std::memchr(line_start, '\n',
                                   static_cast<size_t>(end_ - line_start));
      pos_ = nl != nullptr ? static_cast<const char*>(nl) + 1 : end_;
      if (spec_.policy == MalformedRowPolicy::kSkip) {
        if (spec_.health != nullptr) {
          spec_.health->rows_skipped.fetch_add(1, std::memory_order_relaxed);
        }
        ++row_;
        continue;
      }
      // Null-fill: a row of empty fields; ConvertAndBuild sees every field
      // as non-converting and zero-fills the whole row.
      row_fields_.assign(row_fields_.size(), {});
    }
    for (size_t j = 0; j < spec_.outputs.size(); ++j) {
      refs_[j].push_back(
          row_fields_[static_cast<size_t>(spec_.outputs[j])]);
    }
    if (pmap != nullptr) {
      if (!schema_order) pmap->ClearKeysInSchemaOrder();
      const auto& tracked = pmap->tracked_columns();
      for (int s = 0; s < num_slots; ++s) {
        slot_positions[static_cast<size_t>(s)] =
            row_fields_[static_cast<size_t>(tracked[static_cast<size_t>(s)])]
                .offset;
      }
      pmap->AppendRow(row_start, slot_positions.data());
    }
    row_id_scratch_.push_back(row_);
    ++row_;
    ++rows;
  }
  if (spec_.profile) spec_.profile->parsing.Stop();

  RAW_RETURN_NOT_OK(ConvertAndBuild(rows, &out, &row_id_scratch_));
  out.SetRowIds(row_id_scratch_);
  if (spec_.profile) spec_.profile->rows += rows;
  return out;
}

StatusOr<ColumnBatch> JsonlScanOperator::NextPositional() {
  ColumnBatch out(output_schema_);
  const PositionalMap& pmap = *spec_.use_pmap;
  const int64_t total = spec_.row_set.has_value() ? spec_.row_set->size()
                                                  : row_end_ - row_begin_;
  if (input_cursor_ >= total) return ColumnBatch::EndOfStream(output_schema_);
  if (spec_.profile) spec_.profile->parsing.Start();

  const char* file_end = data_ + size_;
  for (auto& v : refs_) v.clear();
  row_id_scratch_.clear();

  // The published map outlived the bytes it indexes: the file shrank after
  // the map was built. A typed error, never an out-of-range read.
  auto beyond_eof = [&](const char* what, uint64_t offset, int64_t row_id) {
    if (spec_.health != nullptr) {
      spec_.health->io_faults.fetch_add(1, std::memory_order_relaxed);
    }
    if (spec_.profile) spec_.profile->parsing.Stop();
    return Status::DataCorruption(
        std::string("field-offset map ") + what + " " +
        std::to_string(offset) + " for row " + std::to_string(row_id) +
        " lies beyond the file's " + std::to_string(size_) +
        " bytes (file truncated since the map was built?)");
  };

  int64_t rows = 0;
  while (rows < spec_.batch_rows && input_cursor_ < total) {
    int64_t row_id = spec_.row_set.has_value()
                         ? spec_.row_set->ids[static_cast<size_t>(input_cursor_)]
                         : row_begin_ + input_cursor_;
    if (row_id < 0 || row_id >= pmap.num_rows()) {
      return Status::InvalidArgument("JSONL row id outside the offset map");
    }
    // Walk each segment from its mapped value; any miss re-reads the row.
    bool walked = resume_;
    for (size_t k = 0; walked && k < segments_.size(); ++k) {
      const Segment& seg = segments_[k];
      const uint64_t position = seg.slot < 0 ? pmap.RowStart(row_id)
                                             : pmap.Position(row_id, seg.slot);
      if (position >= size_) {
        return beyond_eof(seg.slot < 0 ? "row start" : "offset", position,
                          row_id);
      }
      walked = parser_.ResumeRow(data_ + position, file_end, data_, seg.from,
                                 seg.to, row_fields_.data());
    }
    if (!walked) {
      // Parse the whole object from the row start; every output rides along.
      const uint64_t row_start = pmap.RowStart(row_id);
      if (row_start >= size_) return beyond_eof("row start", row_start, row_id);
      const char* p = data_ + row_start;
      Status parsed = parser_.ParseRow(&p, file_end, data_, row_fields_.data());
      if (!parsed.ok()) {
        if (spec_.policy == MalformedRowPolicy::kFail) return parsed;
        if (spec_.policy == MalformedRowPolicy::kSkip) {
          if (spec_.health != nullptr) {
            spec_.health->rows_skipped.fetch_add(1, std::memory_order_relaxed);
          }
          ++input_cursor_;
          continue;
        }
        row_fields_.assign(row_fields_.size(), {});
      }
    }
    for (size_t j = 0; j < spec_.outputs.size(); ++j) {
      refs_[j].push_back(row_fields_[static_cast<size_t>(spec_.outputs[j])]);
    }
    row_id_scratch_.push_back(row_id);
    ++input_cursor_;
    ++rows;
  }
  if (spec_.profile) spec_.profile->parsing.Stop();

  RAW_RETURN_NOT_OK(ConvertAndBuild(rows, &out, &row_id_scratch_));
  out.SetRowIds(row_id_scratch_);
  if (spec_.profile) spec_.profile->rows += rows;
  return out;
}

StatusOr<ColumnBatch> JsonlScanOperator::Next() {
  if (spec_.use_pmap != nullptr) return NextPositional();
  return NextSequential();
}

}  // namespace raw
