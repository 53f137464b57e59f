#include "scan/insitu_csv_scan.h"

#include <algorithm>
#include <cstring>

#include "csv/fast_parse.h"

namespace raw {

InsituCsvScanOperator::InsituCsvScanOperator(const MmapFile* file,
                                             CsvScanSpec spec)
    : InsituCsvScanOperator(file->data(), file->size(), std::move(spec)) {}

InsituCsvScanOperator::InsituCsvScanOperator(const char* data, size_t size,
                                             CsvScanSpec spec)
    : data_(data), size_(size), spec_(std::move(spec)) {
  output_schema_ = SchemaForColumns(spec_.file_schema, spec_.outputs);
}

Status InsituCsvScanOperator::Open() {
  const char* begin = data_;
  end_ = begin + size_;
  pos_ = begin + DataStartOffset(begin, end_, spec_.options);
  const PositionalMap* pmap = spec_.use_pmap;
  if (pmap != nullptr) {
    if (spec_.row_set.has_value() && !spec_.range.whole()) {
      return Status::InvalidArgument(
          "CSV positional scan takes a row range or a row set, not both");
    }
    RAW_RETURN_NOT_OK(spec_.range.Resolve(
        ScanRange::Unit::kRows, pmap->num_rows(), &row_begin_, &row_end_));
  } else if (!spec_.range.whole()) {  // whole: from the data start
    int64_t first = 0;
    int64_t last = 0;
    RAW_RETURN_NOT_OK(spec_.range.Resolve(ScanRange::Unit::kBytes,
                                          static_cast<int64_t>(size_), &first,
                                          &last));
    pos_ = begin + first;
    end_ = begin + last;
  }
  row_ = 0;
  input_cursor_ = 0;
  if (spec_.outputs.empty()) {
    return Status::InvalidArgument("CSV scan needs at least one output");
  }
  if (!std::is_sorted(spec_.outputs.begin(), spec_.outputs.end())) {
    return Status::InvalidArgument("CSV scan outputs must be ascending");
  }
  for (int c : spec_.outputs) {
    if (c < 0 || c >= spec_.file_schema.num_fields()) {
      return Status::InvalidArgument("CSV scan output column out of range");
    }
  }
  refs_.assign(spec_.outputs.size(), {});
  slot_lookup_.assign(static_cast<size_t>(spec_.file_schema.num_fields()), -1);
  if (spec_.build_pmap != nullptr) {
    for (int c = 0; c < spec_.file_schema.num_fields(); ++c) {
      slot_lookup_[static_cast<size_t>(c)] = spec_.build_pmap->SlotFor(c);
    }
  }
  if (spec_.use_pmap != nullptr) {
    anchor_slot_ = spec_.use_pmap->SlotFor(spec_.anchor_column);
    if (anchor_slot_ < 0) {
      return Status::InvalidArgument(
          "anchor column is not tracked by the positional map");
    }
    if (spec_.anchor_column > spec_.outputs.front()) {
      return Status::InvalidArgument(
          "anchor column must not exceed the first output column");
    }
    if (spec_.row_set.has_value() && spec_.row_set->positions.empty()) {
      RAW_RETURN_NOT_OK(
          FillPositions(*spec_.use_pmap, anchor_slot_, &*spec_.row_set));
    }
  }
  return Status::OK();
}

namespace {

// True when the field's bytes convert cleanly to `type`.
bool FieldConverts(DataType type, const FieldRef& f) {
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
      return true;
  }
  return true;
}

// Appends the column type's zero value (the null-fill substitute).
void AppendZeroValue(DataType type, Column* col) {
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

Status InsituCsvScanOperator::ConvertAndBuild(
    const std::vector<std::vector<FieldRef>>& refs, int64_t rows,
    ColumnBatch* out, std::vector<int64_t>* row_ids) {
  // Data-type conversion: the general-purpose scan consults the catalog type
  // of every field and dispatches through a switch — the exact pattern the
  // paper's pseudo-code shows for interpreted scans (§4.1).
  if (spec_.profile) spec_.profile->conversion.Start();

  // Tolerant policies pre-validate row-wise so a malformed row is dropped or
  // null-filled coherently across every output column (a row, not a cell, is
  // the unit of damage in a hostile file). The strict default skips this
  // pass entirely.
  std::vector<uint8_t> bad;
  int64_t bad_rows = 0;
  if (spec_.policy != MalformedRowPolicy::kFail && rows > 0) {
    bad.assign(static_cast<size_t>(rows), 0);
    for (size_t j = 0; j < spec_.outputs.size(); ++j) {
      DataType type = spec_.file_schema.field(spec_.outputs[j]).type;
      if (type == DataType::kString) continue;
      const std::vector<FieldRef>& fr = refs[j];
      for (int64_t i = 0; i < rows; ++i) {
        if (!bad[static_cast<size_t>(i)] &&
            !FieldConverts(type, fr[static_cast<size_t>(i)])) {
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
  columns.reserve(refs.size());
  for (size_t j = 0; j < spec_.outputs.size(); ++j) {
    DataType type =
        spec_.file_schema.field(spec_.outputs[j]).type;
    auto col = std::make_shared<Column>(type);
    col->Reserve(out_rows);
    const std::vector<FieldRef>& fr = refs[j];
    for (int64_t i = 0; i < rows; ++i) {
      if (!bad.empty() && bad[static_cast<size_t>(i)]) {
        if (skip) continue;
        if (null_fill) {
          AppendZeroValue(type, col.get());
          continue;
        }
      }
      const FieldRef& f = fr[static_cast<size_t>(i)];
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
          col->AppendString(std::string(f.view()));
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

StatusOr<ColumnBatch> InsituCsvScanOperator::NextSequentialQuoted() {
  // Quoted files: fields may hide delimiters and newlines, so the row walk
  // steps through every field with the quote-aware tokenizer instead of
  // stopping at the last needed column and memchr-ing for '\n'.
  ColumnBatch out(output_schema_);
  if (pos_ >= end_) return ColumnBatch::EndOfStream(output_schema_);
  if (spec_.profile) spec_.profile->parsing.Start();

  const char delim = spec_.options.delimiter;
  const char quote = spec_.options.quote;
  const int num_outputs = static_cast<int>(spec_.outputs.size());
  for (auto& v : refs_) v.clear();
  row_id_scratch_.clear();

  PositionalMap* pmap = spec_.build_pmap;
  const int num_slots = pmap != nullptr ? pmap->num_tracked() : 0;
  std::vector<uint64_t> slot_positions(
      static_cast<size_t>(std::max(num_slots, 1)));
  const int num_fields = spec_.file_schema.num_fields();

  int64_t rows = 0;
  const char* base = data_;
  while (rows < spec_.batch_rows && pos_ < end_) {
    const char* p = pos_;
    const uint64_t row_start = static_cast<uint64_t>(p - base);
    int out_idx = 0;
    int col = 0;
    while (true) {
      if (col < num_fields) {
        int slot = slot_lookup_[static_cast<size_t>(col)];
        if (slot >= 0) {
          slot_positions[static_cast<size_t>(slot)] =
              static_cast<uint64_t>(p - base);
        }
      }
      FieldRef field = NextFieldQuoted(&p, end_, delim, quote);
      if (out_idx < num_outputs &&
          spec_.outputs[static_cast<size_t>(out_idx)] == col) {
        refs_[static_cast<size_t>(out_idx)].push_back(field);
        ++out_idx;
      }
      if (p < end_ && *p == delim) {
        ++p;
        ++col;
        continue;
      }
      break;  // row terminator or EOF
    }
    // A row cut off by EOF (truncated file) ends before the columns past the
    // cut; pad them as empty fields so ConvertAndBuild sees a rectangular
    // batch (empty fields fail conversion → the malformed-row policy rules).
    while (out_idx < num_outputs) {
      refs_[static_cast<size_t>(out_idx++)].push_back(FieldRef{"", 0});
    }
    pos_ = SkipRowEnd(p, end_);
    if (pmap != nullptr) pmap->AppendRow(row_start, slot_positions.data());
    row_id_scratch_.push_back(row_);
    ++row_;
    ++rows;
  }
  if (spec_.profile) spec_.profile->parsing.Stop();

  RAW_RETURN_NOT_OK(ConvertAndBuild(refs_, rows, &out, &row_id_scratch_));
  out.SetRowIds(row_id_scratch_);
  if (spec_.profile) spec_.profile->rows += rows;
  return out;
}

StatusOr<ColumnBatch> InsituCsvScanOperator::NextSequential() {
  if (spec_.quoted) return NextSequentialQuoted();
  ColumnBatch out(output_schema_);
  if (pos_ >= end_) return ColumnBatch::EndOfStream(output_schema_);
  if (spec_.profile) spec_.profile->main_loop.Start();

  const char delim = spec_.options.delimiter;
  const int num_outputs = static_cast<int>(spec_.outputs.size());
  for (auto& v : refs_) v.clear();
  row_id_scratch_.clear();

  PositionalMap* pmap = spec_.build_pmap;
  const int num_slots = pmap != nullptr ? pmap->num_tracked() : 0;
  std::vector<uint64_t> slot_positions(static_cast<size_t>(
      std::max(num_slots, 1)));

  int last_needed = spec_.outputs.back();
  if (pmap != nullptr && !pmap->tracked_columns().empty()) {
    last_needed = std::max(last_needed, pmap->tracked_columns().back());
  }

  if (spec_.profile) {
    spec_.profile->main_loop.Stop();
    spec_.profile->parsing.Start();
  }
  int64_t rows = 0;
  const char* base = data_;
  while (rows < spec_.batch_rows && pos_ < end_) {
    const char* p = pos_;
    const uint64_t row_start = static_cast<uint64_t>(p - base);
    int out_idx = 0;
    // The tell-tale general-purpose column loop: iterate every column up to
    // the last one needed, testing per column whether to track / read it.
    for (int col = 0; col <= last_needed && p < end_; ++col) {
      int slot = slot_lookup_[static_cast<size_t>(col)];
      if (slot >= 0) {
        slot_positions[static_cast<size_t>(slot)] =
            static_cast<uint64_t>(p - base);
      }
      const char* field_end = FieldEnd(p, end_, delim);
      if (out_idx < num_outputs && spec_.outputs[static_cast<size_t>(out_idx)] == col) {
        refs_[static_cast<size_t>(out_idx)].push_back(
            FieldRef{p, static_cast<int32_t>(field_end - p)});
        ++out_idx;
      }
      p = field_end;
      if (p < end_ && *p == delim) ++p;
    }
    // Truncated tail row: pad outputs past the EOF cut (see the quoted walk).
    while (out_idx < num_outputs) {
      refs_[static_cast<size_t>(out_idx++)].push_back(FieldRef{"", 0});
    }
    // Skip the remainder of the row.
    const char* nl = RowEnd(p, end_);
    pos_ = (nl != end_) ? nl + 1 : end_;
    if (pmap != nullptr) pmap->AppendRow(row_start, slot_positions.data());
    row_id_scratch_.push_back(row_);
    ++row_;
    ++rows;
  }
  if (spec_.profile) spec_.profile->parsing.Stop();

  RAW_RETURN_NOT_OK(ConvertAndBuild(refs_, rows, &out, &row_id_scratch_));
  out.SetRowIds(row_id_scratch_);
  if (spec_.profile) spec_.profile->rows += rows;
  return out;
}

StatusOr<ColumnBatch> InsituCsvScanOperator::NextPositional() {
  ColumnBatch out(output_schema_);
  const PositionalMap& pmap = *spec_.use_pmap;
  const int64_t total = spec_.row_set.has_value()
                            ? spec_.row_set->size()
                            : row_end_ - row_begin_;
  if (input_cursor_ >= total) return ColumnBatch::EndOfStream(output_schema_);
  if (spec_.profile) spec_.profile->parsing.Start();

  const char delim = spec_.options.delimiter;
  const char quote = spec_.options.quote;
  const bool quoted = spec_.quoted;
  const char* base = data_;
  for (auto& v : refs_) v.clear();
  row_id_scratch_.clear();

  int64_t rows = 0;
  while (rows < spec_.batch_rows && input_cursor_ < total) {
    int64_t row_id;
    uint64_t position;
    if (spec_.row_set.has_value()) {
      row_id = spec_.row_set->ids[static_cast<size_t>(input_cursor_)];
      position = spec_.row_set->positions[static_cast<size_t>(input_cursor_)];
    } else {
      row_id = row_begin_ + input_cursor_;
      position = pmap.Position(row_id, anchor_slot_);
    }
    if (position >= size_) {
      // The published map outlived the bytes it indexes: the file shrank
      // after the map was built. A typed error, never an out-of-range read.
      if (spec_.health != nullptr) {
        spec_.health->io_faults.fetch_add(1, std::memory_order_relaxed);
      }
      if (spec_.profile) spec_.profile->parsing.Stop();
      return Status::DataCorruption(
          "positional map offset " + std::to_string(position) +
          " for row " + std::to_string(row_id) +
          " lies beyond the file's " + std::to_string(size_) +
          " bytes (file truncated since the map was built?)");
    }
    const char* p = base + position;
    int col_cursor = spec_.anchor_column;
    for (size_t j = 0; j < spec_.outputs.size(); ++j) {
      const int target = spec_.outputs[j];
      // Incremental parse from the nearest known position (§2.3): skip
      // (target - cursor) fields, generic loop, branch per character.
      while (col_cursor < target) {
        p = quoted ? SkipFieldQuoted(p, end_, delim, quote)
                   : SkipField(p, end_, delim);
        ++col_cursor;
      }
      const char* next = p;
      FieldRef field;
      if (quoted) {
        field = NextFieldQuoted(&next, end_, delim, quote);
      } else {
        const char* field_end = FieldEnd(p, end_, delim);
        field = FieldRef{p, static_cast<int32_t>(field_end - p)};
        next = field_end;
      }
      refs_[j].push_back(field);
      if (j + 1 < spec_.outputs.size()) {
        p = next;
        if (p < end_ && *p == delim) ++p;
        ++col_cursor;
      }
    }
    row_id_scratch_.push_back(row_id);
    ++input_cursor_;
    ++rows;
  }
  if (spec_.profile) spec_.profile->parsing.Stop();

  RAW_RETURN_NOT_OK(ConvertAndBuild(refs_, rows, &out, &row_id_scratch_));
  out.SetRowIds(row_id_scratch_);
  if (spec_.profile) spec_.profile->rows += rows;
  return out;
}

StatusOr<ColumnBatch> InsituCsvScanOperator::Next() {
  if (spec_.use_pmap != nullptr) return NextPositional();
  return NextSequential();
}

}  // namespace raw
