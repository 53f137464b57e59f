#ifndef RAW_BINFMT_BINARY_READER_H_
#define RAW_BINFMT_BINARY_READER_H_

#include <cstring>
#include <memory>
#include <string>

#include "binfmt/binary_layout.h"
#include "common/mmap_file.h"

namespace raw {

/// Memory-mapped reader for the fixed-width binary format. Provides the
/// plug-in methods the paper describes for this format (§4.2): read a typed
/// value at a deterministic offset, or skip a binary offset — no conversion.
class BinaryReader {
 public:
  static StatusOr<std::unique_ptr<BinaryReader>> Open(const std::string& path,
                                                      BinaryLayout layout);
  /// Reads through an already-mapped file (shared with its other readers).
  static StatusOr<std::unique_ptr<BinaryReader>> Open(
      std::shared_ptr<const MmapFile> file, BinaryLayout layout);

  const BinaryLayout& layout() const { return layout_; }
  int64_t num_rows() const { return num_rows_; }
  const char* data() const { return file_->data(); }
  const MmapFile* file() const { return file_.get(); }

  /// Typed point reads; no bounds checks on the hot path beyond debug
  /// asserts — callers iterate within [0, num_rows).
  template <typename T>
  T Value(int64_t row, int column) const {
    T v;
    std::memcpy(&v, file_->data() + layout_.Offset(row, column), sizeof(T));
    return v;
  }

 private:
  BinaryReader(std::shared_ptr<const MmapFile> file, BinaryLayout layout,
               int64_t num_rows)
      : file_(std::move(file)), layout_(std::move(layout)), num_rows_(num_rows) {}

  std::shared_ptr<const MmapFile> file_;
  BinaryLayout layout_;
  int64_t num_rows_;
};

}  // namespace raw

#endif  // RAW_BINFMT_BINARY_READER_H_
