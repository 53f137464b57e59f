#ifndef RAW_COMMON_MMAP_FILE_H_
#define RAW_COMMON_MMAP_FILE_H_

#include <cstddef>
#include <memory>
#include <string>

#include "common/macros.h"
#include "common/status.h"
#include "common/statusor.h"

namespace raw {

/// Read-only memory-mapped file. RAW memory-maps raw data files (§4.2) and
/// lets the OS page cache play the role of a buffer pool.
class MmapFile {
 public:
  /// Maps `path` read-only. Empty files map to a null region of size 0.
  static StatusOr<std::unique_ptr<MmapFile>> Open(const std::string& path);

  ~MmapFile();
  RAW_DISALLOW_COPY_AND_ASSIGN(MmapFile);

  const char* data() const { return data_; }
  size_t size() const { return size_; }
  const std::string& path() const { return path_; }

  /// Advises the kernel that access will be sequential (readahead) or random.
  void AdviseSequential();
  void AdviseRandom();

  /// Best-effort drop of this file's pages from the OS page cache; used by
  /// benchmarks to simulate a cold run without root privileges.
  Status DropPageCache() const;

 private:
  MmapFile(std::string path, const char* data, size_t size, int fd)
      : path_(std::move(path)), data_(data), size_(size), fd_(fd) {}

  std::string path_;
  const char* data_ = nullptr;
  size_t size_ = 0;
  int fd_ = -1;
};

/// Reads an entire file into a string (small metadata files).
StatusOr<std::string> ReadFileToString(const std::string& path);

/// Writes `contents` to `path`, truncating.
Status WriteStringToFile(const std::string& path, std::string_view contents);

/// Returns the size of the file at `path`.
StatusOr<uint64_t> FileSize(const std::string& path);

/// True if a regular file exists at `path`.
bool FileExists(const std::string& path);

}  // namespace raw

#endif  // RAW_COMMON_MMAP_FILE_H_
