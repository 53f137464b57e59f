#include "common/mmap_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/fault_injector.h"

namespace raw {

namespace {
std::string ErrnoMessage(const std::string& what, const std::string& path) {
  return what + " '" + path + "': " + std::strerror(errno);
}
}  // namespace

StatusOr<std::unique_ptr<MmapFile>> MmapFile::Open(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IOError(ErrnoMessage("cannot open", path));
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError(ErrnoMessage("cannot stat", path));
  }
  size_t size = static_cast<size_t>(st.st_size);

  // Fault-injection hook: every mapped open funnels through here, so arming
  // the injector perturbs any format's view of its backing file.
  FaultKind fault = FaultKind::kNone;
  int64_t fault_offset = 0;
  auto& injector = FaultInjector::Global();
  if (injector.enabled()) {
    fault = injector.Check(path, static_cast<int64_t>(size), &fault_offset);
    if (fault == FaultKind::kEio) {
      ::close(fd);
      return Status::IOError("injected EIO opening '" + path + "'");
    }
    if (fault == FaultKind::kTruncate || fault == FaultKind::kShortRead) {
      // A mapping has no partial read; both kinds present a cut-off file.
      size = static_cast<size_t>(fault_offset);
    }
  }

  const char* data = nullptr;
  if (size > 0) {
    // PROT_WRITE on a MAP_PRIVATE mapping gives the bit-flip fault a
    // copy-on-write page to scribble on without touching the real file.
    int prot = PROT_READ;
    if (fault == FaultKind::kBitFlip) prot |= PROT_WRITE;
    void* addr = ::mmap(nullptr, size, prot, MAP_PRIVATE, fd, 0);
    if (addr == MAP_FAILED) {
      ::close(fd);
      return Status::IOError(ErrnoMessage("cannot mmap", path));
    }
    if (fault == FaultKind::kBitFlip) {
      static_cast<char*>(addr)[fault_offset] ^= 0x40;
    }
    data = static_cast<const char*>(addr);
  }
  return std::unique_ptr<MmapFile>(new MmapFile(path, data, size, fd));
}

MmapFile::~MmapFile() {
  if (data_ != nullptr) {
    ::munmap(const_cast<char*>(data_), size_);
  }
  if (fd_ >= 0) ::close(fd_);
}

void MmapFile::AdviseSequential() {
  if (data_ != nullptr) {
    ::madvise(const_cast<char*>(data_), size_, MADV_SEQUENTIAL);
  }
}

void MmapFile::AdviseRandom() {
  if (data_ != nullptr) {
    ::madvise(const_cast<char*>(data_), size_, MADV_RANDOM);
  }
}

Status MmapFile::DropPageCache() const {
  if (data_ != nullptr) {
    if (::madvise(const_cast<char*>(data_), size_, MADV_DONTNEED) != 0) {
      return Status::IOError(ErrnoMessage("madvise(DONTNEED)", path_));
    }
  }
#ifdef POSIX_FADV_DONTNEED
  if (fd_ >= 0) ::posix_fadvise(fd_, 0, 0, POSIX_FADV_DONTNEED);
#endif
  return Status::OK();
}

StatusOr<std::string> ReadFileToString(const std::string& path) {
  RAW_ASSIGN_OR_RETURN(std::unique_ptr<MmapFile> file, MmapFile::Open(path));
  return std::string(file->data(), file->size());
}

Status WriteStringToFile(const std::string& path, std::string_view contents) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Status::IOError(ErrnoMessage("cannot create", path));
  size_t written = 0;
  while (written < contents.size()) {
    ssize_t n = ::write(fd, contents.data() + written, contents.size() - written);
    if (n < 0) {
      ::close(fd);
      return Status::IOError(ErrnoMessage("write failed", path));
    }
    written += static_cast<size_t>(n);
  }
  ::close(fd);
  return Status::OK();
}

StatusOr<uint64_t> FileSize(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    return Status::IOError(ErrnoMessage("cannot stat", path));
  }
  return static_cast<uint64_t>(st.st_size);
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode);
}

}  // namespace raw
