#include "binfmt/binary_reader.h"

namespace raw {

StatusOr<std::unique_ptr<BinaryReader>> BinaryReader::Open(
    const std::string& path, BinaryLayout layout) {
  RAW_ASSIGN_OR_RETURN(std::unique_ptr<MmapFile> file, MmapFile::Open(path));
  return Open(std::shared_ptr<const MmapFile>(std::move(file)),
              std::move(layout));
}

StatusOr<std::unique_ptr<BinaryReader>> BinaryReader::Open(
    std::shared_ptr<const MmapFile> file, BinaryLayout layout) {
  const std::string& path = file->path();
  if (layout.row_width() > 0 &&
      static_cast<int64_t>(file->size()) % layout.row_width() != 0) {
    // A fixed-layout file that isn't a whole number of rows was truncated or
    // written by a different schema — either way the trailing bytes are not
    // trustworthy, so refuse the whole file with a typed error.
    return Status::DataCorruption(
        "binary file '" + path + "' holds " + std::to_string(file->size()) +
        " bytes, not a multiple of the " +
        std::to_string(layout.row_width()) + "-byte row width");
  }
  int64_t rows = layout.NumRows(static_cast<int64_t>(file->size()));
  return std::unique_ptr<BinaryReader>(
      new BinaryReader(std::move(file), std::move(layout), rows));
}

}  // namespace raw
