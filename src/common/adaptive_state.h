#ifndef RAW_COMMON_ADAPTIVE_STATE_H_
#define RAW_COMMON_ADAPTIVE_STATE_H_

#include <cstdint>

#include "common/status.h"

namespace raw {

/// Base of the adaptive structures a scan builds as a side effect and
/// publishes on its TableEntry: the positional map of the textual formats
/// and per-format state only one driver understands (e.g. the
/// compressed-CSV block-offset index). Published snapshots are immutable and
/// shared_ptr-pinned per query, so ResetAdaptiveState can drop the entry's
/// reference while in-flight queries keep theirs.
struct FormatAdaptiveState {
  virtual ~FormatAdaptiveState() = default;
  /// Memory footprint, reported through TableStats.
  virtual int64_t MemoryBytes() const = 0;
  /// Rows the building scan indexed: the table's row count once published.
  virtual int64_t num_rows() const = 0;
  /// Validates the structure before it is published.
  virtual Status CheckConsistency() const = 0;
};

}  // namespace raw

#endif  // RAW_COMMON_ADAPTIVE_STATE_H_
