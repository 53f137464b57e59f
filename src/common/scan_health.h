#ifndef RAW_COMMON_SCAN_HEALTH_H_
#define RAW_COMMON_SCAN_HEALTH_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <string_view>

namespace raw {

/// What a scan does with a row whose bytes don't convert to the declared
/// schema (a non-numeric field in an INT column, a row with missing fields).
/// Raw files are user data the engine does not own; `fail` preserves the
/// strict default, the other two let a query survive hostile rows.
enum class MalformedRowPolicy {
  /// The query fails with a typed ParseError naming the offending value.
  kFail = 0,
  /// The row is dropped from the result (counted in rows_skipped).
  kSkip,
  /// Every field of the row is replaced by the column type's zero value
  /// (0 / 0.0 / false / "") and the row is kept (counted in rows_nulled).
  kNullFill,
};

inline std::string_view MalformedRowPolicyToString(MalformedRowPolicy p) {
  switch (p) {
    case MalformedRowPolicy::kFail:
      return "fail";
    case MalformedRowPolicy::kSkip:
      return "skip";
    case MalformedRowPolicy::kNullFill:
      return "null-fill";
  }
  return "fail";
}

/// Parses "fail" | "skip" | "null-fill" (also accepts "nullfill").
inline std::optional<MalformedRowPolicy> ParseMalformedRowPolicy(
    std::string_view text) {
  if (text == "fail") return MalformedRowPolicy::kFail;
  if (text == "skip") return MalformedRowPolicy::kSkip;
  if (text == "null-fill" || text == "nullfill") {
    return MalformedRowPolicy::kNullFill;
  }
  return std::nullopt;
}

/// Per-query scan counters, shared by every scan operator of one physical
/// plan (morsel workers increment concurrently; relaxed atomics — the totals
/// are read after the drain barrier).
struct ScanHealth {
  std::atomic<int64_t> rows_skipped{0};
  std::atomic<int64_t> rows_nulled{0};
  /// Read-path faults the scan layer observed and converted into typed
  /// errors (truncated-under-pmap detection, corrupt gzip members,
  /// failed REF cluster reads).
  std::atomic<int64_t> io_faults{0};
  /// Time this plan's generated operators waited for the JIT compiler, in
  /// nanoseconds (0 when every kernel was already compiled).
  std::atomic<int64_t> jit_wait_ns{0};

  void AddJitWait(double seconds) {
    if (seconds > 0) {
      jit_wait_ns.fetch_add(static_cast<int64_t>(seconds * 1e9),
                            std::memory_order_relaxed);
    }
  }
  double jit_wait_seconds() const {
    return static_cast<double>(jit_wait_ns.load(std::memory_order_relaxed)) *
           1e-9;
  }
};

}  // namespace raw

#endif  // RAW_COMMON_SCAN_HEALTH_H_
