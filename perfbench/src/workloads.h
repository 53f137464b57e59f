// The three workloads. Each generates its inputs under RunConfig::workdir,
// runs whole rounds until RunConfig::seconds have passed, checks every
// answer, and fills the report's metrics by name (main.cc lists them).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <sys/types.h>

#include <atomic>
#include <string>

#include "perfbench/src/common.h"

namespace pb {

struct WorkloadResult {
  Values end_to_end;
  Values per_layer;
};

/// Each returns a non-OK status only when the run could not go on (an input
/// could not be written, the daemon did not start); failed queries and
/// wrong answers are counted in `report`. With `print_expected` set, a
/// workload prints every query with its expected answer and runs nothing.
raw::Status CsvExplore(const RunConfig& cfg, RunReport* report,
                       WorkloadResult* out, bool print_expected);
raw::Status MultiformatAnalytics(const RunConfig& cfg, RunReport* report,
                                 WorkloadResult* out, bool print_expected);
raw::Status RawdServe(const RunConfig& cfg, RunReport* report,
                      WorkloadResult* out, bool print_expected);

/// The running rawd child's pid (0 when none), for main.cc's signal handler.
extern std::atomic<pid_t> g_daemon_pid;

/// Stops a child with SIGTERM and reaps it; if it has not exited after
/// 10 s (a drain stuck on a hung query), SIGKILL. Async-signal-safe.
void StopChild(pid_t pid);

}  // namespace pb

#endif  // PERFBENCH_WORKLOADS_H_
