// The reference evaluator: expected answers computed with plain loops over
// the generators' values, never through the engine.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <map>
#include <string>
#include <vector>

#include "eventsim/event_generator.h"
#include "perfbench/src/common.h"
#include "workload/table_spec.h"

namespace pb {

struct OColumn {
  bool is_float = false;
  std::vector<double> v;
};

/// Columns of one table, by unqualified name.
struct OTable {
  int64_t rows = 0;
  std::map<std::string, OColumn> cols;
};

using OTables = std::map<std::string, OTable>;

/// The given columns (named col<i>) of `spec`, from TableDataSource::Value.
OTable SpecColumns(const raw::TableSpec& spec, const std::vector<int>& columns);

/// The REF tables `<prefix>_events` and `<prefix>_{muons,electrons,jets}`
/// of the file WriteRefFile writes for `options`, from the event generator.
void RefTables(const raw::EventGenOptions& options, const std::string& prefix,
               OTables* out);

/// The good-runs table (`run`) WriteGoodRunsCsv writes for `options`.
OTable GoodRunsTable(const raw::EventGenOptions& options);

/// Expected answer of `q` (rows sorted when it groups).
Answer Evaluate(const Query& q, const OTables& tables);

}  // namespace pb

#endif  // PERFBENCH_ORACLE_H_
