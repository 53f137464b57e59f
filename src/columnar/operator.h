#ifndef RAW_COLUMNAR_OPERATOR_H_
#define RAW_COLUMNAR_OPERATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "columnar/batch.h"
#include "common/macros.h"
#include "common/schema.h"
#include "common/status.h"
#include "common/statusor.h"

namespace raw {

/// Volcano-style vector-at-a-time operator (§2.1, §3): every Next() call
/// returns a batch of rows rather than a single tuple.
///
/// Contract: Open() before the first Next(); Next() returns data batches
/// until the stream is exhausted, then a ColumnBatch::EndOfStream() sentinel
/// (and keeps returning the sentinel if pulled again); Close() releases
/// resources and may be called once. A data batch may legitimately carry
/// zero rows (a fully filtered morsel, say) — consumers must detect EOF via
/// ColumnBatch::end_of_stream(), never via empty(), or a zero-row interior
/// batch silently truncates the stream.
/// Open() must be idempotent *before* the first Next() — the planner opens
/// subtrees while building plans (to materialize output schemas for
/// expression binding) and the query's Cursor opens the root again.
class Operator {
 public:
  virtual ~Operator() = default;

  /// Schema of the batches this operator produces.
  virtual const Schema& output_schema() const = 0;

  virtual Status Open() { return Status::OK(); }
  virtual StatusOr<ColumnBatch> Next() = 0;
  virtual Status Close() { return Status::OK(); }

  /// Operator name for EXPLAIN-style output.
  virtual std::string name() const = 0;
};

using OperatorPtr = std::unique_ptr<Operator>;

/// Drains `op` (Open/Next*/Close) and concatenates all batches into one.
StatusOr<ColumnBatch> CollectAll(Operator* op);

/// Concatenates `batches` (same schema) into a single batch.
StatusOr<ColumnBatch> ConcatBatches(const Schema& schema,
                                    const std::vector<ColumnBatch>& batches);

}  // namespace raw

#endif  // RAW_COLUMNAR_OPERATOR_H_
