#include "columnar/expression.h"

#include <algorithm>
#include <cmath>

#include "columnar/eval_kernels.h"
#include "common/macros.h"

namespace raw {

std::string_view CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
  }
  return "?";
}

Status Expression::EvaluateSelection(const ColumnBatch& batch,
                                     SelectionVector* out) const {
  RAW_ASSIGN_OR_RETURN(Column result, Evaluate(batch));
  if (result.type() != DataType::kBool) {
    return Status::InvalidArgument("predicate does not evaluate to bool");
  }
  const bool* values = result.Data<bool>();
  for (int64_t i = 0; i < result.length(); ++i) {
    if (values[i]) out->Append(static_cast<int32_t>(i));
  }
  return Status::OK();
}

Status Expression::EvaluateSelectionFiltered(const ColumnBatch& batch,
                                             const SelectionVector& sel_in,
                                             SelectionVector* out) const {
  // Narrow first so the expression only computes over survivors (at low
  // selectivity, evaluating the full batch would redo up to 1/selectivity
  // times the work); kernel-capable subclasses override this with a direct
  // gather instead.
  ColumnBatch narrowed = batch.Filter(sel_in);
  SelectionVector local;
  local.Reserve(sel_in.size());
  RAW_RETURN_NOT_OK(EvaluateSelection(narrowed, &local));
  for (int64_t j = 0; j < local.size(); ++j) {
    out->Append(sel_in[local[j]]);
  }
  return Status::OK();
}

// --- ColumnRefExpr ----------------------------------------------------------

StatusOr<DataType> ColumnRefExpr::ResultType(const Schema& schema) const {
  if (index_ < 0 || index_ >= schema.num_fields()) {
    return Status::InvalidArgument("column index out of range: " +
                                   std::to_string(index_));
  }
  return schema.field(index_).type;
}

StatusOr<Column> ColumnRefExpr::Evaluate(const ColumnBatch& batch) const {
  if (index_ < 0 || index_ >= batch.num_columns()) {
    return Status::InvalidArgument("column index out of range: " +
                                   std::to_string(index_));
  }
  return *batch.column(index_);
}

std::string ColumnRefExpr::ToString() const {
  std::string out = "$";
  out += std::to_string(index_);
  return out;
}

// --- LiteralExpr ------------------------------------------------------------

StatusOr<DataType> LiteralExpr::ResultType(const Schema& /*schema*/) const {
  return value_.type();
}

StatusOr<Column> LiteralExpr::Evaluate(const ColumnBatch& batch) const {
  // Typed splat: size the column once and fill it, instead of boxing the
  // Datum through AppendDatum per row.
  const int64_t n = batch.num_rows();
  Column out(value_.type());
  switch (value_.type()) {
    case DataType::kBool:
      out.Resize(n);
      std::fill_n(out.MutableData<bool>(), n, value_.bool_value());
      break;
    case DataType::kInt32:
      out.Resize(n);
      std::fill_n(out.MutableData<int32_t>(), n, value_.int32_value());
      break;
    case DataType::kInt64:
      out.Resize(n);
      std::fill_n(out.MutableData<int64_t>(), n, value_.int64_value());
      break;
    case DataType::kFloat32:
      out.Resize(n);
      std::fill_n(out.MutableData<float>(), n, value_.float32_value());
      break;
    case DataType::kFloat64:
      out.Resize(n);
      std::fill_n(out.MutableData<double>(), n, value_.float64_value());
      break;
    case DataType::kString:
      out.Reserve(n);
      for (int64_t i = 0; i < n; ++i) out.AppendString(value_.string_value());
      break;
  }
  return out;
}

std::string LiteralExpr::ToString() const { return value_.ToString(); }

// --- CompareExpr ------------------------------------------------------------

namespace {

template <typename T>
inline bool ApplyCompare(CompareOp op, T a, T b) {
  switch (op) {
    case CompareOp::kLt:
      return a < b;
    case CompareOp::kLe:
      return a <= b;
    case CompareOp::kGt:
      return a > b;
    case CompareOp::kGe:
      return a >= b;
    case CompareOp::kEq:
      return a == b;
    case CompareOp::kNe:
      return a != b;
  }
  return false;
}

// Widens a column's value at i to double for mixed-type comparison.
inline double WidenedValue(const Column& col, int64_t i) {
  switch (col.type()) {
    case DataType::kBool:
      return col.Value<bool>(i) ? 1.0 : 0.0;
    case DataType::kInt32:
      return static_cast<double>(col.Value<int32_t>(i));
    case DataType::kInt64:
      return static_cast<double>(col.Value<int64_t>(i));
    case DataType::kFloat32:
      return static_cast<double>(col.Value<float>(i));
    case DataType::kFloat64:
      return col.Value<double>(i);
    case DataType::kString:
      return std::nan("");
  }
  return std::nan("");
}

}  // namespace

StatusOr<DataType> CompareExpr::ResultType(const Schema& schema) const {
  RAW_ASSIGN_OR_RETURN(DataType lt, lhs_->ResultType(schema));
  RAW_ASSIGN_OR_RETURN(DataType rt, rhs_->ResultType(schema));
  if ((lt == DataType::kString) != (rt == DataType::kString)) {
    return Status::InvalidArgument("cannot compare string with non-string");
  }
  return DataType::kBool;
}

StatusOr<Column> CompareExpr::Evaluate(const ColumnBatch& batch) const {
  RAW_ASSIGN_OR_RETURN(Column left, lhs_->Evaluate(batch));
  RAW_ASSIGN_OR_RETURN(Column right, rhs_->Evaluate(batch));
  Column out(DataType::kBool);
  out.Reserve(batch.num_rows());
  if (left.type() == DataType::kString && right.type() == DataType::kString) {
    for (int64_t i = 0; i < batch.num_rows(); ++i) {
      int cmp = left.StringValue(i).compare(right.StringValue(i));
      out.Append<bool>(ApplyCompare(op_, cmp, 0));
    }
    return out;
  }
  if (left.type() == right.type() && left.type() == DataType::kInt32) {
    const int32_t* a = left.Data<int32_t>();
    const int32_t* b = right.Data<int32_t>();
    for (int64_t i = 0; i < batch.num_rows(); ++i) {
      out.Append<bool>(ApplyCompare(op_, a[i], b[i]));
    }
    return out;
  }
  for (int64_t i = 0; i < batch.num_rows(); ++i) {
    out.Append<bool>(
        ApplyCompare(op_, WidenedValue(left, i), WidenedValue(right, i)));
  }
  return out;
}

Status CompareExpr::TryConstCompareKernel(const ColumnBatch& batch,
                                          const SelectionVector* sel,
                                          SelectionVector* out,
                                          bool* handled) const {
  *handled = false;
  // Typed kernel path: <column> <op> <literal> on a numeric column. With a
  // selection the kernel examines only surviving rows (conjunction chaining).
  if (lhs_->kind() != Kind::kColumnRef || rhs_->kind() != Kind::kLiteral) {
    return Status::OK();
  }
  const auto* ref = static_cast<const ColumnRefExpr*>(lhs_.get());
  const auto* lit = static_cast<const LiteralExpr*>(rhs_.get());
  if (ref->index() < 0 || ref->index() >= batch.num_columns()) {
    return Status::OK();
  }
  const Column& col = *batch.column(ref->index());
  const int64_t n = sel != nullptr ? sel->size() : batch.num_rows();
  // A literal the column type cannot hold exactly compares widened
  // (Evaluate), never truncated.
  RAW_ASSIGN_OR_RETURN(Datum c, CoerceLiteral(lit->value(), col.type()));
  if (c.type() != col.type()) return Status::OK();
  switch (col.type()) {
    case DataType::kInt32:
      SelectCompareConst<int32_t>(op_, col.Data<int32_t>(), n,
                                  c.int32_value(), sel, out);
      break;
    case DataType::kInt64:
      SelectCompareConst<int64_t>(op_, col.Data<int64_t>(), n,
                                  c.int64_value(), sel, out);
      break;
    case DataType::kFloat32:
      SelectCompareConst<float>(op_, col.Data<float>(), n, c.float32_value(),
                                sel, out);
      break;
    case DataType::kFloat64:
      SelectCompareConst<double>(op_, col.Data<double>(), n,
                                 c.float64_value(), sel, out);
      break;
    default:
      return Status::OK();
  }
  *handled = true;
  return Status::OK();
}

Status CompareExpr::EvaluateSelection(const ColumnBatch& batch,
                                      SelectionVector* out) const {
  bool handled = false;
  RAW_RETURN_NOT_OK(TryConstCompareKernel(batch, nullptr, out, &handled));
  if (handled) return Status::OK();
  return Expression::EvaluateSelection(batch, out);
}

Status CompareExpr::EvaluateSelectionFiltered(const ColumnBatch& batch,
                                              const SelectionVector& sel_in,
                                              SelectionVector* out) const {
  bool handled = false;
  RAW_RETURN_NOT_OK(TryConstCompareKernel(batch, &sel_in, out, &handled));
  if (handled) return Status::OK();
  return Expression::EvaluateSelectionFiltered(batch, sel_in, out);
}

std::string CompareExpr::ToString() const {
  std::string out = "(";
  out += lhs_->ToString();
  out += " ";
  out += CompareOpToString(op_);
  out += " ";
  out += rhs_->ToString();
  out += ")";
  return out;
}

// --- ArithExpr --------------------------------------------------------------

StatusOr<DataType> ArithExpr::ResultType(const Schema& schema) const {
  RAW_ASSIGN_OR_RETURN(DataType lt, lhs_->ResultType(schema));
  RAW_ASSIGN_OR_RETURN(DataType rt, rhs_->ResultType(schema));
  if (!IsNumeric(lt) || !IsNumeric(rt)) {
    return Status::InvalidArgument("arithmetic requires numeric operands");
  }
  if (op_ == ArithOp::kDiv) return DataType::kFloat64;
  if (lt == DataType::kFloat64 || rt == DataType::kFloat64 ||
      lt == DataType::kFloat32 || rt == DataType::kFloat32) {
    return DataType::kFloat64;
  }
  if (lt == DataType::kInt64 || rt == DataType::kInt64) {
    return DataType::kInt64;
  }
  return DataType::kInt32;
}

StatusOr<Column> ArithExpr::Evaluate(const ColumnBatch& batch) const {
  RAW_ASSIGN_OR_RETURN(Column left, lhs_->Evaluate(batch));
  RAW_ASSIGN_OR_RETURN(Column right, rhs_->Evaluate(batch));
  RAW_ASSIGN_OR_RETURN(DataType out_type, ResultType(batch.schema()));
  const int64_t n = batch.num_rows();
  if (ActiveKernelTier() != KernelTier::kScalar &&
      CanWidenToDouble(left.type()) && CanWidenToDouble(right.type())) {
    // Hoisted-switch kernels: widen non-double operands once (double columns
    // feed the loop in place), then one fused combine+narrow pass — the same
    // per-row double math as the interpreted loop below, minus its per-row
    // dispatch.
    std::vector<double> scratch_a, scratch_b;
    const double* a;
    const double* b;
    if (left.type() == DataType::kFloat64) {
      a = left.Data<double>();
    } else {
      scratch_a.resize(static_cast<size_t>(n));
      WidenToDouble(left, n, scratch_a.data());
      a = scratch_a.data();
    }
    if (right.type() == DataType::kFloat64) {
      b = right.Data<double>();
    } else {
      scratch_b.resize(static_cast<size_t>(n));
      WidenToDouble(right, n, scratch_b.data());
      b = scratch_b.data();
    }
    Column out(out_type);
    ArithCombineNarrow(op_, a, b, n, &out);
    return out;
  }
  Column out(out_type);
  out.Reserve(n);
  for (int64_t i = 0; i < batch.num_rows(); ++i) {
    double a = WidenedValue(left, i);
    double b = WidenedValue(right, i);
    double r = 0;
    switch (op_) {
      case ArithOp::kAdd:
        r = a + b;
        break;
      case ArithOp::kSub:
        r = a - b;
        break;
      case ArithOp::kMul:
        r = a * b;
        break;
      case ArithOp::kDiv:
        r = a / b;
        break;
    }
    switch (out_type) {
      case DataType::kInt32:
        out.Append<int32_t>(static_cast<int32_t>(r));
        break;
      case DataType::kInt64:
        out.Append<int64_t>(static_cast<int64_t>(r));
        break;
      default:
        out.Append<double>(r);
        break;
    }
  }
  return out;
}

std::string ArithExpr::ToString() const {
  const char* names[] = {"+", "-", "*", "/"};
  std::string out = "(";
  out += lhs_->ToString();
  out += " ";
  out += names[static_cast<int>(op_)];
  out += " ";
  out += rhs_->ToString();
  out += ")";
  return out;
}

// --- BoolOpExpr -------------------------------------------------------------

StatusOr<DataType> BoolOpExpr::ResultType(const Schema& schema) const {
  for (const ExprPtr& child : children_) {
    RAW_ASSIGN_OR_RETURN(DataType t, child->ResultType(schema));
    if (t != DataType::kBool) {
      return Status::InvalidArgument("AND/OR child is not boolean");
    }
  }
  return DataType::kBool;
}

StatusOr<Column> BoolOpExpr::Evaluate(const ColumnBatch& batch) const {
  std::vector<Column> evaluated;
  evaluated.reserve(children_.size());
  for (const ExprPtr& child : children_) {
    RAW_ASSIGN_OR_RETURN(Column c, child->Evaluate(batch));
    if (c.type() != DataType::kBool) {
      return Status::InvalidArgument("AND/OR child is not boolean");
    }
    evaluated.push_back(std::move(c));
  }
  const bool is_and = kind() == Kind::kAnd;
  Column out(DataType::kBool);
  out.Reserve(batch.num_rows());
  for (int64_t i = 0; i < batch.num_rows(); ++i) {
    bool acc = is_and;
    for (const Column& c : evaluated) {
      bool v = c.Value<bool>(i);
      acc = is_and ? (acc && v) : (acc || v);
    }
    out.Append<bool>(acc);
  }
  return out;
}

Status BoolOpExpr::EvaluateSelection(const ColumnBatch& batch,
                                     SelectionVector* out) const {
  if (kind() != Kind::kAnd || children_.empty()) {
    return Expression::EvaluateSelection(batch, out);
  }
  // Short-circuit AND: the first child produces a selection, every later
  // child evaluates only over the survivors (no bool-column materialization,
  // no batch gather, no index composition).
  SelectionVector current;
  RAW_RETURN_NOT_OK(children_[0]->EvaluateSelection(batch, &current));
  for (size_t k = 1; k < children_.size() && current.size() > 0; ++k) {
    SelectionVector next;
    next.Reserve(current.size());
    RAW_RETURN_NOT_OK(
        children_[k]->EvaluateSelectionFiltered(batch, current, &next));
    current = std::move(next);
  }
  for (int64_t i = 0; i < current.size(); ++i) out->Append(current[i]);
  return Status::OK();
}

Status BoolOpExpr::EvaluateSelectionFiltered(const ColumnBatch& batch,
                                             const SelectionVector& sel_in,
                                             SelectionVector* out) const {
  if (kind() != Kind::kAnd || children_.empty()) {
    return Expression::EvaluateSelectionFiltered(batch, sel_in, out);
  }
  SelectionVector current;
  current.Reserve(sel_in.size());
  RAW_RETURN_NOT_OK(
      children_[0]->EvaluateSelectionFiltered(batch, sel_in, &current));
  for (size_t k = 1; k < children_.size() && current.size() > 0; ++k) {
    SelectionVector next;
    next.Reserve(current.size());
    RAW_RETURN_NOT_OK(
        children_[k]->EvaluateSelectionFiltered(batch, current, &next));
    current = std::move(next);
  }
  for (int64_t i = 0; i < current.size(); ++i) out->Append(current[i]);
  return Status::OK();
}

std::string BoolOpExpr::ToString() const {
  std::string sep = kind() == Kind::kAnd ? " AND " : " OR ";
  std::string out = "(";
  for (size_t i = 0; i < children_.size(); ++i) {
    if (i > 0) out += sep;
    out += children_[i]->ToString();
  }
  return out + ")";
}

// --- NotExpr ----------------------------------------------------------------

StatusOr<DataType> NotExpr::ResultType(const Schema& schema) const {
  RAW_ASSIGN_OR_RETURN(DataType t, child_->ResultType(schema));
  if (t != DataType::kBool) {
    return Status::InvalidArgument("NOT child is not boolean");
  }
  return DataType::kBool;
}

StatusOr<Column> NotExpr::Evaluate(const ColumnBatch& batch) const {
  RAW_ASSIGN_OR_RETURN(Column c, child_->Evaluate(batch));
  if (c.type() != DataType::kBool) {
    return Status::InvalidArgument("NOT child is not boolean");
  }
  Column out(DataType::kBool);
  out.Reserve(batch.num_rows());
  const bool* v = c.Data<bool>();
  for (int64_t i = 0; i < batch.num_rows(); ++i) out.Append<bool>(!v[i]);
  return out;
}

std::string NotExpr::ToString() const {
  std::string out = "NOT ";
  out += child_->ToString();
  return out;
}

// --- convenience ------------------------------------------------------------

ExprPtr Col(int index) { return std::make_shared<ColumnRefExpr>(index); }
ExprPtr Lit(Datum value) {
  return std::make_shared<LiteralExpr>(std::move(value));
}
ExprPtr Cmp(CompareOp op, ExprPtr lhs, ExprPtr rhs) {
  return std::make_shared<CompareExpr>(op, std::move(lhs), std::move(rhs));
}
ExprPtr And(ExprPtr lhs, ExprPtr rhs) {
  return std::make_shared<BoolOpExpr>(
      Expression::Kind::kAnd, std::vector<ExprPtr>{std::move(lhs), std::move(rhs)});
}
ExprPtr Or(ExprPtr lhs, ExprPtr rhs) {
  return std::make_shared<BoolOpExpr>(
      Expression::Kind::kOr, std::vector<ExprPtr>{std::move(lhs), std::move(rhs)});
}
ExprPtr Not(ExprPtr child) { return std::make_shared<NotExpr>(std::move(child)); }
ExprPtr Arith(ArithOp op, ExprPtr lhs, ExprPtr rhs) {
  return std::make_shared<ArithExpr>(op, std::move(lhs), std::move(rhs));
}

}  // namespace raw
