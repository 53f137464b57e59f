#include "engine/sql/binder.h"

namespace raw::sql {

namespace {

Status QualifyRef(const std::vector<TableEntry*>& tables, ColumnRefSpec* ref,
                  DataType* type_out) {
  TableEntry* found = nullptr;
  DataType type = DataType::kInt32;
  for (TableEntry* entry : tables) {
    if (!ref->table.empty() && entry->info.name != ref->table) continue;
    int idx = entry->info.schema.FieldIndex(ref->column);
    if (idx < 0) continue;
    if (found != nullptr) {
      return Status::InvalidArgument("ambiguous column '" + ref->column + "'");
    }
    found = entry;
    type = entry->info.schema.field(idx).type;
  }
  if (found == nullptr) {
    return Status::NotFound("column '" + ref->ToString() + "' not found");
  }
  ref->table = found->info.name;
  if (type_out != nullptr) *type_out = type;
  return Status::OK();
}

}  // namespace

Status Bind(const Catalog* catalog, QuerySpec* spec) {
  RAW_RETURN_NOT_OK(spec->Validate());
  std::vector<TableEntry*> tables;
  for (const std::string& t : spec->tables) {
    RAW_ASSIGN_OR_RETURN(TableEntry * entry, catalog->Lookup(t));
    tables.push_back(entry);
  }
  if (spec->is_join()) {
    DataType lt, rt;
    RAW_RETURN_NOT_OK(QualifyRef(tables, &spec->join_left, &lt));
    RAW_RETURN_NOT_OK(QualifyRef(tables, &spec->join_right, &rt));
    if (!IsNumeric(lt) || !IsNumeric(rt)) {
      return Status::InvalidArgument("join keys must be numeric");
    }
  }
  for (PredicateSpec& pred : spec->predicates) {
    DataType col_type;
    RAW_RETURN_NOT_OK(QualifyRef(tables, &pred.column, &col_type));
    if (pred.is_parameter()) {
      // `?` placeholder: remember the column type so values bound later
      // coerce exactly like inline literals would have.
      pred.param_type = col_type;
      continue;
    }
    // Coerce the literal to the column type where that is exact, so typed
    // comparison fast paths apply (see CoerceLiteral).
    RAW_ASSIGN_OR_RETURN(pred.literal, CoerceLiteral(pred.literal, col_type));
  }
  for (AggItemSpec& agg : spec->aggregates) {
    if (agg.count_star) continue;
    DataType type;
    RAW_RETURN_NOT_OK(QualifyRef(tables, &agg.column, &type));
    RAW_RETURN_NOT_OK(AggResultType(agg.kind, type).status());
  }
  for (ColumnRefSpec& p : spec->projections) {
    RAW_RETURN_NOT_OK(QualifyRef(tables, &p, nullptr));
  }
  for (ColumnRefSpec& g : spec->group_by) {
    RAW_RETURN_NOT_OK(QualifyRef(tables, &g, nullptr));
  }
  return Status::OK();
}

}  // namespace raw::sql
