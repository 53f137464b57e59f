#include "engine/logical_plan.h"

#include <sstream>

namespace raw {

std::string PredicateSpec::ToString() const {
  std::string out =
      column.ToString() + " " + std::string(CompareOpToString(op)) + " ";
  if (is_parameter()) {
    out += '?';
    out += std::to_string(param_index + 1);
  } else {
    out += literal.ToString();
  }
  return out;
}

std::string QuerySpec::ToString() const {
  std::ostringstream os;
  os << "SELECT ";
  if (is_aggregate()) {
    for (size_t i = 0; i < aggregates.size(); ++i) {
      if (i > 0) os << ", ";
      const AggItemSpec& a = aggregates[i];
      os << AggKindToString(a.kind) << "("
         << (a.count_star ? "*" : a.column.ToString()) << ")";
    }
  } else {
    for (size_t i = 0; i < projections.size(); ++i) {
      if (i > 0) os << ", ";
      os << projections[i].ToString();
    }
  }
  os << " FROM " << tables[0];
  if (is_join()) {
    os << " JOIN " << tables[1] << " ON " << join_left.ToString() << " = "
       << join_right.ToString();
  }
  if (!predicates.empty()) {
    os << " WHERE ";
    for (size_t i = 0; i < predicates.size(); ++i) {
      if (i > 0) os << " AND ";
      os << predicates[i].ToString();
    }
  }
  if (!group_by.empty()) {
    os << " GROUP BY ";
    for (size_t i = 0; i < group_by.size(); ++i) {
      if (i > 0) os << ", ";
      os << group_by[i].ToString();
    }
  }
  if (limit >= 0) os << " LIMIT " << limit;
  return os.str();
}

namespace {

/// Length-prefixed string: "5:muons" — unambiguous under concatenation.
void PutStr(std::ostringstream& os, const std::string& s) {
  os << s.size() << ':' << s;
}

void PutRef(std::ostringstream& os, const ColumnRefSpec& ref) {
  PutStr(os, ref.table);
  PutStr(os, ref.column);
}

void PutDatum(std::ostringstream& os, const Datum& d) {
  os << static_cast<int>(d.type()) << '=';
  PutStr(os, d.ToString());  // round-trippable precision for floats
}

}  // namespace

std::string QuerySpec::Fingerprint() const {
  std::ostringstream os;
  os << "v1|T";
  for (const std::string& t : tables) PutStr(os, t);
  if (is_join()) {
    os << "|J";
    PutRef(os, join_left);
    PutRef(os, join_right);
  }
  os << "|P" << predicates.size();
  for (const PredicateSpec& p : predicates) {
    PutRef(os, p.column);
    os << static_cast<int>(p.op) << ';';
    if (p.is_parameter()) {
      os << '?' << p.param_index << '/' << static_cast<int>(p.param_type);
    } else {
      PutDatum(os, p.literal);
    }
  }
  os << "|A" << aggregates.size();
  for (const AggItemSpec& a : aggregates) {
    os << static_cast<int>(a.kind) << (a.count_star ? '*' : '.');
    PutRef(os, a.column);
    PutStr(os, a.output_name);
  }
  os << "|C" << projections.size();
  for (const ColumnRefSpec& c : projections) PutRef(os, c);
  os << "|G" << group_by.size();
  for (const ColumnRefSpec& g : group_by) PutRef(os, g);
  os << "|L" << limit << "|N" << num_params;
  return os.str();
}

Status QuerySpec::Validate() const {
  if (tables.empty() || tables.size() > 2) {
    return Status::InvalidArgument("query must reference one or two tables");
  }
  if (is_join()) {
    if (join_left.column.empty() || join_right.column.empty()) {
      return Status::InvalidArgument("join requires an ON equality condition");
    }
  }
  if (aggregates.empty() && projections.empty()) {
    return Status::InvalidArgument("empty SELECT list");
  }
  if (!aggregates.empty() && !projections.empty() && group_by.empty()) {
    return Status::InvalidArgument(
        "mixing aggregates and plain columns requires GROUP BY");
  }
  for (const ColumnRefSpec& g : group_by) {
    if (g.column.empty()) {
      return Status::InvalidArgument("empty GROUP BY column");
    }
  }
  return Status::OK();
}

}  // namespace raw
