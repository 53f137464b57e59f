#ifndef RAW_ENGINE_SQL_BINDER_H_
#define RAW_ENGINE_SQL_BINDER_H_

#include "engine/catalog.h"
#include "engine/logical_plan.h"

namespace raw::sql {

/// Semantic checks + name qualification against the catalog's registry (no
/// file is opened or checked): verifies every referenced table exists,
/// qualifies column references, coerces predicate literals to the column's
/// type where exact (CoerceLiteral, so the typed fast paths apply), and
/// validates aggregate input types. The one column resolver and literal
/// coercion for SQL and programmatic specs alike; idempotent on a bound
/// spec.
Status Bind(const Catalog* catalog, QuerySpec* spec);

}  // namespace raw::sql

#endif  // RAW_ENGINE_SQL_BINDER_H_
