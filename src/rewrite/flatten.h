// Rule-based query flattening (§4: "we also support rule-based query
// rewriting to transform nested batch queries into a more readable format").
//
// Rules, applied bottom-up to fixpoint:
//   R1 (filter merge): SELECT <items> FROM (SELECT * FROM X WHERE c1) WHERE c2
//       -> SELECT <items> FROM X WHERE c1 AND c2       (sub has no extras)
//   R2 (projection inline): subquery of the shape
//       SELECT *, e1 AS n1, ..., ek AS nk FROM X [WHERE c]  (no GROUP/...)
//       under an outer query without `*` is inlined by substituting n1..nk
//       with e1..ek in the outer query; c joins the outer WHERE as
//       `c AND outer_where`. This is what merges bin into the aggregate
//       query (Example 4.1), brushed or not.
#ifndef VEGAPLUS_REWRITE_FLATTEN_H_
#define VEGAPLUS_REWRITE_FLATTEN_H_

#include <memory>

#include "sql/sql_ast.h"

namespace vegaplus {
namespace rewrite {

/// Deep-copy a statement (the rewriter mutates copies).
std::shared_ptr<sql::SelectStmt> CloneStmt(const sql::SelectStmt& stmt);

/// Flatten `stmt` in place (recursively flattens subqueries first).
void FlattenStmt(sql::SelectStmt* stmt);

/// Substitute column references named `name` with `replacement` throughout
/// an expression tree; returns the (possibly new) root.
expr::NodePtr SubstituteColumn(const expr::NodePtr& node, const std::string& name,
                               const expr::NodePtr& replacement);

}  // namespace rewrite
}  // namespace vegaplus

#endif  // VEGAPLUS_REWRITE_FLATTEN_H_
