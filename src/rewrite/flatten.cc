#include "rewrite/flatten.h"

#include <map>

namespace vegaplus {
namespace rewrite {

namespace {

using expr::Node;
using expr::NodeKind;
using expr::NodePtr;
using sql::SelectItem;
using sql::SelectStmt;

bool IsColumnRef(const NodePtr& node, std::string* name) {
  if (node && node->kind == NodeKind::kMember && node->a &&
      node->a->kind == NodeKind::kIdentifier && node->a->name == "datum") {
    *name = node->name;
    return true;
  }
  return false;
}

// Sub is "SELECT * FROM X [WHERE c]" with nothing else?
bool IsPassthroughFilter(const SelectStmt& sub) {
  return sub.items.size() == 1 && sub.items[0].kind == SelectItem::Kind::kStar &&
         sub.group_by.empty() && sub.having == nullptr && sub.order_by.empty() &&
         sub.limit < 0 && sub.offset == 0;
}

// Sub is "SELECT *, e1 AS n1, ... FROM X [WHERE c]" with nothing else?
// Collect the computed items.
bool IsProjectionExtension(const SelectStmt& sub,
                           std::map<std::string, NodePtr>* computed) {
  if (!sub.group_by.empty() || sub.having != nullptr ||
      !sub.order_by.empty() || sub.limit >= 0 || sub.offset != 0) {
    return false;
  }
  if (sub.items.empty() || sub.items[0].kind != SelectItem::Kind::kStar) return false;
  for (size_t i = 1; i < sub.items.size(); ++i) {
    const SelectItem& item = sub.items[i];
    if (item.kind != SelectItem::Kind::kExpr || item.alias.empty()) return false;
    (*computed)[item.alias] = item.expr;
  }
  return true;
}

// Replace every column reference named in `bindings` in one pass, so a
// replacement is never itself rewritten by a later binding (a computed item
// may read a base column that shares another item's alias).
NodePtr SubstituteColumns(const NodePtr& node,
                          const std::map<std::string, NodePtr>& bindings) {
  if (!node) return node;
  std::string col;
  if (IsColumnRef(node, &col)) {
    auto it = bindings.find(col);
    return it == bindings.end() ? node : it->second;
  }
  // Rebuild children when any changed.
  auto copy = std::make_shared<Node>(*node);
  bool changed = false;
  auto visit = [&](const NodePtr& child) {
    NodePtr out = SubstituteColumns(child, bindings);
    if (out != child) changed = true;
    return out;
  };
  copy->a = visit(node->a);
  copy->b = visit(node->b);
  copy->c = visit(node->c);
  for (size_t i = 0; i < copy->args.size(); ++i) {
    copy->args[i] = visit(node->args[i]);
  }
  return changed ? NodePtr(copy) : node;
}

void SubstituteInStmt(SelectStmt* stmt, const std::map<std::string, NodePtr>& bindings) {
  auto subst = [&bindings](const NodePtr& e) { return SubstituteColumns(e, bindings); };
  for (SelectItem& item : stmt->items) {
    // A bare `n` output keeps its name once it reads `e` instead.
    std::string col;
    if (item.kind == SelectItem::Kind::kExpr && item.alias.empty() &&
        IsColumnRef(item.expr, &col) && bindings.count(col) > 0) {
      item.alias = col;
    }
    if (item.expr) item.expr = subst(item.expr);
    if (item.agg_arg) item.agg_arg = subst(item.agg_arg);
    if (item.window.arg) item.window.arg = subst(item.window.arg);
    for (auto& p : item.window.partition_by) p = subst(p);
    for (auto& o : item.window.order_by) o.expr = subst(o.expr);
  }
  if (stmt->where) stmt->where = subst(stmt->where);
  for (auto& g : stmt->group_by) g = subst(g);
  if (stmt->having) stmt->having = subst(stmt->having);
  for (auto& o : stmt->order_by) o.expr = subst(o.expr);
}

// Does the outer statement reference any column NOT produced by substituting
// the computed items — i.e. does it use `*`? A SELECT * outer cannot inline a
// projection extension without changing its output schema.
bool OuterHasStar(const SelectStmt& stmt) {
  for (const SelectItem& item : stmt.items) {
    if (item.kind == SelectItem::Kind::kStar) return true;
  }
  return false;
}

// Replace the FROM subquery by its own FROM, ANDing its WHERE ahead of the
// outer one.
void MergeInner(SelectStmt* stmt) {
  const std::shared_ptr<const SelectStmt> inner = stmt->from.subquery;
  if (inner->where) {
    stmt->where = stmt->where
                      ? Node::Binary(expr::BinaryOp::kAnd, inner->where, stmt->where)
                      : inner->where;
  }
  stmt->from = inner->from;
}

}  // namespace

expr::NodePtr SubstituteColumn(const NodePtr& node, const std::string& name,
                               const NodePtr& replacement) {
  return SubstituteColumns(node, {{name, replacement}});
}

std::shared_ptr<SelectStmt> CloneStmt(const SelectStmt& stmt) {
  auto copy = std::make_shared<SelectStmt>(stmt);
  if (stmt.from.subquery) {
    copy->from.subquery = CloneStmt(*stmt.from.subquery);
  }
  return copy;
}

void FlattenStmt(SelectStmt* stmt) {
  if (!stmt->from.subquery) return;
  // Flatten the subquery first (bottom-up).
  auto sub = CloneStmt(*stmt->from.subquery);
  FlattenStmt(sub.get());
  stmt->from.subquery = sub;

  bool changed = true;
  while (changed && stmt->from.subquery) {
    changed = false;
    const SelectStmt& inner = *stmt->from.subquery;

    // R1: merge a pass-through filter subquery.
    if (IsPassthroughFilter(inner)) {
      MergeInner(stmt);
      changed = true;
      continue;
    }

    // R2: inline a projection-extension subquery (bin/formula/timeunit).
    // Its WHERE reads base columns only, so it joins the outer WHERE (after
    // substitution) unchanged.
    std::map<std::string, NodePtr> computed;
    if (!OuterHasStar(*stmt) && IsProjectionExtension(inner, &computed) &&
        !computed.empty()) {
      SubstituteInStmt(stmt, computed);
      MergeInner(stmt);
      changed = true;
      continue;
    }
  }
}

}  // namespace rewrite
}  // namespace vegaplus
