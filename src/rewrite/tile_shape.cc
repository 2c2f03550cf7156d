#include "rewrite/tile_shape.h"

#include "expr/bin_expr.h"

namespace vegaplus {
namespace rewrite {

namespace {

using expr::BinaryOp;
using expr::MatchBinExpr;
using expr::NodeKind;
using expr::NodePtr;
using expr::NumericLiteral;
using sql::AggOp;
using sql::SelectItem;
using sql::SelectStmt;

bool DatumMember(const NodePtr& node, std::string* column) {
  if (node == nullptr || node->kind != NodeKind::kMember) return false;
  if (node->a == nullptr || node->a->kind != NodeKind::kIdentifier ||
      node->a->name != "datum") {
    return false;
  }
  *column = node->name;
  return true;
}

/// Fold one comparison conjunct into the shape's brush bounds.
bool FoldRangePredicate(const NodePtr& node, TileShape* shape) {
  if (node == nullptr || node->kind != NodeKind::kBinary) return false;
  BinaryOp op = node->binary_op;
  std::string column;
  double bound;
  bool column_on_left;
  if (DatumMember(node->a, &column) && NumericLiteral(node->b, &bound)) {
    column_on_left = true;
  } else if (NumericLiteral(node->a, &bound) && DatumMember(node->b, &column)) {
    column_on_left = false;
  } else {
    return false;
  }
  if (column != shape->bin_column) return false;
  // Normalize to "column OP bound".
  if (!column_on_left) {
    switch (op) {
      case BinaryOp::kLt: op = BinaryOp::kGt; break;
      case BinaryOp::kLte: op = BinaryOp::kGte; break;
      case BinaryOp::kGt: op = BinaryOp::kLt; break;
      case BinaryOp::kGte: op = BinaryOp::kLte; break;
      default: return false;
    }
  }
  switch (op) {
    case BinaryOp::kGt:
    case BinaryOp::kGte:
      if (shape->has_lower) return false;  // one lower bound only
      shape->has_lower = true;
      shape->lower_strict = op == BinaryOp::kGt;
      shape->lower = bound;
      return true;
    case BinaryOp::kLt:
    case BinaryOp::kLte:
      if (shape->has_upper) return false;
      shape->has_upper = true;
      shape->upper_strict = op == BinaryOp::kLt;
      shape->upper = bound;
      return true;
    default:
      return false;
  }
}

bool FoldWhere(const NodePtr& node, TileShape* shape) {
  if (node == nullptr) return true;
  if (node->kind == NodeKind::kBinary && node->binary_op == BinaryOp::kAnd) {
    return FoldWhere(node->a, shape) && FoldWhere(node->b, shape);
  }
  return FoldRangePredicate(node, shape);
}

}  // namespace

bool MatchTileShape(const SelectStmt& stmt, TileShape* out) {
  TileShape shape;
  if (stmt.from.subquery != nullptr || stmt.from.table_name.empty()) return false;
  shape.table = stmt.from.table_name;
  if (stmt.having != nullptr || !stmt.order_by.empty() || stmt.limit >= 0 ||
      stmt.offset != 0) {
    return false;
  }

  // ---- Group keys ----
  std::string bin0_text;
  std::string bin1_text;
  std::string key_text;
  if (stmt.group_by.size() == 2) {
    if (!MatchBinExpr(stmt.group_by[0], &shape.bin_column, &shape.start,
                      &shape.step)) {
      return false;
    }
    // bin1 = bin0 + step, with a structurally identical bin0.
    const NodePtr& g1 = stmt.group_by[1];
    if (g1 == nullptr || g1->kind != NodeKind::kBinary ||
        g1->binary_op != BinaryOp::kAdd) {
      return false;
    }
    double s;
    if (!NumericLiteral(g1->b, &s) || s != shape.step) return false;
    if (expr::ToString(g1->a) != expr::ToString(stmt.group_by[0])) return false;
    shape.has_bin1 = true;
    bin0_text = expr::ToString(stmt.group_by[0]);
    bin1_text = expr::ToString(g1);
  } else if (stmt.group_by.size() == 1) {
    if (MatchBinExpr(stmt.group_by[0], &shape.bin_column, &shape.start,
                     &shape.step)) {
      bin0_text = expr::ToString(stmt.group_by[0]);
    } else if (DatumMember(stmt.group_by[0], &shape.bin_column)) {
      shape.categorical = true;
      key_text = expr::ToString(stmt.group_by[0]);
    } else {
      return false;
    }
  } else {
    // No GROUP BY (scalar aggregates) is deliberately not covered: those
    // queries are cheap relative to a tile build and other suites pin their
    // execution-source expectations.
    return false;
  }

  // ---- WHERE ----
  if (stmt.where != nullptr) {
    // Brushes are only covered on the numeric binned column.
    if (shape.categorical) return false;
    if (!FoldWhere(stmt.where, &shape)) return false;
  }

  // ---- Select items ----
  for (const SelectItem& item : stmt.items) {
    TileShape::Item entry;
    switch (item.kind) {
      case SelectItem::Kind::kExpr: {
        const std::string text = expr::ToString(item.expr);
        if (!bin0_text.empty() && text == bin0_text) {
          entry.kind = TileShape::Item::Kind::kBin0;
        } else if (!bin1_text.empty() && text == bin1_text) {
          entry.kind = TileShape::Item::Kind::kBin1;
        } else if (!key_text.empty() && text == key_text) {
          entry.kind = TileShape::Item::Kind::kKey;
        } else {
          return false;
        }
        break;
      }
      case SelectItem::Kind::kAggregate: {
        entry.kind = TileShape::Item::Kind::kAggregate;
        entry.op = item.agg_op;
        switch (item.agg_op) {
          case AggOp::kCount:
          case AggOp::kSum:
          case AggOp::kAvg:
          case AggOp::kMin:
          case AggOp::kMax:
            break;
          default:
            return false;  // median/stddev/variance: not in tile slots
        }
        if (item.agg_arg == nullptr) {
          if (item.agg_op != AggOp::kCount) return false;
          entry.count_star = true;
        } else if (!DatumMember(item.agg_arg, &entry.agg_column)) {
          return false;
        }
        break;
      }
      default:
        return false;  // '*' or window items
    }
    shape.items.push_back(entry);
  }
  if (shape.items.empty()) return false;

  *out = std::move(shape);
  return true;
}

}  // namespace rewrite
}  // namespace vegaplus
