#include "expr/bin_expr.h"

#include <algorithm>
#include <cctype>

namespace vegaplus {
namespace expr {

namespace {

bool DatumMember(const NodePtr& node, std::string* column) {
  if (node == nullptr || node->kind != NodeKind::kMember) return false;
  if (node->a == nullptr || node->a->kind != NodeKind::kIdentifier ||
      node->a->name != "datum") {
    return false;
  }
  *column = node->name;
  return true;
}

bool IsBinary(const NodePtr& node, BinaryOp op) {
  return node != nullptr && node->kind == NodeKind::kBinary && node->binary_op == op;
}

}  // namespace

bool NumericLiteral(const NodePtr& node, double* v) {
  if (node == nullptr) return false;
  if (node->kind == NodeKind::kUnary && node->unary_op == UnaryOp::kNeg) {
    double inner;
    if (!NumericLiteral(node->a, &inner)) return false;
    *v = -inner;
    return true;
  }
  if (node->kind != NodeKind::kLiteral || !node->literal.is_numeric()) {
    return false;
  }
  *v = node->literal.AsDouble();
  return true;
}

bool MatchBinExpr(const NodePtr& node, std::string* column, double* start,
                  double* step) {
  // A + (floor((datum.col - A) / S) * S)
  if (!IsBinary(node, BinaryOp::kAdd)) return false;
  double a0;
  if (!NumericLiteral(node->a, &a0)) return false;
  const NodePtr& mul = node->b;
  if (!IsBinary(mul, BinaryOp::kMul)) return false;
  double s0;
  if (!NumericLiteral(mul->b, &s0) || !(s0 > 0)) return false;
  const NodePtr& call = mul->a;
  if (call == nullptr || call->kind != NodeKind::kCall || call->args.size() != 1) {
    return false;
  }
  std::string fn = call->name;
  std::transform(fn.begin(), fn.end(), fn.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (fn != "floor") return false;
  const NodePtr& div = call->args[0];
  if (!IsBinary(div, BinaryOp::kDiv)) return false;
  double s1;
  if (!NumericLiteral(div->b, &s1) || s1 != s0) return false;
  const NodePtr& sub = div->a;
  if (!IsBinary(sub, BinaryOp::kSub)) return false;
  double a1;
  if (!NumericLiteral(sub->b, &a1) || a1 != a0) return false;
  if (!DatumMember(sub->a, column)) return false;
  *start = a0;
  *step = s0;
  return true;
}

bool MatchBinKey(const NodePtr& node, BinKey* out) {
  if (MatchBinExpr(node, &out->column, &out->start, &out->step)) return true;
  double offset;
  return IsBinary(node, BinaryOp::kAdd) && NumericLiteral(node->b, &offset) &&
         MatchBinExpr(node->a, &out->column, &out->start, &out->step);
}

}  // namespace expr
}  // namespace vegaplus
