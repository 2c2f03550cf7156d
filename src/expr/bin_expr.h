// Recognizer for the rewriter's bin expression, `A + floor((datum.col - A) /
// S) * S` with literal A and S > 0 (bound prepared statements carry literal
// bin parameters). The tile matcher uses it to find levels that can answer a
// histogram query; the SQL executor uses it to group by integer bin index
// instead of hashing bin values.
#ifndef VEGAPLUS_EXPR_BIN_EXPR_H_
#define VEGAPLUS_EXPR_BIN_EXPR_H_

#include <string>

#include "expr/ast.h"

namespace vegaplus {
namespace expr {

/// A numeric literal, or the negation of one.
bool NumericLiteral(const NodePtr& node, double* v);

/// Recognize `A + floor((datum.col - A) / S) * S` with literal A/S (S > 0).
bool MatchBinExpr(const NodePtr& node, std::string* column, double* start,
                  double* step);

/// A group key that is a bin expression, or a bin expression plus a literal
/// (the rewriter's bin end, `bin0 + S`).
struct BinKey {
  std::string column;
  double start = 0;
  double step = 0;
};
bool MatchBinKey(const NodePtr& node, BinKey* out);

}  // namespace expr
}  // namespace vegaplus

#endif  // VEGAPLUS_EXPR_BIN_EXPR_H_
