#pragma once
// AST of the loop DSL, mirroring the paper's program model (Figure 1):
// a single sequential outer loop over `i` containing a sequence of labelled
// innermost DOALL loops over `j`. Array subscripts are `i+c` / `j+c` with
// constant c (constant-distance dependences, as the paper requires).
//
// Forwarding shim: these are the depth-2 instantiations of the unified
// dimension-generic AST in front/ast.hpp (the N-D aliases live in
// mdir/ast.hpp). Printers and str() layouts are byte-compatible with the
// historical 2-D AST; programs are evaluated by exec/interp.hpp.

#include "front/ast.hpp"
#include "ir/token.hpp"
#include "support/lexvec.hpp"

namespace lf::ir {

using ArrayRef = front::BasicArrayRef<Vec2>;
using Expr = front::BasicExpr<Vec2>;
using ExprPtr = front::BasicExprPtr<Vec2>;
using LiteralExpr = front::BasicLiteral<Vec2>;
using ReadExpr = front::BasicRead<Vec2>;
using UnaryExpr = front::BasicUnary<Vec2>;
using BinaryExpr = front::BasicBinary<Vec2>;
using Statement = front::BasicStatement<Vec2>;
using LoopNest = front::BasicLoopNest<Vec2>;
using Program = front::BasicProgram<Vec2>;

using front::operator<<;

}  // namespace lf::ir
