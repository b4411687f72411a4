// Unit tests for src/ir: lexer, parser, AST operations, printers and sema.

#include <gtest/gtest.h>

#include <sstream>

#include "exec/engines.hpp"
#include "ir/lexer.hpp"
#include "ir/parser.hpp"
#include "ir/sema.hpp"
#include "support/diagnostics.hpp"
#include "workloads/sources.hpp"

namespace lf::ir {
namespace {

TEST(Lexer, TokenizesAllKinds) {
    const auto tokens = tokenize("program p { a[i-2][j+1] = 0.25 * (b[i][j] - 3); }");
    ASSERT_FALSE(tokens.empty());
    EXPECT_EQ(tokens.front().kind, TokenKind::Identifier);
    EXPECT_EQ(tokens.front().text, "program");
    EXPECT_EQ(tokens.back().kind, TokenKind::End);

    int numbers = 0, integers = 0;
    for (const auto& t : tokens) {
        if (t.kind == TokenKind::Number) ++numbers;
        if (t.kind == TokenKind::Integer) ++integers;
    }
    EXPECT_EQ(numbers, 1);   // 0.25
    EXPECT_EQ(integers, 3);  // 2, 1, 3
}

TEST(Lexer, CommentsAreSkippedAndLocationsTracked) {
    const auto tokens = tokenize("# a comment line\n  loop");
    ASSERT_EQ(tokens.size(), 2u);
    EXPECT_EQ(tokens[0].text, "loop");
    EXPECT_EQ(tokens[0].loc.line, 2);
    EXPECT_EQ(tokens[0].loc.column, 3);
}

TEST(Lexer, ScientificNotation) {
    const auto tokens = tokenize("1.5e-3 2E4");
    EXPECT_EQ(tokens[0].kind, TokenKind::Number);
    EXPECT_DOUBLE_EQ(tokens[0].number, 1.5e-3);
    EXPECT_EQ(tokens[1].kind, TokenKind::Number);
    EXPECT_DOUBLE_EQ(tokens[1].number, 2e4);
}

TEST(Lexer, RejectsUnknownCharacter) {
    EXPECT_THROW((void)tokenize("a @ b"), Error);
}

TEST(Parser, ParsesFig2Verbatim) {
    const Program p = parse_program(workloads::sources::kFig2);
    EXPECT_EQ(p.name, "fig2");
    ASSERT_EQ(p.loops.size(), 4u);
    EXPECT_EQ(p.loops[0].label, "A");
    EXPECT_EQ(p.loops[2].label, "C");
    ASSERT_EQ(p.loops[2].body.size(), 2u);
    EXPECT_EQ(p.loops[2].body[0].target.array, "c");
    EXPECT_EQ(p.loops[2].body[0].target.offset, Vec2(0, 0));
    // c[i][j] = b[i][j+2] - a[i][j-1] + b[i][j-1]
    const auto reads = p.loops[2].body[0].reads();
    ASSERT_EQ(reads.size(), 3u);
    EXPECT_EQ(reads[0].array, "b");
    EXPECT_EQ(reads[0].offset, Vec2(0, 2));
    EXPECT_EQ(reads[1].array, "a");
    EXPECT_EQ(reads[1].offset, Vec2(0, -1));
}

TEST(Parser, RoundTripThroughPrinter) {
    const Program p1 = parse_program(workloads::sources::kJacobiPair);
    const Program p2 = parse_program(p1.str());
    ASSERT_EQ(p1.loops.size(), p2.loops.size());
    for (std::size_t k = 0; k < p1.loops.size(); ++k) {
        EXPECT_EQ(p1.loops[k].label, p2.loops[k].label);
        ASSERT_EQ(p1.loops[k].body.size(), p2.loops[k].body.size());
        for (std::size_t s = 0; s < p1.loops[k].body.size(); ++s) {
            EXPECT_EQ(p1.loops[k].body[s].str(), p2.loops[k].body[s].str());
        }
    }
}

TEST(Parser, SubscriptsMustUseTheRightIndexVariable) {
    EXPECT_THROW((void)parse_program("program p { loop A { a[j][i] = 1.0; } }"), Error);
    EXPECT_THROW((void)parse_program("program p { loop A { a[i][k] = 1.0; } }"), Error);
}

TEST(Parser, RejectsNonConstantOffsets) {
    EXPECT_THROW((void)parse_program("program p { loop A { a[i*2][j] = 1.0; } }"), Error);
}

TEST(Parser, ReportsLocationInErrors) {
    try {
        (void)parse_program("program p {\n  loop A {\n    a[i][j] = ;\n  }\n}");
        FAIL() << "expected parse error";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("3:"), std::string::npos) << e.what();
    }
}

TEST(Parser, RejectsEmptyLoopAndMissingSemicolon) {
    EXPECT_THROW((void)parse_program("program p { loop A { } }"), Error);
    EXPECT_THROW((void)parse_program("program p { loop A { a[i][j] = 1.0 } }"), Error);
}

TEST(Parser, PrecedenceAndUnaryMinus) {
    const Program p = parse_program("program p { loop A { a[i][j] = -b[i-1][j] + 2 * 3; } }");
    std::ostringstream os;
    p.loops[0].body[0].value->print(os);
    EXPECT_EQ(os.str(), "((-b[i-1][j]) + (2.0 * 3.0))");
}

TEST(Ast, EvalArithmetic) {
    // 2*(3+4) - (-5) = 19, no array reads involved.
    const Program p =
        parse_program("program p { loop A { a[i][j] = 2 * (3 + 4) - (-5); } }");
    const Domain dom{0, 0};
    exec::ArrayStore store(p, dom);
    (void)exec::run_original(p, dom, store);
    EXPECT_DOUBLE_EQ(store.load("a", 0, 0), 19.0);
    EXPECT_EQ(store.loads(), 1);  // the check above; the statement reads nothing
}

TEST(Ast, EvalReadsUseShiftedCells) {
    const Program p = parse_program("program p { loop A { a[i][j] = b[i-2][j+1]; } }");
    const Domain dom{7, 9};
    exec::ArrayStore store(p, dom);
    (void)exec::run_original(p, dom, store);
    EXPECT_DOUBLE_EQ(store.load("a", 5, 7), exec::ArrayStore::boundary_value("b", 3, 8));
}

TEST(Ast, ShiftedStatementMatchesPaperFigure3) {
    // r(C) = (-1,0) turns "c[i][j] = ... c[i-1][j]" into "c[i-1][j] = ... c[i-2][j]".
    const Program p = parse_program(workloads::sources::kFig2);
    const Statement& d_stmt = p.loops[2].body[1];  // d[i][j] = c[i-1][j];
    const Statement shifted = d_stmt.shifted(Vec2{-1, 0});
    EXPECT_EQ(shifted.str(), "d[i-1][j] = c[i-2][j];");
}

TEST(Ast, ProgramQueries) {
    const Program p = parse_program(workloads::sources::kFig2);
    EXPECT_EQ(p.written_arrays(), (std::vector<std::string>{"a", "b", "c", "d", "e"}));
    EXPECT_EQ(p.arrays(), (std::vector<std::string>{"a", "b", "c", "d", "e"}));
    EXPECT_EQ(p.max_offset(), 2);
    EXPECT_EQ(p.loops[0].body_cost(), 2);  // 1 statement + 1 read
    EXPECT_EQ(p.loops[2].body_cost(), 6);  // 2 statements + 4 reads
}

TEST(Sema, RejectsDuplicateLabels) {
    EXPECT_THROW((void)parse_program("program p { loop A { a[i][j] = 1.0; } "
                                     "loop A { b[i][j] = 2.0; } }"),
                 Error);
}

TEST(Sema, RejectsNonDoallSelfDependence) {
    // a[i][j] depends on a[i][j-1] within the same DOALL loop.
    EXPECT_THROW((void)parse_program("program p { loop A { a[i][j] = a[i][j-1]; } }"), Error);
}

TEST(Sema, RejectsNonDoallWriteWriteConflict) {
    EXPECT_THROW((void)parse_program("program p { loop A { a[i][j] = 1.0; a[i][j+1] = 2.0; } }"),
                 Error);
}

TEST(Sema, AcceptsIntraInstanceForwarding) {
    // Reading one's own write at the same (i, j) is fine.
    EXPECT_NO_THROW((void)parse_program(
        "program p { loop A { a[i][j] = 1.0; b[i][j] = a[i][j] + 1.0; } }"));
}

TEST(Sema, AcceptsCarriedSelfDependence) {
    EXPECT_NO_THROW((void)parse_program("program p { loop A { a[i][j] = a[i-1][j+3]; } }"));
}

TEST(Sema, AllGallerySourcesValidate) {
    EXPECT_NO_THROW((void)parse_program(workloads::sources::kFig2));
    EXPECT_NO_THROW((void)parse_program(workloads::sources::kFig8));
    EXPECT_NO_THROW((void)parse_program(workloads::sources::kJacobiPair));
    EXPECT_NO_THROW((void)parse_program(workloads::sources::kIirChain));
}

}  // namespace
}  // namespace lf::ir
