#include "front/parse.hpp"

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "ir/lexer.hpp"
#include "support/diagnostics.hpp"

namespace lf::front {

namespace {

using ir::Token;
using ir::TokenKind;

template <typename V>
class Parser {
  public:
    explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

    BasicProgram<V> parse() {
        BasicProgram<V> p;
        p.loc = peek().loc;
        expect_keyword("program");
        p.name = expect(TokenKind::Identifier).text;
        if constexpr (!kIsVec2<V>) {
            expect_keyword("dim");
            const Token& d = expect(TokenKind::Integer);
            check(d.integer >= 2 && d.integer <= 8,
                  [&] { return "parse error at " + d.loc.str() + ": dim must be in [2, 8]"; });
            p.dim = static_cast<int>(d.integer);
            dim_ = p.dim;
        }
        expect(TokenKind::LBrace);
        while (!at(TokenKind::RBrace)) {
            p.loops.push_back(parse_loop());
        }
        expect(TokenKind::RBrace);
        expect(TokenKind::End);
        return p;
    }

  private:
    [[nodiscard]] const Token& peek() const { return tokens_[pos_]; }
    [[nodiscard]] bool at(TokenKind kind) const { return peek().kind == kind; }

    const Token& advance() { return tokens_[pos_++]; }

    const Token& expect(TokenKind kind) {
        if (!at(kind)) {
            throw Error("parse error at " + peek().loc.str() + ": expected " + to_string(kind) +
                        ", found " + to_string(peek().kind) +
                        (peek().text.empty() ? "" : " '" + peek().text + "'"));
        }
        return advance();
    }

    void expect_keyword(const std::string& kw) {
        const Token& t = expect(TokenKind::Identifier);
        check(t.text == kw, [&] {
            return "parse error at " + t.loc.str() + ": expected '" + kw + "', found '" + t.text +
                   "'";
        });
    }

    bool accept(TokenKind kind) {
        if (at(kind)) {
            ++pos_;
            return true;
        }
        return false;
    }

    BasicLoopNest<V> parse_loop() {
        BasicLoopNest<V> loop;
        loop.loc = peek().loc;
        expect_keyword("loop");
        loop.label = expect(TokenKind::Identifier).text;
        expect(TokenKind::LBrace);
        while (!at(TokenKind::RBrace)) {
            loop.body.push_back(parse_statement());
        }
        expect(TokenKind::RBrace);
        check(!loop.body.empty(), [&] {
            return "parse error: loop " + loop.label + " at " + loop.loc.str() +
                   " has an empty body";
        });
        return loop;
    }

    BasicStatement<V> parse_statement() {
        BasicArrayRef<V> target = parse_array_ref();
        expect(TokenKind::Assign);
        BasicExprPtr<V> value = parse_expr();
        expect(TokenKind::Semicolon);
        return BasicStatement<V>(std::move(target), std::move(value));
    }

    BasicArrayRef<V> parse_array_ref() {
        BasicArrayRef<V> ref;
        const Token& name = expect(TokenKind::Identifier);
        ref.array = name.text;
        ref.loc = name.loc;
        if constexpr (!kIsVec2<V>) ref.offset = V::zeros(dim_);
        for (int level = 0; level < dim_; ++level) {
            expect(TokenKind::LBracket);
            ref.offset[level] = parse_index(level);
            expect(TokenKind::RBracket);
        }
        return ref;
    }

    std::int64_t parse_index(int level) {
        const Token& v = expect(TokenKind::Identifier);
        if constexpr (kIsVec2<V>) {
            const char var = level == 0 ? 'i' : 'j';
            check(v.text.size() == 1 && v.text[0] == var, [&] {
                return "parse error at " + v.loc.str() + ": subscript must use '" +
                       std::string(1, var) + "' (the paper's constant-distance model), found '" +
                       v.text + "'";
            });
        } else {
            const std::string want = detail::index_var(level, dim_);
            check(v.text == want, [&] {
                return "parse error at " + v.loc.str() + ": level-" + std::to_string(level) +
                       " subscript must use '" + want + "', found '" + v.text + "'";
            });
        }
        if (accept(TokenKind::Plus)) return expect(TokenKind::Integer).integer;
        if (accept(TokenKind::Minus)) return -expect(TokenKind::Integer).integer;
        return 0;
    }

    BasicExprPtr<V> parse_expr() {
        BasicExprPtr<V> lhs = parse_term();
        while (at(TokenKind::Plus) || at(TokenKind::Minus)) {
            const char op = advance().text[0];
            lhs = std::make_unique<BasicBinary<V>>(op, std::move(lhs), parse_term());
        }
        return lhs;
    }

    BasicExprPtr<V> parse_term() {
        BasicExprPtr<V> lhs = parse_factor();
        while (at(TokenKind::Star) || at(TokenKind::Slash)) {
            const char op = advance().text[0];
            lhs = std::make_unique<BasicBinary<V>>(op, std::move(lhs), parse_factor());
        }
        return lhs;
    }

    BasicExprPtr<V> parse_factor() {
        if (at(TokenKind::Number) || at(TokenKind::Integer)) {
            return std::make_unique<BasicLiteral<V>>(advance().number);
        }
        if (accept(TokenKind::Minus)) {
            return std::make_unique<BasicUnary<V>>(parse_factor());
        }
        if (accept(TokenKind::LParen)) {
            BasicExprPtr<V> e = parse_expr();
            expect(TokenKind::RParen);
            return e;
        }
        if (at(TokenKind::Identifier)) {
            return std::make_unique<BasicRead<V>>(parse_array_ref());
        }
        throw Error("parse error at " + peek().loc.str() + ": expected an expression, found " +
                    to_string(peek().kind));
    }

    std::vector<Token> tokens_;
    std::size_t pos_ = 0;
    int dim_ = 2;
};

/// True when `a` and `b` agree on every sequential (non-innermost) level.
template <typename V>
bool same_prefix(const V& a, const V& b) {
    for (int k = 0; k + 1 < a.dim(); ++k) {
        if (a[k] != b[k]) return false;
    }
    return true;
}

}  // namespace

template <typename V>
BasicProgram<V> parse_basic_program_unchecked(std::string_view source) {
    return Parser<V>(ir::tokenize(source)).parse();
}

template <typename V>
void validate_basic_program(const BasicProgram<V>& p) {
    check(!p.loops.empty(),
          [&] { return "sema: program '" + p.name + "' at " + p.loc.str() + " has no loops"; });

    std::set<std::string> labels;
    for (const BasicLoopNest<V>& loop : p.loops) {
        check(labels.insert(loop.label).second, [&] {
            return "sema: duplicate loop label '" + loop.label + "' at " + loop.loc.str();
        });
    }

    // DOALL check per loop: two accesses to the same array with at least one
    // write touch the same cell from two distinct instances of the same
    // sequential iteration exactly when their offsets agree on every
    // sequential level and differ in the innermost component.
    for (const BasicLoopNest<V>& loop : p.loops) {
        std::vector<std::pair<BasicArrayRef<V>, bool>> accesses;
        for (const BasicStatement<V>& s : loop.body) {
            accesses.emplace_back(s.target, true);
            for (const BasicArrayRef<V>& r : s.reads()) accesses.emplace_back(r, false);
        }
        for (std::size_t a = 0; a < accesses.size(); ++a) {
            for (std::size_t b = a + 1; b < accesses.size(); ++b) {
                if (!accesses[a].second && !accesses[b].second) continue;
                if (accesses[a].first.array != accesses[b].first.array) continue;
                const V& oa = accesses[a].first.offset;
                const V& ob = accesses[b].first.offset;
                if (!same_prefix(oa, ob) || oa[oa.dim() - 1] == ob[ob.dim() - 1]) continue;
                if constexpr (kIsVec2<V>) {
                    throw Error("sema: loop " + loop.label + " at " + loop.loc.str() +
                                " is not DOALL: accesses " + accesses[a].first.str() + " and " +
                                accesses[b].first.str() +
                                " conflict across j within one outer iteration");
                } else {
                    throw Error("sema: loop " + loop.label + " at " + loop.loc.str() +
                                " is not DOALL: " + accesses[a].first.str() + " conflicts with " +
                                accesses[b].first.str());
                }
            }
        }
    }
}

template <typename V>
BasicProgram<V> parse_basic_program(std::string_view source) {
    BasicProgram<V> p = parse_basic_program_unchecked<V>(source);
    validate_basic_program(p);
    return p;
}

AnyProgram parse_any_program(std::string_view source) {
    // Peek past "program <name>": an identifier `dim` there selects the
    // depth-d grammar. Lexer errors surface here, located, for both paths.
    const std::vector<Token> tokens = ir::tokenize(source);
    const bool has_dim_clause = tokens.size() > 2 &&
                                tokens[2].kind == TokenKind::Identifier &&
                                tokens[2].text == "dim";
    AnyProgram out;
    if (has_dim_clause) {
        out.pn = parse_basic_program<VecN>(source);
        out.depth = out.pn->dim;
    } else {
        out.p2 = parse_basic_program<Vec2>(source);
        out.depth = 2;
    }
    return out;
}

template BasicProgram<Vec2> parse_basic_program_unchecked<Vec2>(std::string_view);
template BasicProgram<VecN> parse_basic_program_unchecked<VecN>(std::string_view);
template void validate_basic_program<Vec2>(const BasicProgram<Vec2>&);
template void validate_basic_program<VecN>(const BasicProgram<VecN>&);
template BasicProgram<Vec2> parse_basic_program<Vec2>(std::string_view);
template BasicProgram<VecN> parse_basic_program<VecN>(std::string_view);

}  // namespace lf::front
