#include "ldg/serialization.hpp"

#include <sstream>
#include <string_view>
#include <unordered_map>

#include "ir/lexer.hpp"
#include "support/diagnostics.hpp"

namespace lf {

std::string serialize_mldg(const Mldg& g, const std::string& name) {
    std::ostringstream os;
    os << "mldg " << name << " {\n";
    for (int v = 0; v < g.num_nodes(); ++v) {
        os << "  node " << g.node(v).name;
        if (g.node(v).body_cost != 1) os << " cost " << g.node(v).body_cost;
        os << ";\n";
    }
    for (const auto& e : g.edges()) {
        os << "  edge " << g.node(e.from).name << ' ' << g.node(e.to).name << " {";
        for (const Vec2& d : e.vectors) os << ' ' << d.str();
        os << " };\n";
    }
    os << "}\n";
    return os.str();
}

namespace {

using ir::Token;
using ir::TokenKind;

class GraphParser {
  public:
    explicit GraphParser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

    Mldg parse() {
        Mldg g;
        expect_keyword("mldg");
        expect(TokenKind::Identifier);  // graph name (informational)
        expect(TokenKind::LBrace);
        while (!at(TokenKind::RBrace)) {
            const Token& kw = expect(TokenKind::Identifier);
            if (kw.text == "node") {
                parse_node(g);
            } else if (kw.text == "edge") {
                parse_edge(g);
            } else {
                throw Error("parse error at " + kw.loc.str() + ": expected 'node' or 'edge', found '" +
                            kw.text + "'");
            }
        }
        expect(TokenKind::RBrace);
        expect(TokenKind::End);
        return g;
    }

  private:
    [[nodiscard]] const Token& peek() const { return tokens_[pos_]; }
    [[nodiscard]] bool at(TokenKind kind) const { return peek().kind == kind; }
    const Token& advance() { return tokens_[pos_++]; }

    const Token& expect(TokenKind kind) {
        check(at(kind), [&] {
            return "parse error at " + peek().loc.str() + ": expected " + ir::to_string(kind) +
                   ", found " + ir::to_string(peek().kind);
        });
        return advance();
    }

    void expect_keyword(const std::string& kw) {
        const Token& t = expect(TokenKind::Identifier);
        check(t.text == kw,
              [&] { return "parse error at " + t.loc.str() + ": expected '" + kw + "'"; });
    }

    void parse_node(Mldg& g) {
        const Token& name = expect(TokenKind::Identifier);
        check(!ids_.contains(name.text), [&] {
            return "parse error at " + name.loc.str() + ": duplicate node '" + name.text + "'";
        });
        std::int64_t cost = 1;
        if (at(TokenKind::Identifier) && peek().text == "cost") {
            advance();
            cost = parse_integer();
        }
        expect(TokenKind::Semicolon);
        ids_.emplace(name.text, g.add_node(name.text, cost));
    }

    void parse_edge(Mldg& g) {
        const int from = node_id(expect(TokenKind::Identifier));
        const int to = node_id(expect(TokenKind::Identifier));
        expect(TokenKind::LBrace);
        std::vector<Vec2> vectors;
        while (!at(TokenKind::RBrace)) {
            expect(TokenKind::LParen);
            const std::int64_t x = parse_integer();
            expect(TokenKind::Comma);
            const std::int64_t y = parse_integer();
            expect(TokenKind::RParen);
            vectors.push_back(Vec2{x, y});
        }
        expect(TokenKind::RBrace);
        expect(TokenKind::Semicolon);
        check(!vectors.empty(), "parse error: edge with no dependence vectors");
        g.add_edge(from, to, std::move(vectors));
    }

    int node_id(const Token& name) {
        const auto it = ids_.find(name.text);
        check(it != ids_.end(), [&] {
            return "parse error at " + name.loc.str() + ": unknown node '" + name.text + "'";
        });
        return it->second;
    }

    std::int64_t parse_integer() {
        bool negative = false;
        if (at(TokenKind::Minus)) {
            advance();
            negative = true;
        }
        const Token& t = expect(TokenKind::Integer);
        return negative ? -t.integer : t.integer;
    }

    std::vector<Token> tokens_;
    std::size_t pos_ = 0;
    /// Node name -> id; the keys view the (immutable) token texts.
    std::unordered_map<std::string_view, int> ids_;
};

}  // namespace

Mldg parse_mldg(std::string_view source) { return GraphParser(ir::tokenize(source)).parse(); }

}  // namespace lf
