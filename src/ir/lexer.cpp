#include "ir/lexer.hpp"

#include <cctype>
#include <charconv>

#include "support/diagnostics.hpp"

namespace lf::ir {

std::string to_string(TokenKind kind) {
    switch (kind) {
        case TokenKind::Identifier: return "identifier";
        case TokenKind::Number: return "number";
        case TokenKind::Integer: return "integer";
        case TokenKind::LBrace: return "'{'";
        case TokenKind::RBrace: return "'}'";
        case TokenKind::LBracket: return "'['";
        case TokenKind::RBracket: return "']'";
        case TokenKind::LParen: return "'('";
        case TokenKind::RParen: return "')'";
        case TokenKind::Assign: return "'='";
        case TokenKind::Plus: return "'+'";
        case TokenKind::Minus: return "'-'";
        case TokenKind::Star: return "'*'";
        case TokenKind::Slash: return "'/'";
        case TokenKind::Semicolon: return "';'";
        case TokenKind::Comma: return "','";
        case TokenKind::End: return "end of input";
    }
    return "?";
}

namespace {

class Cursor {
  public:
    explicit Cursor(std::string_view s) : src_(s) {}

    [[nodiscard]] bool done() const { return pos_ >= src_.size(); }
    [[nodiscard]] char peek() const { return done() ? '\0' : src_[pos_]; }

    char advance() {
        const char c = src_[pos_++];
        if (c == '\n') {
            ++loc_.line;
            loc_.column = 1;
        } else {
            ++loc_.column;
        }
        return c;
    }

    [[nodiscard]] SourceLoc loc() const { return loc_; }

  private:
    std::string_view src_;
    std::size_t pos_ = 0;
    SourceLoc loc_;
};

}  // namespace

std::vector<Token> tokenize(std::string_view source) {
    std::vector<Token> tokens;
    Cursor cur(source);

    auto push = [&tokens](TokenKind kind, std::string text, SourceLoc loc) {
        Token t;
        t.kind = kind;
        t.text = std::move(text);
        t.loc = loc;
        tokens.push_back(std::move(t));
    };

    while (!cur.done()) {
        const SourceLoc loc = cur.loc();
        const char c = cur.peek();
        if (std::isspace(static_cast<unsigned char>(c))) {
            cur.advance();
            continue;
        }
        if (c == '#') {
            while (!cur.done() && cur.peek() != '\n') cur.advance();
            continue;
        }
        if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
            std::string ident;
            while (!cur.done() && (std::isalnum(static_cast<unsigned char>(cur.peek())) ||
                                   cur.peek() == '_')) {
                ident += cur.advance();
            }
            push(TokenKind::Identifier, std::move(ident), loc);
            continue;
        }
        if (std::isdigit(static_cast<unsigned char>(c))) {
            std::string digits;
            bool is_float = false;
            while (!cur.done()) {
                const char d = cur.peek();
                if (std::isdigit(static_cast<unsigned char>(d))) {
                    digits += cur.advance();
                } else if (d == '.' && !is_float) {
                    is_float = true;
                    digits += cur.advance();
                } else if ((d == 'e' || d == 'E') && !digits.empty()) {
                    is_float = true;
                    digits += cur.advance();
                    if (cur.peek() == '+' || cur.peek() == '-') digits += cur.advance();
                } else {
                    break;
                }
            }
            Token t;
            t.text = digits;
            t.loc = loc;
            if (is_float) {
                t.kind = TokenKind::Number;
                try {
                    t.number = std::stod(digits);
                } catch (const std::exception&) {
                    // Out-of-range exponents ("1e999999") and malformed
                    // mantissas surface as a located diagnostic, not std::.
                    throw Error("lexer: bad number '" + digits + "' at " + loc.str());
                }
            } else {
                t.kind = TokenKind::Integer;
                std::int64_t value = 0;
                const auto [ptr, ec] =
                    std::from_chars(digits.data(), digits.data() + digits.size(), value);
                check(ec == std::errc() && ptr == digits.data() + digits.size(),
                      [&] { return "lexer: bad integer '" + digits + "' at " + loc.str(); });
                t.integer = value;
                t.number = static_cast<double>(value);
            }
            tokens.push_back(std::move(t));
            continue;
        }
        TokenKind kind;
        switch (c) {
            case '{': kind = TokenKind::LBrace; break;
            case '}': kind = TokenKind::RBrace; break;
            case '[': kind = TokenKind::LBracket; break;
            case ']': kind = TokenKind::RBracket; break;
            case '(': kind = TokenKind::LParen; break;
            case ')': kind = TokenKind::RParen; break;
            case '=': kind = TokenKind::Assign; break;
            case '+': kind = TokenKind::Plus; break;
            case '-': kind = TokenKind::Minus; break;
            case '*': kind = TokenKind::Star; break;
            case '/': kind = TokenKind::Slash; break;
            case ';': kind = TokenKind::Semicolon; break;
            case ',': kind = TokenKind::Comma; break;
            default:
                throw Error("lexer: unexpected character '" + std::string(1, c) + "' at " +
                            loc.str());
        }
        cur.advance();
        push(kind, std::string(1, c), loc);
    }
    push(TokenKind::End, "", cur.loc());
    return tokens;
}

}  // namespace lf::ir
