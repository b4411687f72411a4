#pragma once
// Dimension-generic AST of the loop DSL -- the single program model behind
// both dialects of the front end:
//
//   * `BasicProgram<Vec2>` is the paper's Figure-1 program: one sequential
//     outer loop over `i` containing a sequence of labelled innermost DOALL
//     loops over `j`, subscripts `i+c` / `j+c` with constant c.
//   * `BasicProgram<VecN>` is the same pattern generalized to depth d:
//     (d-1) nested sequential loops `i1..i{d-1}` around innermost DOALL
//     loops over `j`, subscripts `array[i1+c1]...[j+cd]`.
//
// The 2-D instantiation is byte-compatible with the historical `ir/` AST
// (printers, str() layouts), and the N-D one with the historical `mdir/`
// AST; `ir/ast.hpp` and `mdir/ast.hpp` are now alias shims over this header.
// The AST does not evaluate itself: exec/interp.hpp resolves it into the
// interpreter's flat form.

#include <algorithm>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "ir/token.hpp"
#include "support/lexvec.hpp"

namespace lf::front {

/// True for the fixed-depth-2 instantiation (the paper's elaborated case).
template <typename V>
inline constexpr bool kIsVec2 = std::same_as<V, Vec2>;

namespace detail {

/// "i", "i+1", "j-2": a 2-D index expression with a constant offset.
inline void print_index(std::ostream& os, char var, std::int64_t offset) {
    os << var;
    if (offset > 0) os << '+' << offset;
    if (offset < 0) os << offset;
}

/// Index variable name for level k of d: i1..i{d-1} for the sequential
/// levels, j for the innermost DOALL level.
inline std::string index_var(int level, int dim) {
    if (level == dim - 1) return "j";
    return "i" + std::to_string(level + 1);
}

/// Prints a double so it re-parses as a number literal ("3.0", not "3").
inline void print_number(std::ostream& os, double v) {
    if (v == std::floor(v) && std::abs(v) < 1e15) {
        os << static_cast<std::int64_t>(v) << ".0";
    } else {
        os << v;
    }
}

}  // namespace detail

/// A subscripted constant-distance array access: `array[i + offset.x][j +
/// offset.y]` at depth 2, `array[i1 + c1]...[j + cd]` at depth d.
template <typename V>
struct BasicArrayRef {
    std::string array;
    V offset;  // one component per nesting level; innermost last
    ir::SourceLoc loc;

    /// The cell touched by the instance at `iteration`.
    [[nodiscard]] V cell(const V& iteration) const { return iteration + offset; }

    /// 2-D convenience: the cell touched at iteration (i, j).
    [[nodiscard]] V cell(std::int64_t i, std::int64_t j) const
        requires kIsVec2<V>
    {
        return {i + offset.x, j + offset.y};
    }

    [[nodiscard]] std::string str() const {
        std::ostringstream os;
        if constexpr (kIsVec2<V>) {
            os << array << '[';
            detail::print_index(os, 'i', offset.x);
            os << "][";
            detail::print_index(os, 'j', offset.y);
            os << ']';
        } else {
            os << array;
            for (int k = 0; k < offset.dim(); ++k) {
                os << '[' << detail::index_var(k, offset.dim());
                if (offset[k] > 0) os << '+' << offset[k];
                if (offset[k] < 0) os << offset[k];
                os << ']';
            }
        }
        return os.str();
    }
};

template <typename V>
class BasicExpr;

template <typename V>
using BasicExprPtr = std::unique_ptr<BasicExpr<V>>;

template <typename V>
class BasicExpr {
  public:
    virtual ~BasicExpr() = default;

    /// Appends every array read in this subtree to `out`.
    virtual void collect_reads(std::vector<BasicArrayRef<V>>& out) const = 0;
    virtual void print(std::ostream& os) const = 0;
    [[nodiscard]] virtual BasicExprPtr<V> clone() const = 0;
    /// Returns a copy with every subscript shifted by `delta`; used to print
    /// retimed statements.
    [[nodiscard]] virtual BasicExprPtr<V> shifted(const V& delta) const = 0;
};

template <typename V>
class BasicLiteral final : public BasicExpr<V> {
  public:
    explicit BasicLiteral(double value) : value_(value) {}
    void collect_reads(std::vector<BasicArrayRef<V>>&) const override {}
    void print(std::ostream& os) const override { detail::print_number(os, value_); }
    [[nodiscard]] BasicExprPtr<V> clone() const override {
        return std::make_unique<BasicLiteral>(value_);
    }
    [[nodiscard]] BasicExprPtr<V> shifted(const V&) const override { return clone(); }
    [[nodiscard]] double value() const { return value_; }

  private:
    double value_;
};

template <typename V>
class BasicRead final : public BasicExpr<V> {
  public:
    explicit BasicRead(BasicArrayRef<V> ref) : ref_(std::move(ref)) {}
    void collect_reads(std::vector<BasicArrayRef<V>>& out) const override {
        out.push_back(ref_);
    }
    void print(std::ostream& os) const override { os << ref_.str(); }
    [[nodiscard]] BasicExprPtr<V> clone() const override {
        return std::make_unique<BasicRead>(ref_);
    }
    [[nodiscard]] BasicExprPtr<V> shifted(const V& delta) const override {
        BasicArrayRef<V> shifted_ref = ref_;
        shifted_ref.offset += delta;
        return std::make_unique<BasicRead>(std::move(shifted_ref));
    }
    [[nodiscard]] const BasicArrayRef<V>& ref() const { return ref_; }

  private:
    BasicArrayRef<V> ref_;
};

template <typename V>
class BasicUnary final : public BasicExpr<V> {
  public:
    explicit BasicUnary(BasicExprPtr<V> operand) : operand_(std::move(operand)) {}
    void collect_reads(std::vector<BasicArrayRef<V>>& out) const override {
        operand_->collect_reads(out);
    }
    void print(std::ostream& os) const override {
        os << "(-";
        operand_->print(os);
        os << ')';
    }
    [[nodiscard]] BasicExprPtr<V> clone() const override {
        return std::make_unique<BasicUnary>(operand_->clone());
    }
    [[nodiscard]] BasicExprPtr<V> shifted(const V& delta) const override {
        return std::make_unique<BasicUnary>(operand_->shifted(delta));
    }
    [[nodiscard]] const BasicExpr<V>& operand() const { return *operand_; }

  private:
    BasicExprPtr<V> operand_;
};

template <typename V>
class BasicBinary final : public BasicExpr<V> {
  public:
    BasicBinary(char op, BasicExprPtr<V> lhs, BasicExprPtr<V> rhs)
        : op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}
    void collect_reads(std::vector<BasicArrayRef<V>>& out) const override {
        lhs_->collect_reads(out);
        rhs_->collect_reads(out);
    }
    void print(std::ostream& os) const override {
        os << '(';
        lhs_->print(os);
        os << ' ' << op_ << ' ';
        rhs_->print(os);
        os << ')';
    }
    [[nodiscard]] BasicExprPtr<V> clone() const override {
        return std::make_unique<BasicBinary>(op_, lhs_->clone(), rhs_->clone());
    }
    [[nodiscard]] BasicExprPtr<V> shifted(const V& delta) const override {
        return std::make_unique<BasicBinary>(op_, lhs_->shifted(delta), rhs_->shifted(delta));
    }
    [[nodiscard]] char op() const { return op_; }
    [[nodiscard]] const BasicExpr<V>& lhs() const { return *lhs_; }
    [[nodiscard]] const BasicExpr<V>& rhs() const { return *rhs_; }

  private:
    char op_;
    BasicExprPtr<V> lhs_;
    BasicExprPtr<V> rhs_;
};

/// One assignment `target = value;` inside a loop body.
template <typename V>
struct BasicStatement {
    BasicArrayRef<V> target;
    BasicExprPtr<V> value;

    BasicStatement() = default;
    BasicStatement(BasicArrayRef<V> t, BasicExprPtr<V> v)
        : target(std::move(t)), value(std::move(v)) {}
    BasicStatement(const BasicStatement& o)
        : target(o.target), value(o.value ? o.value->clone() : nullptr) {}
    BasicStatement& operator=(const BasicStatement& o) {
        if (this != &o) {
            target = o.target;
            value = o.value ? o.value->clone() : nullptr;
        }
        return *this;
    }
    BasicStatement(BasicStatement&&) = default;
    BasicStatement& operator=(BasicStatement&&) = default;

    [[nodiscard]] std::vector<BasicArrayRef<V>> reads() const {
        std::vector<BasicArrayRef<V>> out;
        value->collect_reads(out);
        return out;
    }

    /// A copy with all subscripts (target and reads) shifted by `delta`.
    [[nodiscard]] BasicStatement shifted(const V& delta) const {
        BasicStatement s;
        s.target = target;
        s.target.offset += delta;
        s.value = value->shifted(delta);
        return s;
    }

    [[nodiscard]] std::string str() const {
        std::ostringstream os;
        os << target.str() << " = ";
        value->print(os);
        os << ';';
        return os.str();
    }
};

/// One innermost DOALL loop ("loop A { ... }").
template <typename V>
struct BasicLoopNest {
    std::string label;
    std::vector<BasicStatement<V>> body;
    ir::SourceLoc loc;

    /// Abstract per-iteration cost: one unit per statement plus one per read
    /// (consumed by the multiprocessor cost model).
    [[nodiscard]] std::int64_t body_cost() const {
        std::int64_t cost = 0;
        for (const BasicStatement<V>& s : body) {
            cost += 1 + static_cast<std::int64_t>(s.reads().size());
        }
        return std::max<std::int64_t>(cost, 1);
    }
};

/// A whole program: the Figure-1 nest at depth `dim` (2 for the paper's
/// elaborated case, d >= 2 in general).
template <typename V>
struct BasicProgram {
    std::string name;
    int dim = 2;
    std::vector<BasicLoopNest<V>> loops;
    ir::SourceLoc loc;

    /// All array names, writes first then reads, deduplicated, in order of
    /// first appearance.
    [[nodiscard]] std::vector<std::string> arrays() const {
        std::vector<std::string> out = written_arrays();
        auto add = [&out](const std::string& array) {
            if (std::find(out.begin(), out.end(), array) == out.end()) out.push_back(array);
        };
        for (const BasicLoopNest<V>& loop : loops) {
            for (const BasicStatement<V>& s : loop.body) {
                for (const BasicArrayRef<V>& r : s.reads()) add(r.array);
            }
        }
        return out;
    }

    /// Arrays written by some loop.
    [[nodiscard]] std::vector<std::string> written_arrays() const {
        std::vector<std::string> out;
        for (const BasicLoopNest<V>& loop : loops) {
            for (const BasicStatement<V>& s : loop.body) {
                if (std::find(out.begin(), out.end(), s.target.array) == out.end()) {
                    out.push_back(s.target.array);
                }
            }
        }
        return out;
    }

    /// Largest absolute subscript offset component, for halo sizing.
    [[nodiscard]] std::int64_t max_offset() const {
        std::int64_t m = 0;
        auto update = [&m](const BasicArrayRef<V>& r) {
            for (int k = 0; k < r.offset.dim(); ++k) m = std::max(m, std::abs(r.offset[k]));
        };
        for (const BasicLoopNest<V>& loop : loops) {
            for (const BasicStatement<V>& s : loop.body) {
                update(s.target);
                for (const BasicArrayRef<V>& r : s.reads()) update(r);
            }
        }
        return m;
    }

    [[nodiscard]] std::string str() const {
        std::ostringstream os;
        os << "program " << name;
        if constexpr (!kIsVec2<V>) os << " dim " << dim;
        os << " {\n";
        for (const BasicLoopNest<V>& loop : loops) {
            os << "  loop " << loop.label << " {\n";
            for (const BasicStatement<V>& s : loop.body) os << "    " << s.str() << '\n';
            os << "  }\n";
        }
        os << "}\n";
        return os.str();
    }
};

template <typename V>
std::ostream& operator<<(std::ostream& os, const BasicExpr<V>& e) {
    e.print(os);
    return os;
}

}  // namespace lf::front
