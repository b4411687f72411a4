#pragma once
// The interpreter oracle's evaluator. Every engine call first *resolves* the
// statements it will run against one store: each right-hand side becomes a
// flat postfix program over dense array-slot ids, each subscript a constant
// offset into the store's row-major layout (all arrays of a store share one
// shape), and each body gets the box of iterations at which every one of
// its accesses is in bounds. One evaluator then runs that form at any depth;
// the 2-D engines are its N=2 case.
//
// The resolved form is built from the AST here, in exec/, and shares no code
// with the C emitters: it is the independent check on them.
//
// Semantics are exactly those of walking the AST. Operands evaluate left to
// right; a statement's target is written after its value is computed; a
// metered load or store counts before its bounds check; an out-of-bounds or
// unknown-array access throws lf::Error with the store's text before it
// touches memory; trace entries and order checks happen per access in
// evaluation order. The fast path checks, once per body instance, that the
// iteration lies in the body's in-bounds box. Outside it, and whenever the
// store traces or checks order, the body runs through the per-access checked
// path, which records each access and throws where the AST walk would, after
// the same loads, stores and writes.

#include <cstdint>
#include <string>
#include <vector>

#include "front/ast.hpp"

namespace lf::exec {

class ArrayStore;
class MdArrayStore;

/// A program's bodies resolved against one store, for one engine call.
/// Immutable once built, so threads may share it (each with its own
/// Evaluator).
class ResolvedProgram {
  public:
    explicit ResolvedProgram(ArrayStore& store);
    explicit ResolvedProgram(MdArrayStore& store);

    /// Appends a body whose `statements` run in order at one iteration.
    /// Under a retimed schedule the body's instance at fused point p is
    /// q = p + retiming. Returns the body's index. Nothing of `statements`
    /// is kept by reference, so they need not outlive the ResolvedProgram.
    template <typename V>
    int add_body(const std::vector<front::BasicStatement<V>>& statements, const V& retiming);

    [[nodiscard]] int dim() const { return dim_; }
    [[nodiscard]] int num_bodies() const { return static_cast<int>(bodies_.size()); }
    /// The body's retiming vector, dim() components.
    [[nodiscard]] const std::int64_t* retiming(int body) const {
        return &retimings_[static_cast<std::size_t>(body) * static_cast<std::size_t>(dim_)];
    }

  private:
    friend class Evaluator;

    enum class OpCode : std::uint8_t { Const, Load, Neg, Add, Sub, Mul, Div };

    struct Access {
        std::int32_t slot = -1;    // dense array id; -1 when the store has no such array
        std::int64_t delta = 0;    // flat offset of the subscript from the iteration's cell
        std::string unknown_name;  // slot -1 only: the array's name, for the error text
    };
    struct Op {
        OpCode code = OpCode::Const;
        std::uint32_t access = 0;  // Load: index into accesses_
        double value = 0.0;        // Const
        double* cells = nullptr;   // Load: the array's cells (null if unknown)
        std::int64_t delta = 0;    // Load: the access's flat offset
    };
    struct Statement {
        std::uint32_t first_op = 0;
        std::uint32_t end_op = 0;
        std::uint32_t target = 0;  // index into accesses_
        std::uint32_t loads = 0;
    };
    struct Body {
        std::uint32_t first_statement = 0;
        std::uint32_t end_statement = 0;
    };

    template <typename V>
    void resolve_expr(const front::BasicExpr<V>& e, int depth);
    template <typename V>
    std::uint32_t resolve_access(const front::BasicArrayRef<V>& ref);

    // The store, as the evaluator sees it.
    int dim_ = 0;
    std::vector<std::int64_t> lo_, hi_, stride_;  // the box every array shares
    std::vector<double*> cells_;                  // by slot id
    const std::vector<std::string>* names_ = nullptr;
    const char* out_of_bounds_ = "";   // the store's bounds-error text
    const char* unknown_array_ = "";   // the store's unknown-array prefix
    ArrayStore* metered_ = nullptr;    // non-null: loads/stores are metered
    bool instrumented_ = false;        // tracing or order checking is on

    // The resolved form.
    std::vector<Access> accesses_;
    std::vector<std::int64_t> offsets_;  // per access, dim_ per-level offsets
    std::vector<Op> ops_;
    std::vector<Statement> statements_;
    std::vector<Body> bodies_;
    std::vector<std::int64_t> retimings_;          // per body, dim_ components
    std::vector<std::int64_t> safe_lo_, safe_hi_;  // per body, the in-bounds box
    int max_depth_ = 1;
};

/// Runs a ResolvedProgram. One per thread; metered load/store counts reach
/// the store when the evaluator is destroyed (also when unwinding).
class Evaluator {
  public:
    explicit Evaluator(const ResolvedProgram& program);
    ~Evaluator();
    Evaluator(const Evaluator&) = delete;
    Evaluator& operator=(const Evaluator&) = delete;

    /// Runs body `body` at iteration q (dim() coordinates); returns the
    /// statement instances run.
    std::int64_t run(int body, const std::int64_t* q);

    /// Runs body `body` at fused point p if its instance q = p + r(body)
    /// lies in the domain [0, ext[k]] of every level; returns the statement
    /// instances run (0 when inactive).
    std::int64_t run_at(int body, const std::int64_t* p, const std::int64_t* ext);

    [[nodiscard]] const ResolvedProgram& program() const { return rp_; }

  private:
    /// Fast: the instance is in bounds and nothing is recorded; cells are at
    /// `base` + offset. Checked: per-access resolution, metering, bounds
    /// checks and recording (trace, order checks) at iteration `q`.
    enum class Path { Fast, Checked };

    template <Path kPath>
    std::int64_t execute(const ResolvedProgram::Body& b, std::int64_t base,
                         const std::int64_t* q);
    /// The cell of `access` at iteration q, after the checks the AST walk
    /// made; throws lf::Error for an unknown array or out of bounds.
    double& checked_cell(std::uint32_t access, const std::int64_t* q, bool is_write);

    const ResolvedProgram& rp_;
    std::vector<double> stack_;
    std::vector<std::int64_t> point_;  // scratch for run_at
    std::int64_t loads_ = 0;
    std::int64_t stores_ = 0;
};

/// Barrier and instance counts of a sweep.
struct SweepStats {
    std::int64_t barriers = 0;
    std::int64_t instances = 0;
};

/// The program as written: the outer levels 0..d-2 sweep [0, ext[k]] in
/// lexicographic order; at each outer point every body in turn sweeps the
/// innermost level and ends in a barrier.
SweepStats sweep_original(Evaluator& ev, const std::vector<std::int64_t>& ext);

/// The hyperplane schedule: fused points (bodies active where p + r(u)
/// lies in [0, ext]) grouped by t = schedule . p, hyperplanes in increasing
/// t, points in lexicographic order within one, bodies in index order at a
/// point; one barrier per non-empty hyperplane.
SweepStats sweep_wavefront(Evaluator& ev, const std::vector<std::int64_t>& schedule,
                           const std::vector<std::int64_t>& ext);

}  // namespace lf::exec
