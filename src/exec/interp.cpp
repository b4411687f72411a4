#include "exec/interp.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "exec/store.hpp"
#include "exec/store_nd.hpp"
#include "support/diagnostics.hpp"

namespace lf::exec {

ResolvedProgram::ResolvedProgram(ArrayStore& store)
    : dim_(2), names_(&store.names_),
      out_of_bounds_(Array2D::kOutOfBounds),
      unknown_array_("ArrayStore: unknown array '"), metered_(&store),
      instrumented_(store.tracing() || store.order_checking()) {
    for (ArrayStore::Slot& s : store.slots_) cells_.push_back(s.data.data());
    if (!store.slots_.empty()) {
        // Every array of the store has the same rectangle.
        const Array2D& a = store.slots_.front().data;
        lo_ = {a.lo_i(), a.lo_j()};
        hi_ = {a.lo_i() + a.rows() - 1, a.lo_j() + a.cols() - 1};
        stride_ = {a.cols(), 1};
    } else {
        lo_ = {0, 0};
        hi_ = {-1, -1};
        stride_ = {0, 0};
    }
}

ResolvedProgram::ResolvedProgram(MdArrayStore& store)
    : dim_(static_cast<int>(store.lo_.size())), lo_(store.lo_), hi_(store.hi_),
      stride_(store.stride_), names_(&store.names_),
      out_of_bounds_(MdArrayStore::kOutOfBounds),
      unknown_array_("MdArrayStore: unknown array '") {
    for (std::vector<double>& cells : store.slots_) cells_.push_back(cells.data());
}

template <typename V>
std::uint32_t ResolvedProgram::resolve_access(const front::BasicArrayRef<V>& ref) {
    Access a;
    const auto it = std::find(names_->begin(), names_->end(), ref.array);
    if (it != names_->end()) {
        a.slot = static_cast<std::int32_t>(it - names_->begin());
    } else {
        a.unknown_name = ref.array;
    }
    check(ref.offset.dim() == dim_, "ResolvedProgram: program and store depths differ");
    for (int k = 0; k < dim_; ++k) {
        offsets_.push_back(ref.offset[k]);
        a.delta += ref.offset[k] * stride_[static_cast<std::size_t>(k)];
    }
    accesses_.push_back(a);
    return static_cast<std::uint32_t>(accesses_.size() - 1);
}

template <typename V>
void ResolvedProgram::resolve_expr(const front::BasicExpr<V>& e, int depth) {
    // Post-order: operands first, left to right, as the AST walk evaluates.
    Op op;
    if (const auto* lit = dynamic_cast<const front::BasicLiteral<V>*>(&e)) {
        op.code = OpCode::Const;
        op.value = lit->value();
    } else if (const auto* read = dynamic_cast<const front::BasicRead<V>*>(&e)) {
        op.code = OpCode::Load;
        op.access = resolve_access(read->ref());
        const Access& a = accesses_[op.access];
        op.cells = a.slot < 0 ? nullptr : cells_[static_cast<std::size_t>(a.slot)];
        op.delta = a.delta;
    } else if (const auto* neg = dynamic_cast<const front::BasicUnary<V>*>(&e)) {
        resolve_expr(neg->operand(), depth);
        op.code = OpCode::Neg;
    } else {
        const auto& bin = dynamic_cast<const front::BasicBinary<V>&>(e);
        resolve_expr(bin.lhs(), depth);
        resolve_expr(bin.rhs(), depth + 1);
        switch (bin.op()) {
            case '+': op.code = OpCode::Add; break;
            case '-': op.code = OpCode::Sub; break;
            case '*': op.code = OpCode::Mul; break;
            default: op.code = OpCode::Div; break;
        }
    }
    max_depth_ = std::max(max_depth_, depth + 1);
    ops_.push_back(op);
}

template <typename V>
int ResolvedProgram::add_body(const std::vector<front::BasicStatement<V>>& statements,
                              const V& retiming) {
    Body b;
    b.first_statement = static_cast<std::uint32_t>(statements_.size());
    const std::size_t first_access = accesses_.size();
    for (const front::BasicStatement<V>& s : statements) {
        Statement st;
        st.first_op = static_cast<std::uint32_t>(ops_.size());
        resolve_expr(*s.value, 0);
        st.end_op = static_cast<std::uint32_t>(ops_.size());
        st.target = resolve_access(s.target);
        st.loads = static_cast<std::uint32_t>(
            std::count_if(ops_.begin() + st.first_op, ops_.end(),
                          [](const Op& op) { return op.code == OpCode::Load; }));
        statements_.push_back(st);
    }
    b.end_statement = static_cast<std::uint32_t>(statements_.size());
    bodies_.push_back(b);

    // The box of iterations at which every access of the body is in bounds:
    // lo - offset <= q <= hi - offset per level. An unknown array empties it,
    // so the checked path runs and throws at that access.
    bool known = true;
    std::vector<std::int64_t> box_lo(lo_.size(), std::numeric_limits<std::int64_t>::min());
    std::vector<std::int64_t> box_hi(hi_.size(), std::numeric_limits<std::int64_t>::max());
    for (std::size_t a = first_access; a < accesses_.size(); ++a) {
        known = known && accesses_[a].slot >= 0;
        for (std::size_t k = 0; k < lo_.size(); ++k) {
            const std::int64_t off = offsets_[a * lo_.size() + k];
            box_lo[k] = std::max(box_lo[k], lo_[k] - off);
            box_hi[k] = std::min(box_hi[k], hi_[k] - off);
        }
    }
    if (!known) {
        box_lo.assign(lo_.size(), 1);
        box_hi.assign(hi_.size(), 0);
    }
    safe_lo_.insert(safe_lo_.end(), box_lo.begin(), box_lo.end());
    safe_hi_.insert(safe_hi_.end(), box_hi.begin(), box_hi.end());
    check(retiming.dim() == dim_, "ResolvedProgram: retiming and store depths differ");
    for (int k = 0; k < dim_; ++k) retimings_.push_back(retiming[k]);
    return static_cast<int>(bodies_.size() - 1);
}

template int ResolvedProgram::add_body<Vec2>(const std::vector<front::BasicStatement<Vec2>>&,
                                             const Vec2&);
template int ResolvedProgram::add_body<VecN>(const std::vector<front::BasicStatement<VecN>>&,
                                             const VecN&);

Evaluator::Evaluator(const ResolvedProgram& program)
    : rp_(program), stack_(static_cast<std::size_t>(program.max_depth_)),
      point_(static_cast<std::size_t>(program.dim_)) {}

Evaluator::~Evaluator() {
    if (rp_.metered_ != nullptr) {
        rp_.metered_->loads_.fetch_add(loads_, std::memory_order_relaxed);
        rp_.metered_->stores_.fetch_add(stores_, std::memory_order_relaxed);
    }
}

std::int64_t Evaluator::run(int body, const std::int64_t* q) {
    const auto d = static_cast<std::size_t>(rp_.dim_);
    const std::int64_t* safe_lo = &rp_.safe_lo_[static_cast<std::size_t>(body) * d];
    const std::int64_t* safe_hi = &rp_.safe_hi_[static_cast<std::size_t>(body) * d];
    bool safe = true;
    std::int64_t base = 0;
    for (std::size_t k = 0; k < d; ++k) {
        safe = safe && q[k] >= safe_lo[k] && q[k] <= safe_hi[k];
        base += (q[k] - rp_.lo_[k]) * rp_.stride_[k];
    }
    const ResolvedProgram::Body& b = rp_.bodies_[static_cast<std::size_t>(body)];
    // Tracing and order checking record each access through the checked path.
    if (!safe || rp_.instrumented_) return execute<Path::Checked>(b, 0, q);
    return execute<Path::Fast>(b, base, q);
}

std::int64_t Evaluator::run_at(int body, const std::int64_t* p, const std::int64_t* ext) {
    const std::int64_t* r = rp_.retiming(body);
    for (std::size_t k = 0; k < point_.size(); ++k) {
        point_[k] = p[k] + r[k];
        if (point_[k] < 0 || point_[k] > ext[k]) return 0;
    }
    return run(body, point_.data());
}

template <Evaluator::Path kPath>
std::int64_t Evaluator::execute(const ResolvedProgram::Body& b, std::int64_t base,
                                const std::int64_t* q) {
    using OpCode = ResolvedProgram::OpCode;
    double* const stack = stack_.data();
    for (std::uint32_t s = b.first_statement; s < b.end_statement; ++s) {
        const ResolvedProgram::Statement& st = rp_.statements_[s];
        double* top = stack;  // one past the top operand
        for (std::uint32_t k = st.first_op; k < st.end_op; ++k) {
            const ResolvedProgram::Op& op = rp_.ops_[k];
            switch (op.code) {
                case OpCode::Const: *top++ = op.value; break;
                case OpCode::Load:
                    if constexpr (kPath == Path::Checked) {
                        *top++ = checked_cell(op.access, q, false);
                    } else {
                        *top++ = op.cells[base + op.delta];
                    }
                    break;
                case OpCode::Neg: top[-1] = -top[-1]; break;
                case OpCode::Add: --top; top[-1] = top[-1] + top[0]; break;
                case OpCode::Sub: --top; top[-1] = top[-1] - top[0]; break;
                case OpCode::Mul: --top; top[-1] = top[-1] * top[0]; break;
                case OpCode::Div: --top; top[-1] = top[-1] / top[0]; break;
            }
        }
        if constexpr (kPath == Path::Checked) {
            checked_cell(st.target, q, true) = top[-1];
        } else {
            const ResolvedProgram::Access& t = rp_.accesses_[st.target];
            rp_.cells_[static_cast<std::size_t>(t.slot)][base + t.delta] = top[-1];
            loads_ += st.loads;
        }
    }
    const std::int64_t n = b.end_statement - b.first_statement;
    if constexpr (kPath == Path::Fast) stores_ += n;
    return n;
}

double& Evaluator::checked_cell(std::uint32_t access, const std::int64_t* q, bool is_write) {
    // The AST walk's order: resolve the array, meter, check bounds, record.
    const ResolvedProgram::Access& a = rp_.accesses_[access];
    check(a.slot >= 0, [&] { return rp_.unknown_array_ + a.unknown_name + "'"; });
    ++(is_write ? stores_ : loads_);
    const auto d = static_cast<std::size_t>(rp_.dim_);
    std::int64_t at = 0;
    for (std::size_t k = 0; k < d; ++k) {
        const std::int64_t c = q[k] + rp_.offsets_[access * d + k];
        check(c >= rp_.lo_[k] && c <= rp_.hi_[k], rp_.out_of_bounds_);
        at += (c - rp_.lo_[k]) * rp_.stride_[k];
    }
    if (rp_.instrumented_) rp_.metered_->observe(a.slot, at, is_write);
    return rp_.cells_[static_cast<std::size_t>(a.slot)][at];
}

SweepStats sweep_original(Evaluator& ev, const std::vector<std::int64_t>& ext) {
    const ResolvedProgram& rp = ev.program();
    const int d = rp.dim();
    check(d >= 1 && static_cast<int>(ext.size()) == d,
          "sweep_original: domain dimension mismatch");
    SweepStats st;
    for (int k = 0; k + 1 < d; ++k) {
        if (ext[static_cast<std::size_t>(k)] < 0) return st;
    }
    // Outer points over levels 0..d-2; the innermost level is swept per body.
    std::vector<std::int64_t> outer(static_cast<std::size_t>(d - 1), 0);
    const std::vector<std::int64_t> outer_lo = outer;
    const std::vector<std::int64_t> outer_hi(ext.begin(), ext.end() - 1);
    std::vector<std::int64_t> q(static_cast<std::size_t>(d), 0);
    do {
        std::copy(outer.begin(), outer.end(), q.begin());
        for (int b = 0; b < rp.num_bodies(); ++b) {
            for (q.back() = 0; q.back() <= ext.back(); ++q.back()) {
                st.instances += ev.run(b, q.data());
            }
            ++st.barriers;  // one barrier terminates each DOALL loop
        }
    } while (next_point(outer, outer_lo, outer_hi));
    return st;
}

SweepStats sweep_wavefront(Evaluator& ev, const std::vector<std::int64_t>& schedule,
                           const std::vector<std::int64_t>& ext) {
    const ResolvedProgram& rp = ev.program();
    const auto d = static_cast<std::size_t>(rp.dim());
    check(ext.size() == d && schedule.size() == d, "sweep_wavefront: dimension mismatch");
    SweepStats st;
    const int nb = rp.num_bodies();
    if (nb == 0) return st;

    // Fused-point bounding box: body u is active at p with p + r(u) in the
    // domain.
    std::vector<std::int64_t> lo(d), hi(d), size(d);
    for (std::size_t k = 0; k < d; ++k) {
        lo[k] = -rp.retiming(0)[k];
        hi[k] = ext[k] - rp.retiming(0)[k];
        for (int b = 1; b < nb; ++b) {
            lo[k] = std::min(lo[k], -rp.retiming(b)[k]);
            hi[k] = std::max(hi[k], ext[k] - rp.retiming(b)[k]);
        }
        if (lo[k] > hi[k]) return st;
        size[k] = hi[k] - lo[k] + 1;
    }

    // Active points as (t, lexicographic rank in the box); sorting them
    // orders hyperplanes by t and points lexicographically within one.
    std::int64_t points = 1;
    for (std::size_t k = 0; k < d; ++k) points *= size[k];
    std::vector<std::pair<std::int64_t, std::int64_t>> active;
    active.reserve(static_cast<std::size_t>(points));
    std::vector<std::int64_t> p = lo;
    for (std::int64_t rank = 0; rank < points; ++rank) {
        bool any = false;
        for (int b = 0; b < nb && !any; ++b) {
            bool inside = true;
            for (std::size_t k = 0; k < d && inside; ++k) {
                const std::int64_t q = p[k] + rp.retiming(b)[k];
                inside = q >= 0 && q <= ext[k];
            }
            any = inside;
        }
        if (any) {
            std::int64_t t = 0;
            for (std::size_t k = 0; k < d; ++k) t += schedule[k] * p[k];
            active.emplace_back(t, rank);
        }
        next_point(p, lo, hi);
    }
    std::sort(active.begin(), active.end());

    for (std::size_t n = 0; n < active.size(); ++n) {
        std::int64_t rank = active[n].second;
        for (std::size_t k = d; k-- > 0;) {
            p[k] = lo[k] + rank % size[k];
            rank /= size[k];
        }
        for (int b = 0; b < nb; ++b) st.instances += ev.run_at(b, p.data(), ext.data());
        // One barrier terminates each hyperplane.
        if (n + 1 == active.size() || active[n + 1].first != active[n].first) ++st.barriers;
    }
    return st;
}

}  // namespace lf::exec
