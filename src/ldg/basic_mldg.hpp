#pragma once
// The multi-dimensional loop dependence graph (MLDG) of Definition 2.2 and
// retimings (Section 2.3), dimension-generic over the lexicographic weight
// type: `BasicMldg<Vec2>` is the paper's elaborated 2-D case ("2LDG"),
// `BasicMldg<VecN>` the general depth-d graph. `ldg/mldg.hpp`,
// `ldg/mldg_nd.hpp` and `ldg/retiming.hpp` are alias shims over this header.
//
// One node per innermost DOALL loop (in program order), one edge per ordered
// pair of loops with at least one dependence, annotated with the full set of
// loop dependence vectors D_L (Definition 2.1). The minimal vector delta_L is
// the lexicographic minimum of D_L; an edge is a *hard edge* ("parallelism
// hard", Section 2.2) when two of its vectors agree on every component
// except the last -- no retiming of the outer dimensions can separate them.
//
// Convention: component 0 is the outermost loop, component dim-1 the
// innermost (DOALL) loop, matching the 2-D (x, y) = (outer, inner) pair.

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/algorithms.hpp"
#include "support/diagnostics.hpp"
#include "support/lexvec.hpp"

namespace lf {

/// A node of the MLDG: one innermost DOALL loop.
struct LoopNode {
    std::string name;
    /// Position of the loop in the original program text (0-based). Determines
    /// statement order inside the fused body and therefore which edges are
    /// "backward" (from a later loop to an earlier one).
    int order = 0;
    /// Abstract per-iteration cost of the loop body, consumed by the
    /// multiprocessor cost model. Purely descriptive for the algorithms.
    std::int64_t body_cost = 1;
};

/// An edge of the MLDG: all dependences from one loop to another.
template <typename V>
struct BasicDependenceEdge {
    int from = -1;
    int to = -1;
    /// D_L(from, to): sorted ascending (lexicographically), deduplicated,
    /// never empty. vectors.front() is delta_L.
    std::vector<V> vectors;

    /// delta_L(e): the minimal loop dependence vector (Definition 2.2).
    [[nodiscard]] const V& delta() const { return vectors.front(); }

    /// Hard edge: two vectors agreeing on every component except the last
    /// (Section 2.2). Hard edges constrain full inner parallelism.
    [[nodiscard]] bool is_hard() const {
        const int d = vectors.front().dim();
        // Sorted order puts equal-prefix vectors adjacent.
        for (std::size_t a = 1; a < vectors.size(); ++a) {
            bool same_prefix = true;
            for (int k = 0; k + 1 < d; ++k) {
                if (vectors[a][k] != vectors[a - 1][k]) {
                    same_prefix = false;
                    break;
                }
            }
            if (same_prefix && vectors[a][d - 1] != vectors[a - 1][d - 1]) return true;
        }
        return false;
    }
};

template <typename V>
class BasicMldg {
  public:
    static constexpr bool kIs2d = std::same_as<V, Vec2>;

    /// 2-D graphs are always dimension 2; the N-D instantiation requires an
    /// explicit dimension (dim 1 is allowed: Definition 2.2 admits n >= 1).
    BasicMldg()
        requires kIs2d
    = default;
    explicit BasicMldg(int dim) : dim_(dim) {}

    [[nodiscard]] int dim() const { return dim_; }

    /// Appends a loop node; program order is insertion order.
    int add_node(std::string name, std::int64_t body_cost = 1) {
        const int id = static_cast<int>(nodes_.size());
        nodes_.push_back(LoopNode{std::move(name), id, body_cost});
        return id;
    }

    /// Adds dependence vectors from `from` to `to`. If the edge already
    /// exists the vectors are merged (the MLDG keeps at most one edge per
    /// ordered node pair, per Definition 2.2). Vectors are validated to be
    /// non-empty and of the graph's dimension. Returns the edge id.
    int add_edge(int from, int to, std::vector<V> vectors) {
        check(from >= 0 && from < num_nodes() && to >= 0 && to < num_nodes(),
              [] { return std::string(kClassName) + "::add_edge: node id out of range"; });
        check(!vectors.empty(),
              [] { return std::string(kClassName) + "::add_edge: empty dependence vector set"; });
        if constexpr (!kIs2d) {
            for (const V& v : vectors) {
                check(v.dim() == dim_, [] {
                    return std::string(kClassName) + "::add_edge: vector dimension mismatch";
                });
            }
        }
        if (auto existing = find_edge(from, to)) {
            auto& vs = edges_[static_cast<std::size_t>(*existing)].vectors;
            vs.insert(vs.end(), vectors.begin(), vectors.end());
            std::sort(vs.begin(), vs.end());
            vs.erase(std::unique(vs.begin(), vs.end()), vs.end());
            return *existing;
        }
        std::sort(vectors.begin(), vectors.end());
        vectors.erase(std::unique(vectors.begin(), vectors.end()), vectors.end());
        edges_.push_back(BasicDependenceEdge<V>{from, to, std::move(vectors)});
        const int id = static_cast<int>(edges_.size()) - 1;
        edge_index_.emplace(endpoint_key(from, to), id);
        return id;
    }

    [[nodiscard]] int num_nodes() const { return static_cast<int>(nodes_.size()); }
    [[nodiscard]] int num_edges() const { return static_cast<int>(edges_.size()); }
    [[nodiscard]] const LoopNode& node(int id) const {
        return nodes_.at(static_cast<std::size_t>(id));
    }
    [[nodiscard]] LoopNode& node(int id) { return nodes_.at(static_cast<std::size_t>(id)); }
    [[nodiscard]] const BasicDependenceEdge<V>& edge(int id) const {
        return edges_.at(static_cast<std::size_t>(id));
    }
    [[nodiscard]] const std::vector<BasicDependenceEdge<V>>& edges() const { return edges_; }

    /// Unchecked accessors for solver-facing loops whose ids come from the
    /// graph itself (0 <= id < num_nodes()/num_edges(), validated at
    /// insertion). The checked node()/edge() remain the public API.
    [[nodiscard]] const LoopNode& node_ref(int id) const noexcept {
        return nodes_[static_cast<std::size_t>(id)];
    }
    [[nodiscard]] const BasicDependenceEdge<V>& edge_ref(int id) const noexcept {
        return edges_[static_cast<std::size_t>(id)];
    }

    /// Node id by name; nullopt if absent.
    [[nodiscard]] std::optional<int> find_node(std::string_view name) const {
        for (int i = 0; i < num_nodes(); ++i) {
            if (nodes_[static_cast<std::size_t>(i)].name == name) return i;
        }
        return std::nullopt;
    }

    /// Edge id for the ordered pair (from, to); nullopt if absent. O(1)
    /// expected via the endpoint index (kept in lockstep by add_edge).
    [[nodiscard]] std::optional<int> find_edge(int from, int to) const {
        const auto it = edge_index_.find(endpoint_key(from, to));
        if (it == edge_index_.end()) return std::nullopt;
        return it->second;
    }

    /// True when the edge runs from a later loop to an earlier one in program
    /// order. Backward edges are necessarily outer-loop-carried in a legal
    /// graph, and require the strengthened (0,1) bound during retiming (see
    /// DESIGN.md, "Fidelity notes").
    [[nodiscard]] bool is_backward_edge(int edge_id) const {
        const auto& e = edge(edge_id);
        return node(e.from).order > node(e.to).order;
    }

    [[nodiscard]] bool is_self_edge(int edge_id) const {
        const auto& e = edge(edge_id);
        return e.from == e.to;
    }

    /// Successor adjacency over node ids.
    [[nodiscard]] Adjacency adjacency() const {
        Adjacency adj(static_cast<std::size_t>(num_nodes()));
        for (const auto& e : edges_) adj[static_cast<std::size_t>(e.from)].push_back(e.to);
        return adj;
    }

    /// True when the MLDG contains no cycle (self-loops count as cycles).
    [[nodiscard]] bool is_acyclic() const { return lf::is_acyclic(adjacency()); }

    /// Sum of delta_L along a sequence of edge ids (a path or cycle).
    [[nodiscard]] V path_weight(std::span<const int> edge_ids) const {
        V w = zero_weight();
        for (int id : edge_ids) w += edge(id).delta();
        return w;
    }

    /// Total number of dependence vectors across all edges.
    [[nodiscard]] std::size_t total_vectors() const {
        std::size_t n = 0;
        for (const auto& e : edges_) n += e.vectors.size();
        return n;
    }

    /// Graphviz rendering (delta, full D_L, hard-edge marker `*`).
    [[nodiscard]] std::string to_dot(const std::string& title = "mldg") const {
        std::ostringstream os;
        os << "digraph \"" << title << "\" {\n  rankdir=TB;\n";
        for (int i = 0; i < num_nodes(); ++i) {
            os << "  n" << i << " [label=\"" << node(i).name << "\"];\n";
        }
        for (const auto& e : edges_) {
            os << "  n" << e.from << " -> n" << e.to << " [label=\"";
            for (std::size_t k = 0; k < e.vectors.size(); ++k) {
                if (k) os << ' ';
                os << e.vectors[k].str();
            }
            if (e.is_hard()) os << " *";
            os << "\"";
            if (e.is_hard()) os << ", style=bold";
            os << "];\n";
        }
        os << "}\n";
        return os.str();
    }

    /// One-line-per-edge textual summary, used by reports and examples.
    /// (Each instantiation keeps its historical byte format.)
    [[nodiscard]] std::string summary() const {
        std::ostringstream os;
        if constexpr (kIs2d) {
            os << num_nodes() << " loops, " << num_edges() << " dependence edges ("
               << (is_acyclic() ? "acyclic" : "cyclic") << ")\n";
        } else {
            os << num_nodes() << " loops (dim " << dim_ << "), " << num_edges() << " edges\n";
        }
        for (const auto& e : edges_) {
            os << "  " << node(e.from).name << " -> " << node(e.to).name << "  D_L = {";
            for (std::size_t k = 0; k < e.vectors.size(); ++k) {
                if (k) os << ", ";
                os << e.vectors[k].str();
            }
            if constexpr (kIs2d) {
                os << "}  delta = " << e.delta().str();
            } else {
                os << '}';
            }
            if (e.is_hard()) os << "  [hard]";
            os << '\n';
        }
        return os.str();
    }

  private:
    static constexpr const char* kClassName = kIs2d ? "Mldg" : "MldgN";

    [[nodiscard]] static std::uint64_t endpoint_key(int from, int to) {
        return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from)) << 32) |
               static_cast<std::uint64_t>(static_cast<std::uint32_t>(to));
    }

    [[nodiscard]] V zero_weight() const {
        if constexpr (kIs2d) {
            return V{0, 0};
        } else {
            return V::zeros(dim_);
        }
    }

    int dim_ = 2;
    std::vector<LoopNode> nodes_;
    std::vector<BasicDependenceEdge<V>> edges_;
    /// (from, to) -> edge id, kept in lockstep with edges_ by add_edge so
    /// find_edge -- and with it every retiming apply, which merges through
    /// it -- is O(1) expected instead of a linear scan.
    std::unordered_map<std::uint64_t, int> edge_index_;
};

/// A retiming r (Section 2.3, after Passos & Sha): one offset of the
/// iteration space per loop node. Dependence vectors transform as
/// d_r = d + r(u) - r(v) along an edge u -> v; cycle weights are invariant.
/// A node's instance originally at iteration q executes at fused point
/// q - r(u) after retiming + fusion.
template <typename V>
class BasicRetiming {
  public:
    static constexpr bool kIs2d = std::same_as<V, Vec2>;

    BasicRetiming() = default;
    explicit BasicRetiming(int num_nodes)
        requires kIs2d
        : r_(static_cast<std::size_t>(num_nodes)) {}
    BasicRetiming(int num_nodes, int dim)
        requires(!kIs2d)
        : r_(static_cast<std::size_t>(num_nodes), V::zeros(dim)) {}
    explicit BasicRetiming(std::vector<V> values) : r_(std::move(values)) {}

    [[nodiscard]] int num_nodes() const { return static_cast<int>(r_.size()); }
    [[nodiscard]] const V& of(int node) const { return r_.at(static_cast<std::size_t>(node)); }
    [[nodiscard]] V& of(int node) { return r_.at(static_cast<std::size_t>(node)); }
    [[nodiscard]] const std::vector<V>& values() const { return r_; }

    /// Retimed weight of an edge:  delta_r(e) = delta(e) + r(from) - r(to).
    /// Saturating: out-of-range inputs clamp to the int64 extremes instead of
    /// wrapping (callers that pre-validate magnitudes never saturate).
    [[nodiscard]] V retimed(const BasicDependenceEdge<V>& e, const V& v) const
        requires kIs2d
    {
        return sat_sub(sat_add(v, of(e.from)), of(e.to));
    }
    [[nodiscard]] V retimed_delta(const BasicDependenceEdge<V>& e) const
        requires kIs2d
    {
        return retimed(e, e.delta());
    }

    /// Builds the retimed graph G_r: every vector of every edge is shifted by
    /// r(from) - r(to). Node order and costs are preserved. (The 2-D
    /// instantiation saturates like `retimed`; the N-D one assumes
    /// pre-validated magnitudes, as its planners guarantee.)
    [[nodiscard]] BasicMldg<V> apply(const BasicMldg<V>& g) const {
        check(num_nodes() == g.num_nodes(),
              kIs2d ? "Retiming::apply: size mismatch" : "RetimingN::apply: size mismatch");
        BasicMldg<V> out = make_like(g);
        for (int v = 0; v < g.num_nodes(); ++v) {
            out.add_node(g.node(v).name, g.node(v).body_cost);
        }
        for (const auto& e : g.edges()) {
            std::vector<V> shifted;
            shifted.reserve(e.vectors.size());
            if constexpr (kIs2d) {
                const V shift = sat_sub(of(e.from), of(e.to));
                for (const V& v : e.vectors) shifted.push_back(sat_add(v, shift));
            } else {
                const V shift = of(e.from) - of(e.to);
                for (const V& v : e.vectors) shifted.push_back(v + shift);
            }
            out.add_edge(e.from, e.to, std::move(shifted));
        }
        return out;
    }

    /// Normalizes so that min component over nodes is zero in each dimension
    /// (retimings are equivalence classes modulo a global translation).
    void normalize() {
        if (r_.empty()) return;
        V lo = r_.front();
        for (const V& v : r_) {
            for (int k = 0; k < lo.dim(); ++k) lo[k] = std::min(lo[k], v[k]);
        }
        for (V& v : r_) v -= lo;
    }

    [[nodiscard]] std::string str(const BasicMldg<V>& g) const {
        std::ostringstream os;
        for (int i = 0; i < num_nodes(); ++i) {
            if (i) os << ", ";
            os << "r(" << g.node(i).name << ")=" << of(i).str();
        }
        return os.str();
    }

    friend bool operator==(const BasicRetiming&, const BasicRetiming&) = default;

  private:
    [[nodiscard]] static BasicMldg<V> make_like(const BasicMldg<V>& g) {
        if constexpr (kIs2d) {
            (void)g;
            return BasicMldg<V>{};
        } else {
            return BasicMldg<V>(g.dim());
        }
    }

    std::vector<V> r_;
};

}  // namespace lf
