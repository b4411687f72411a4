#include "exec/store.hpp"

#include <functional>

#include "support/diagnostics.hpp"

namespace lf::exec {

namespace {

/// boundary_value with the name's hash computed once per array.
double boundary_value_hashed(std::uint64_t name_hash, std::int64_t i, std::int64_t j) {
    // splitmix64-style mixing of (hash(name), i, j), mapped into [-1, 1].
    std::uint64_t h = name_hash;
    h ^= static_cast<std::uint64_t>(i) * 0x9e3779b97f4a7c15ULL;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h ^= static_cast<std::uint64_t>(j) * 0x94d049bb133111ebULL;
    h = (h ^ (h >> 27)) * 0x2545f4914f6cdd1dULL;
    h ^= h >> 31;
    return static_cast<double>(h % 2000001ULL) / 1000000.0 - 1.0;
}

}  // namespace

ArrayStore::ArrayStore(const ir::Program& p, const Domain& dom,
                       std::optional<std::int64_t> halo_opt) {
    const std::int64_t halo = halo_opt.value_or(p.max_offset());
    std::int64_t next_base = 0;
    names_ = p.arrays();
    slots_.reserve(names_.size());
    for (const std::string& name : names_) {
        Slot s;
        s.data = Array2D(-halo, dom.n + halo, -halo, dom.m + halo);
        s.base = next_base;
        next_base += s.data.size() + 64;  // pad so arrays never share lines
        const std::uint64_t name_hash = std::hash<std::string>{}(name);
        double* cell = s.data.data();
        for (std::int64_t i = -halo; i <= dom.n + halo; ++i) {
            for (std::int64_t j = -halo; j <= dom.m + halo; ++j) {
                *cell++ = boundary_value_hashed(name_hash, i, j);
            }
        }
        slots_.push_back(std::move(s));
    }
}

double ArrayStore::boundary_value(const std::string& array, std::int64_t i, std::int64_t j) {
    return boundary_value_hashed(std::hash<std::string>{}(array), i, j);
}

std::int32_t ArrayStore::id_of(const std::string& name) const {
    for (std::size_t id = 0; id < names_.size(); ++id) {
        if (names_[id] == name) return static_cast<std::int32_t>(id);
    }
    throw Error("ArrayStore: unknown array '" + name + "'");
}

void ArrayStore::observe(std::int32_t id, std::int64_t at, bool is_write) const {
    Slot& s = slots_[static_cast<std::size_t>(id)];
    if (tracing_) trace_.push_back(TraceEntry{id, s.base + at, is_write, trace_processor_});
    if (!order_checking_) return;
    if (s.written.empty()) {
        s.written.assign(static_cast<std::size_t>(s.data.size()), false);
        s.read_before_write.assign(static_cast<std::size_t>(s.data.size()), false);
    }
    const auto idx = static_cast<std::size_t>(at);
    if (is_write) {
        if (s.read_before_write[idx]) ++order_violations_;  // consumer ran first
        s.written[idx] = true;
    } else if (!s.written[idx]) {
        s.read_before_write[idx] = true;
    }
}

double ArrayStore::load(const std::string& array, std::int64_t i, std::int64_t j) const {
    const std::int32_t id = id_of(array);
    loads_.fetch_add(1, std::memory_order_relaxed);
    const Array2D& a = slots_[static_cast<std::size_t>(id)].data;
    const std::int64_t at = a.linear_index(i, j);
    if (tracing_ || order_checking_) observe(id, at, false);
    return a.data()[at];
}

void ArrayStore::store(const std::string& array, std::int64_t i, std::int64_t j, double value) {
    const std::int32_t id = id_of(array);
    stores_.fetch_add(1, std::memory_order_relaxed);
    Array2D& a = slots_[static_cast<std::size_t>(id)].data;
    const std::int64_t at = a.linear_index(i, j);
    if (tracing_ || order_checking_) observe(id, at, true);
    a.data()[at] = value;
}

const Array2D& ArrayStore::array(const std::string& name) const {
    return slots_[static_cast<std::size_t>(id_of(name))].data;
}

}  // namespace lf::exec
