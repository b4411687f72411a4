#pragma once
// Content-addressed plan cache for the fusion service.
//
// The degradation ladder is deterministic: the same MLDG under the same
// PlanOptions always yields the same plan. Batch traffic (--storm-scale
// runs, recompilations of a hot workload) therefore re-pays the full
// ladder for content it has already planned. The cache closes that gap:
//
//   canonical MLDG content (the same node/edge fields the text
//   serialization carries, hashed structurally) + the planning options
//   -> 64-bit FNV-1a content hash -> memoized plan.
//
// Only plans that the admission gate fully admitted (job ended Verified)
// are ever inserted, and a hit does NOT shortcut admission entirely: the
// service re-runs the gate's cheap certify check (fusion/certify) against
// the job's own graph, so a corrupted or colliding entry can never turn
// into a silently-wrong Verified job -- it is dropped and the job replans
// cold. The differential replay is not repeated on a hit; it already ran
// when the entry was admitted, and the certify check pins the plan to the
// *current* job's graph.
//
// Bypass rules (callers, see service.cpp): jobs running with any fault
// point armed, and jobs short-circuited to distribution_only, never read
// or write the cache -- a faulted run must exercise the real pipeline, and
// its outcome must never poison future unfaulted runs. The
// "svc.plancache" fault point forces a bypass on demand.
//
// Eviction is strict LRU over a bounded capacity; both lookup hits and
// insertions refresh recency, so the eviction order for a fixed access
// sequence is deterministic (pinned by tests/test_plancache.cpp).
// All entry points are thread-safe (one mutex; the cache sits well off the
// solver hot path -- one lookup/insert per job, not per solve).
//
// Persistent tier (optional, `persist_dir` non-empty): every inserted plan
// is also written to `<dir>/<16-hex-key>.plan` -- a checksummed text image
// (svc/planstore.hpp) written *atomically* (temp file, flush, fsync,
// rename), so a kill -9 can leave at worst a stale temp file, never a torn
// `.plan`. A memory miss consults the disk tier lazily: a file that decodes
// cleanly (magic, key, checksum, strict fields) is promoted back into the
// LRU and served as a hit; anything else -- truncated, bit-flipped, renamed
// under the wrong key -- is *quarantined* (renamed to `<name>.quarantined`)
// and counted, and the job replans cold, which rewrites the entry: corrupt
// state heals instead of wedging. Eviction from the memory LRU leaves the
// disk file in place -- that is the tier's point: warm state survives both
// eviction and process death. The "svc.plancache.disk" fault point makes
// disk reads miss and disk writes fail on demand. Stores written by earlier
// releases may also hold `<key>.dist` distance-vector sidecars; nothing
// reads, counts, quarantines or deletes them.

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "fusion/driver.hpp"
#include "fusion/ladder.hpp"
#include "fusion/multidim.hpp"

namespace lf::svc {

/// Where a job's plan came from, for the run report.
enum class CacheOutcome {
    Hit,     // plan served from the cache (ladder skipped)
    Miss,    // cache consulted, no entry; job planned cold and may insert
    Bypass,  // cache not consulted (disabled, fault armed, distribution-only)
};
[[nodiscard]] std::string to_string(CacheOutcome outcome);

/// Monotonic counters since construction. Snapshot via PlanCache::stats().
struct PlanCacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    /// Hits whose entry failed the certify re-check and was dropped (the
    /// job then replans cold). Nonzero only under memory corruption, a
    /// 64-bit content-hash collision, or an injected certify fault.
    std::uint64_t invalidated = 0;
    /// Persistent tier (all zero when no persist_dir is configured).
    /// Memory misses served by a cleanly-decoded disk entry (also counted
    /// in `hits`: the cache as a whole served the plan).
    std::uint64_t disk_hits = 0;
    /// Memory misses the disk tier could not serve either.
    std::uint64_t disk_misses = 0;
    /// Plan files atomically written (insertions and corrupt-entry rebuilds).
    std::uint64_t disk_writes = 0;
    /// Atomic writes that failed (IO error or injected svc.plancache.disk
    /// fault); the in-memory entry stays valid, only persistence is lost.
    std::uint64_t disk_write_failures = 0;
    /// Corrupt/truncated/mis-keyed entries detected, renamed to
    /// `*.quarantined`, and left for offline inspection; the slot rebuilds
    /// on the next insert.
    std::uint64_t disk_quarantined = 0;
    /// Always 0; kept only because the benchmark driver (perfbench/) still
    /// reads it. Goes with that read.
    std::uint64_t dist_writes = 0;
};

class PlanCache {
  public:
    /// `capacity` = maximum resident plans; 0 disables the cache entirely
    /// (lookup always misses, insert is a no-op, and the persistent tier is
    /// not consulted). `persist_dir` non-empty enables the disk tier under
    /// that directory (created if absent; creation failure degrades to a
    /// memory-only cache with a stderr warning -- persistence is an
    /// optimization, never a reason to fail a run).
    explicit PlanCache(std::size_t capacity, std::string persist_dir = {});

    PlanCache(const PlanCache&) = delete;
    PlanCache& operator=(const PlanCache&) = delete;

    /// Content hash of (graph, planning options). FNV-1a 64 over the
    /// canonical node/edge content (what the text serialization would emit,
    /// hashed without building the text) -- structurally identical jobs
    /// share a key regardless of job id.
    [[nodiscard]] static std::uint64_t key_of(const Mldg& graph, const PlanOptions& options,
                                              bool allow_distribution_fallback);

    /// Depth-d analogue of key_of. The hash starts from a distinct tag and
    /// folds in the graph dimension before any content, so a depth-d graph
    /// can never share a key with a structurally-similar 2-D graph (or with
    /// a depth-d' graph of another dimension) -- plans of different
    /// dimension are never conflated.
    [[nodiscard]] static std::uint64_t key_of_nd(const MldgN& graph, const PlanOptions& options,
                                                 bool allow_distribution_fallback);

    /// Returns a copy of the cached plan and refreshes its recency; counts
    /// a hit or a miss. The returned plan's `stages` is empty (the original
    /// ladder trace belongs to the job that planned it; the hitting job
    /// records its own cache-path trace).
    [[nodiscard]] std::optional<FusionPlan> lookup(std::uint64_t key);

    /// Inserts (or refreshes) the plan under `key`, evicting the least
    /// recently used entry when at capacity. The stored copy drops the
    /// per-rung `stages` trace. No-op at capacity 0.
    void insert(std::uint64_t key, const FusionPlan& plan);

    /// insert(key, plan); the last two arguments are ignored. Kept only
    /// because the benchmark driver (perfbench/) still calls this form.
    void insert(std::uint64_t key, const FusionPlan& plan, const Mldg* graph,
                const LadderArtifacts* artifacts);

    /// Always nullopt; kept only because the benchmark driver (perfbench/)
    /// still calls it. Goes with that call.
    [[nodiscard]] std::optional<LadderWarmHints> near_miss_hints(const Mldg& graph,
                                                                 int max_edge_diff);

    /// Depth-d lookup: returns the cached N-D plan (recency refreshed) or
    /// nullopt. An entry that holds a 2-D plan under the key (impossible
    /// short of a hash collision) counts as a miss.
    [[nodiscard]] std::optional<NdFusionPlan> lookup_nd(std::uint64_t key);

    /// Depth-d insert: same LRU/eviction/stats behavior as insert.
    void insert_nd(std::uint64_t key, const NdFusionPlan& plan);

    /// Drops the entry (a hit that failed the certify re-check).
    void invalidate(std::uint64_t key);

    [[nodiscard]] PlanCacheStats stats() const;
    [[nodiscard]] std::size_t size() const;
    [[nodiscard]] std::size_t capacity() const { return capacity_; }
    [[nodiscard]] const std::string& persist_dir() const { return persist_dir_; }

    /// Path the persistent tier uses for `key` (valid only with a persist
    /// dir). Exposed so tests and drills can corrupt entries on purpose.
    [[nodiscard]] std::string plan_path(std::uint64_t key) const;

    /// Keys in eviction order (least recently used first). For tests.
    [[nodiscard]] std::vector<std::uint64_t> lru_keys() const;

  private:
    struct Entry {
        std::uint64_t key = 0;
        FusionPlan plan;
        /// Set for depth-d entries; `plan` is then unused.
        std::optional<NdFusionPlan> nd_plan;
    };

    /// Memory-miss path: consults the disk tier (when configured), promotes
    /// a cleanly-decoded entry into the LRU and returns its iterator, or
    /// returns entries_.end() after counting the miss / quarantining the
    /// corrupt file. Caller holds mutex_.
    std::list<Entry>::iterator disk_load_locked(std::uint64_t key, bool want_nd);
    /// Atomically writes `e` to the disk tier unless a valid-looking file is
    /// already present. Caller holds mutex_.
    void disk_write_locked(const Entry& e);
    /// Promotes `e` to the front of the LRU, evicting at capacity. Caller
    /// holds mutex_.
    std::list<Entry>::iterator promote_locked(Entry e);

    const std::size_t capacity_;
    std::string persist_dir_;
    mutable std::mutex mutex_;
    // Most recently used at the front; map values point into the list.
    std::list<Entry> entries_;
    std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
    PlanCacheStats stats_;
};

}  // namespace lf::svc
