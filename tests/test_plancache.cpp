// The content-addressed plan cache (svc/plancache.hpp) and the solver
// workspace hot path (graph/solver_workspace.hpp), from both sides:
//
//   * unit level -- content keys, hit/miss/eviction determinism, and that a
//     cached plan is byte-identical to planning the same graph cold;
//   * service level -- structurally identical jobs hit, fault-armed runs
//     bypass and never poison the cache, and the run report carries the
//     per-job cache outcome;
//   * workspace level -- warm-started ladder runs produce byte-identical
//     plans AND rung traces, with zero steady-state solver allocations.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "fusion/driver.hpp"
#include "graph/solver_workspace.hpp"
#include "ldg/serialization.hpp"
#include "support/faultpoint.hpp"
#include "svc/manifest.hpp"
#include "svc/plancache.hpp"
#include "svc/planstore.hpp"
#include "svc/report.hpp"
#include "svc/service.hpp"
#include "workloads/gallery.hpp"
#include "workloads/generators.hpp"

namespace lf::svc {
namespace {

class PlanCacheTest : public ::testing::Test {
  protected:
    void SetUp() override { faultpoint::reset(); }
    void TearDown() override { faultpoint::reset(); }
};

Mldg two_loop_graph(std::int64_t y) {
    Mldg g;
    const int a = g.add_node("A");
    const int b = g.add_node("B");
    g.add_edge(a, b, {Vec2{0, y}});
    return g;
}

/// Everything that makes two plans "the same plan", byte for byte. The
/// per-rung stage trace is deliberately excluded: a cached plan carries no
/// trace (it belongs to the job that planned it).
std::string plan_fingerprint(const FusionPlan& plan) {
    std::string fp = to_string(plan.level) + "|" + to_string(plan.algorithm) + "|" +
                     plan.schedule.str() + "|" + plan.hyperplane.str() + "|";
    for (int v = 0; v < plan.retiming.num_nodes(); ++v) fp += plan.retiming.of(v).str() + ",";
    fp += "|";
    for (int v : plan.body_order) fp += std::to_string(v) + ",";
    fp += "|" + serialize_mldg(plan.retimed, "fp");
    return fp;
}

// ---- Content keys ----

TEST_F(PlanCacheTest, KeyDependsOnContentNotIdentity) {
    const Mldg a = two_loop_graph(1);
    const Mldg b = two_loop_graph(1);   // structurally identical, distinct object
    const Mldg c = two_loop_graph(-1);  // different dependence vector
    const std::uint64_t ka = PlanCache::key_of(a, PlanOptions{}, true);
    EXPECT_EQ(ka, PlanCache::key_of(b, PlanOptions{}, true));
    EXPECT_NE(ka, PlanCache::key_of(c, PlanOptions{}, true));
}

TEST_F(PlanCacheTest, KeyFoldsInPlanningOptions) {
    const Mldg g = two_loop_graph(1);
    const std::uint64_t base = PlanCache::key_of(g, PlanOptions{}, true);
    PlanOptions compact;
    compact.compact_prologue = true;
    EXPECT_NE(base, PlanCache::key_of(g, compact, true));
    EXPECT_NE(base, PlanCache::key_of(g, PlanOptions{}, false));
}

TEST_F(PlanCacheTest, DimensionNeverConflatesKeysOrEntries) {
    // Structurally similar two-node chains at three dimensionalities: the
    // N-D key folds the dimension before any content, and the N-D keyspace
    // carries its own tag, so none of the three keys may collide.
    const Mldg g2 = two_loop_graph(1);
    MldgN n2(2);
    n2.add_node("A");
    n2.add_node("B");
    n2.add_edge(0, 1, {VecN{0, 1}});
    MldgN n3(3);
    n3.add_node("A");
    n3.add_node("B");
    n3.add_edge(0, 1, {VecN{0, 0, 1}});

    const std::uint64_t k2 = PlanCache::key_of(g2, PlanOptions{}, true);
    const std::uint64_t kn2 = PlanCache::key_of_nd(n2, PlanOptions{}, true);
    const std::uint64_t kn3 = PlanCache::key_of_nd(n3, PlanOptions{}, true);
    EXPECT_NE(kn2, kn3);
    EXPECT_NE(k2, kn2);
    EXPECT_NE(k2, kn3);

    // Even a forced key collision cannot surface a 2-D plan as an N-D one:
    // an entry holds either kind, and the mismatched lookup misses.
    PlanCache cache(8);
    const auto plan2 = try_plan_fusion(g2);
    ASSERT_TRUE(plan2.ok());
    cache.insert(42, *plan2);
    EXPECT_FALSE(cache.lookup_nd(42).has_value());
    EXPECT_TRUE(cache.lookup(42).has_value());

    const NdFusionPlan plan3 = plan_fusion_nd(n3);
    cache.insert_nd(kn3, plan3);
    const auto hit = cache.lookup_nd(kn3);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->retiming.num_nodes(), 2);
    EXPECT_EQ(hit->schedule.dim(), 3);
}

// ---- Hit fidelity ----

TEST_F(PlanCacheTest, CachedPlanIsByteIdenticalToColdPlan) {
    PlanCache cache(8);
    for (const auto& w : workloads::paper_workloads()) {
        const auto cold = try_plan_fusion(w.graph);
        ASSERT_TRUE(cold.ok()) << w.id;
        const std::uint64_t key = PlanCache::key_of(w.graph, PlanOptions{}, true);
        cache.insert(key, *cold);
        const auto hit = cache.lookup(key);
        ASSERT_TRUE(hit.has_value()) << w.id;
        EXPECT_EQ(plan_fingerprint(*hit), plan_fingerprint(*cold)) << w.id;
        EXPECT_TRUE(hit->stages.empty()) << w.id << ": cached plan must not carry a trace";
    }
}

// ---- Eviction determinism ----

TEST_F(PlanCacheTest, LruEvictionOrderIsDeterministic) {
    PlanCache cache(2);
    const Mldg g = two_loop_graph(1);
    const auto plan = try_plan_fusion(g);
    ASSERT_TRUE(plan.ok());

    cache.insert(1, *plan);
    cache.insert(2, *plan);
    EXPECT_EQ(cache.lru_keys(), (std::vector<std::uint64_t>{1, 2}));

    // A lookup refreshes recency: key 1 becomes most recent ...
    ASSERT_TRUE(cache.lookup(1).has_value());
    EXPECT_EQ(cache.lru_keys(), (std::vector<std::uint64_t>{2, 1}));

    // ... so inserting a third entry evicts key 2, not key 1.
    cache.insert(3, *plan);
    EXPECT_EQ(cache.lru_keys(), (std::vector<std::uint64_t>{1, 3}));
    EXPECT_FALSE(cache.lookup(2).has_value());
    EXPECT_TRUE(cache.lookup(1).has_value());
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.size(), 2u);
}

TEST_F(PlanCacheTest, ZeroCapacityDisablesEverything) {
    PlanCache cache(0);
    const auto plan = try_plan_fusion(two_loop_graph(1));
    ASSERT_TRUE(plan.ok());
    cache.insert(1, *plan);
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_FALSE(cache.lookup(1).has_value());
}

TEST_F(PlanCacheTest, InvalidateDropsTheEntry) {
    PlanCache cache(4);
    const auto plan = try_plan_fusion(two_loop_graph(1));
    ASSERT_TRUE(plan.ok());
    cache.insert(7, *plan);
    cache.invalidate(7);
    EXPECT_FALSE(cache.lookup(7).has_value());
    EXPECT_EQ(cache.stats().invalidated, 1u);
}

// ---- Service integration ----

std::vector<JobSpec> twin_jobs() {
    // Two jobs, distinct ids, structurally identical graphs: the second must
    // be served from the cache.
    std::vector<JobSpec> jobs;
    for (const char* id : {"twin-a", "twin-b"}) {
        JobSpec j;
        j.id = id;
        j.klass = "twin";
        j.graph = workloads::fig2_graph();
        jobs.push_back(std::move(j));
    }
    return jobs;
}

TEST_F(PlanCacheTest, StructurallyIdenticalJobsHitTheCache) {
    ServiceConfig config;
    config.workers = 1;  // deterministic processing order
    FusionService service(config);
    const RunReport report = service.run(twin_jobs());

    ASSERT_EQ(report.jobs.size(), 2u);
    const auto& first = report.jobs[0];
    const auto& second = report.jobs[1];
    EXPECT_EQ(first.cache, CacheOutcome::Miss);
    EXPECT_EQ(second.cache, CacheOutcome::Hit);
    EXPECT_EQ(first.status, JobStatus::Verified);
    EXPECT_EQ(second.status, JobStatus::Verified);
    // The hit serves the very same plan: same rung, same level, certified.
    EXPECT_EQ(second.algorithm, first.algorithm);
    EXPECT_EQ(second.level, first.level);
    EXPECT_TRUE(second.certified);
    EXPECT_EQ(second.replay, ReplayOutcome::Skipped);

    EXPECT_EQ(report.plancache.hits, 1u);
    EXPECT_EQ(report.plancache.insertions, 1u);
    EXPECT_EQ(report.plancache_size, 1u);

    const RunCounts counts = report.counts();
    EXPECT_EQ(counts.cache_hits, 1);
    EXPECT_EQ(counts.cache_misses, 1);

    // The per-job outcome is visible in the JSON report.
    const std::string json = report_to_json(report, false);
    EXPECT_NE(json.find("\"cache\": \"hit\""), std::string::npos);
    EXPECT_NE(json.find("\"cache\": \"miss\""), std::string::npos);
}

TEST_F(PlanCacheTest, FaultArmedRunsBypassAndNeverPoisonTheCache) {
    ServiceConfig config;
    config.workers = 1;
    FusionService service(config);

    // Run 1: a fault is armed -- every job must bypass, nothing may be
    // inserted, whatever the fault does to the jobs themselves.
    faultpoint::arm("solver.spfa");
    const RunReport faulted = service.run(twin_jobs());
    for (const auto& job : faulted.jobs) {
        EXPECT_EQ(job.cache, CacheOutcome::Bypass) << job.id;
    }
    EXPECT_EQ(faulted.plancache_size, 0u);
    EXPECT_EQ(faulted.plancache.insertions, 0u);
    EXPECT_EQ(faulted.plancache.hits, 0u);
    faultpoint::reset();

    // Run 2, same service (the cache persists across runs): the cache is
    // still empty, so the first twin is a miss, not a poisoned hit.
    const RunReport clean = service.run(twin_jobs());
    ASSERT_EQ(clean.jobs.size(), 2u);
    EXPECT_EQ(clean.jobs[0].cache, CacheOutcome::Miss);
    EXPECT_EQ(clean.jobs[1].cache, CacheOutcome::Hit);
    EXPECT_EQ(clean.jobs[0].status, JobStatus::Verified);
}

TEST_F(PlanCacheTest, PlancacheFaultPointForcesBypass) {
    ServiceConfig config;
    config.workers = 1;
    FusionService service(config);
    faultpoint::arm("svc.plancache");
    const RunReport report = service.run(twin_jobs());
    for (const auto& job : report.jobs) {
        EXPECT_EQ(job.cache, CacheOutcome::Bypass) << job.id;
        EXPECT_EQ(job.status, JobStatus::Verified) << job.id;  // planning unaffected
    }
    EXPECT_GE(faultpoint::hits("svc.plancache"), 1);
}

TEST_F(PlanCacheTest, DisabledCacheRecordsBypass) {
    ServiceConfig config;
    config.workers = 1;
    config.plan_cache_capacity = 0;
    FusionService service(config);
    const RunReport report = service.run(twin_jobs());
    for (const auto& job : report.jobs) {
        EXPECT_EQ(job.cache, CacheOutcome::Bypass) << job.id;
    }
}

// ---- Persistent tier ----

/// A fresh, self-cleaning store directory per test.
struct TempStoreDir {
    std::string path;
    explicit TempStoreDir(const std::string& tag)
        : path(::testing::TempDir() + "lf_plancache_" + tag + "_" + std::to_string(::getpid())) {
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }
    ~TempStoreDir() {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
};

std::string slurp_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

void write_raw(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

FusionPlan fig2_plan() {
    auto plan = try_plan_fusion(workloads::fig2_graph());
    EXPECT_TRUE(plan.ok());
    return *plan;
}

TEST_F(PlanCacheTest, PersistedPlanSurvivesAProcessRestartByteIdentical) {
    TempStoreDir dir("roundtrip");
    const FusionPlan plan = fig2_plan();
    const std::uint64_t key = PlanCache::key_of(workloads::fig2_graph(), PlanOptions{}, true);
    std::string file_image;
    {
        PlanCache cache(8, dir.path);
        cache.insert(key, plan);
        EXPECT_EQ(cache.stats().disk_writes, 1u);
        ASSERT_TRUE(std::filesystem::exists(cache.plan_path(key)));
        file_image = slurp_file(cache.plan_path(key));
        EXPECT_EQ(file_image, planstore::encode_file(key, plan))
            << "the on-disk image is the deterministic planstore encoding";
    }
    // A brand-new cache (the restarted process) serves the plan from disk:
    // a memory miss, a disk hit, and a byte-identical plan.
    PlanCache fresh(8, dir.path);
    const auto hit = fresh.lookup(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(plan_fingerprint(*hit), plan_fingerprint(plan));
    EXPECT_EQ(fresh.stats().hits, 1u);
    EXPECT_EQ(fresh.stats().disk_hits, 1u);
    EXPECT_EQ(fresh.stats().disk_misses, 0u);
    EXPECT_EQ(slurp_file(fresh.plan_path(key)), file_image) << "the load must not rewrite";
    // Promoted into memory: the second lookup is a pure memory hit.
    ASSERT_TRUE(fresh.lookup(key).has_value());
    EXPECT_EQ(fresh.stats().disk_hits, 1u);
    EXPECT_EQ(fresh.stats().hits, 2u);
}

TEST_F(PlanCacheTest, EvictionLeavesTheDiskFileToReloadLater) {
    TempStoreDir dir("evict");
    const FusionPlan plan = fig2_plan();
    PlanCache cache(1, dir.path);
    cache.insert(1, plan);
    cache.insert(2, plan);  // evicts key 1 from memory
    EXPECT_EQ(cache.stats().evictions, 1u);
    ASSERT_TRUE(std::filesystem::exists(cache.plan_path(1)))
        << "eviction is a memory event; the tier keeps the plan";
    const auto hit = cache.lookup(1);  // comes back from disk
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(cache.stats().disk_hits, 1u);
    EXPECT_EQ(plan_fingerprint(*hit), plan_fingerprint(plan));
}

TEST_F(PlanCacheTest, TruncatedEntryIsQuarantinedThenRebuilt) {
    TempStoreDir dir("truncated");
    const FusionPlan plan = fig2_plan();
    const std::uint64_t key = 77;
    std::string path;
    {
        PlanCache cache(8, dir.path);
        cache.insert(key, plan);
        path = cache.plan_path(key);
    }
    // A kill mid-rewrite cannot produce this (writes are atomic), but a bad
    // disk or a meddling operator can.
    write_raw(path, slurp_file(path).substr(0, 40));

    PlanCache fresh(8, dir.path);
    EXPECT_FALSE(fresh.lookup(key).has_value());
    EXPECT_EQ(fresh.stats().disk_quarantined, 1u);
    EXPECT_EQ(fresh.stats().disk_misses, 1u);
    EXPECT_FALSE(std::filesystem::exists(path)) << "corrupt file must not stay under its name";
    EXPECT_TRUE(std::filesystem::exists(path + ".quarantined"))
        << "quarantined, not destroyed: the evidence survives for inspection";
    // The job replans cold and re-inserts: the slot heals.
    fresh.insert(key, plan);
    EXPECT_EQ(fresh.stats().disk_writes, 1u);
    ASSERT_TRUE(std::filesystem::exists(path));
    PlanCache reader(8, dir.path);
    EXPECT_TRUE(reader.lookup(key).has_value());
}

TEST_F(PlanCacheTest, BitFlippedEntryFailsTheChecksumAndIsQuarantined) {
    TempStoreDir dir("bitflip");
    const FusionPlan plan = fig2_plan();
    const std::uint64_t key = 78;
    std::string path;
    {
        PlanCache cache(8, dir.path);
        cache.insert(key, plan);
        path = cache.plan_path(key);
    }
    std::string bytes = slurp_file(path);
    bytes[bytes.size() / 2] ^= 0x01;
    write_raw(path, bytes);

    PlanCache fresh(8, dir.path);
    EXPECT_FALSE(fresh.lookup(key).has_value());
    EXPECT_EQ(fresh.stats().disk_quarantined, 1u);
    EXPECT_TRUE(std::filesystem::exists(path + ".quarantined"));
}

TEST_F(PlanCacheTest, MisKeyedEntryIsDetectedAndQuarantined) {
    TempStoreDir dir("miskey");
    const FusionPlan plan = fig2_plan();
    PlanCache cache(8, dir.path);
    cache.insert(101, plan);
    // Copy a perfectly valid file under another key's name (an operator
    // "restoring" the wrong backup): checksum fine, key line not.
    std::filesystem::copy_file(cache.plan_path(101), cache.plan_path(202));

    PlanCache fresh(8, dir.path);
    EXPECT_FALSE(fresh.lookup(202).has_value());
    EXPECT_EQ(fresh.stats().disk_quarantined, 1u);
    EXPECT_TRUE(std::filesystem::exists(fresh.plan_path(202) + ".quarantined"));
    // The honestly-named original still serves.
    EXPECT_TRUE(fresh.lookup(101).has_value());
}

TEST_F(PlanCacheTest, DiskFaultPointFailsWritesAndMissesReads) {
    TempStoreDir dir("fault");
    const FusionPlan plan = fig2_plan();
    const std::uint64_t key = 55;
    {
        // Armed during insert: the memory entry is fine, persistence fails.
        PlanCache cache(8, dir.path);
        faultpoint::arm("svc.plancache.disk");
        cache.insert(key, plan);
        EXPECT_EQ(cache.stats().disk_writes, 0u);
        EXPECT_EQ(cache.stats().disk_write_failures, 1u);
        EXPECT_FALSE(std::filesystem::exists(cache.plan_path(key)));
        EXPECT_TRUE(cache.lookup(key).has_value()) << "memory tier unaffected";
        EXPECT_GE(faultpoint::hits("svc.plancache.disk"), 1);
        faultpoint::reset();
        cache.insert(key, plan);  // refresh with the fault cleared: persists
        EXPECT_EQ(cache.stats().disk_writes, 1u);
    }
    // Armed during lookup: the disk tier reports a miss and must NOT touch
    // (much less quarantine) the perfectly healthy file.
    PlanCache fresh(8, dir.path);
    faultpoint::arm("svc.plancache.disk");
    EXPECT_FALSE(fresh.lookup(key).has_value());
    EXPECT_EQ(fresh.stats().disk_misses, 1u);
    EXPECT_EQ(fresh.stats().disk_quarantined, 0u);
    EXPECT_TRUE(std::filesystem::exists(fresh.plan_path(key)));
    EXPECT_GE(faultpoint::hits("svc.plancache.disk"), 1);
    faultpoint::reset();
    EXPECT_TRUE(fresh.lookup(key).has_value());
}

TEST_F(PlanCacheTest, NdPlansPersistAndReloadByteIdentical) {
    TempStoreDir dir("nd");
    MldgN g(3);
    g.add_node("A");
    g.add_node("B");
    g.add_edge(0, 1, {VecN{0, 0, 1}});
    const NdFusionPlan plan = plan_fusion_nd(g);
    const std::uint64_t key = PlanCache::key_of_nd(g, PlanOptions{}, true);
    {
        PlanCache cache(8, dir.path);
        cache.insert_nd(key, plan);
        EXPECT_EQ(slurp_file(cache.plan_path(key)), planstore::encode_file_nd(key, plan));
    }
    PlanCache fresh(8, dir.path);
    const auto hit = fresh.lookup_nd(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(fresh.stats().disk_hits, 1u);
    EXPECT_EQ(planstore::encode_file_nd(key, *hit), planstore::encode_file_nd(key, plan));
}

TEST_F(PlanCacheTest, UncreatableStoreDirDegradesToMemoryOnly) {
    TempStoreDir dir("degrade");
    const std::string blocker = dir.path + "/not_a_dir";
    write_raw(blocker, "file in the way\n");
    // create_directories under a regular file must fail; the cache keeps
    // working, just without persistence.
    PlanCache cache(8, blocker + "/store");
    EXPECT_TRUE(cache.persist_dir().empty());
    const FusionPlan plan = fig2_plan();
    cache.insert(5, plan);
    EXPECT_TRUE(cache.lookup(5).has_value());
    EXPECT_EQ(cache.stats().disk_writes, 0u);
}

TEST_F(PlanCacheTest, DecodeFileRejectsArbitraryGarbageWithoutCrashing) {
    const FusionPlan plan = fig2_plan();
    const std::string valid = planstore::encode_file(31337, plan);
    // Every truncation of a valid image must fail with a reason.
    for (std::size_t len = 0; len < valid.size(); len += 7) {
        const auto r = planstore::decode_file(31337, std::string_view(valid.data(), len));
        EXPECT_FALSE(r.ok) << "truncated to " << len;
        EXPECT_FALSE(r.error.empty()) << "truncated to " << len;
    }
    // Every single-byte corruption must fail (the checksum covers all
    // preceding bytes; corrupting the checksum line itself mismatches too).
    for (std::size_t pos = 0; pos < valid.size(); pos += 11) {
        std::string bytes = valid;
        bytes[pos] ^= 0x20;
        EXPECT_FALSE(planstore::decode_file(31337, bytes).ok) << "flipped byte " << pos;
    }
    // Random garbage never crashes, never decodes.
    std::uint64_t state = 0x9e3779b97f4a7c15ull;
    for (int round = 0; round < 200; ++round) {
        std::string junk(37 + static_cast<std::size_t>(round) * 3, '\0');
        for (char& ch : junk) {
            state = state * 6364136223846793005ull + 1442695040888963407ull;
            ch = static_cast<char>(state >> 33);
        }
        EXPECT_FALSE(planstore::decode_file(1, junk).ok);
    }
    // The wrong expected key rejects an otherwise perfect image.
    EXPECT_FALSE(planstore::decode_file(31338, valid).ok);
    EXPECT_TRUE(planstore::decode_file(31337, valid).ok);
}

TEST_F(PlanCacheTest, ConcurrentCachesShareOneStoreDirSafely) {
    TempStoreDir dir("concurrent");
    // Four caches (four "processes") hammer one store: tiny memory capacity
    // forces constant disk loads while others atomically rewrite the same
    // content-addressed files. Every successful lookup must be the right
    // plan; rename-based writes mean a reader sees an old or a new complete
    // file, never a torn one.
    std::vector<const workloads::Workload*> cases;
    std::vector<std::string> expected;
    for (const auto& w : workloads::paper_workloads()) {
        const auto plan = try_plan_fusion(w.graph);
        if (!plan.ok()) continue;
        cases.push_back(&w);
        expected.push_back(plan_fingerprint(*plan));
    }
    ASSERT_GE(cases.size(), 2u);
    std::atomic<int> mismatches{0};
    std::vector<std::thread> pool;
    for (int t = 0; t < 4; ++t) {
        pool.emplace_back([&] {
            PlanCache cache(1, dir.path);
            for (int iter = 0; iter < 8; ++iter) {
                for (std::size_t i = 0; i < cases.size(); ++i) {
                    const std::uint64_t key =
                        PlanCache::key_of(cases[i]->graph, PlanOptions{}, true);
                    auto hit = cache.lookup(key);
                    if (!hit.has_value()) {
                        const auto cold = try_plan_fusion(cases[i]->graph);
                        if (!cold.ok()) continue;
                        cache.insert(key, *cold);
                        hit = cache.lookup(key);
                    }
                    if (hit.has_value() && plan_fingerprint(*hit) != expected[i]) {
                        mismatches.fetch_add(1);
                    }
                }
            }
        });
    }
    for (auto& th : pool) th.join();
    EXPECT_EQ(mismatches.load(), 0);
    // After the dust settles every plan file decodes cleanly.
    PlanCache reader(8, dir.path);
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const std::uint64_t key = PlanCache::key_of(cases[i]->graph, PlanOptions{}, true);
        const auto hit = reader.lookup(key);
        ASSERT_TRUE(hit.has_value()) << cases[i]->id;
        EXPECT_EQ(plan_fingerprint(*hit), expected[i]) << cases[i]->id;
    }
    EXPECT_EQ(reader.stats().disk_quarantined, 0u);
}

TEST_F(PlanCacheTest, ServiceWarmStateSurvivesARestart) {
    TempStoreDir dir("service");
    ServiceConfig config;
    config.workers = 1;
    config.plan_store_dir = dir.path;
    std::string file_image;
    {
        FusionService service(config);
        const RunReport report = service.run(twin_jobs());
        ASSERT_EQ(report.jobs.size(), 2u);
        EXPECT_EQ(report.jobs[0].cache, CacheOutcome::Miss);
        EXPECT_EQ(report.jobs[1].cache, CacheOutcome::Hit);
        EXPECT_EQ(report.plancache.disk_writes, 1u);
        const std::uint64_t key =
            PlanCache::key_of(workloads::fig2_graph(), PlanOptions{}, true);
        ASSERT_TRUE(std::filesystem::exists(service.plan_file_path(key)));
        file_image = slurp_file(service.plan_file_path(key));
    }
    // The "restarted" service: no memory state, same store. The first twin
    // is already a hit -- served from the tier the dead service left behind
    // -- and the bytes on disk do not change.
    FusionService reborn(config);
    const RunReport report = reborn.run(twin_jobs());
    ASSERT_EQ(report.jobs.size(), 2u);
    EXPECT_EQ(report.jobs[0].cache, CacheOutcome::Hit);
    EXPECT_EQ(report.jobs[1].cache, CacheOutcome::Hit);
    EXPECT_EQ(report.jobs[0].status, JobStatus::Verified);
    EXPECT_EQ(report.plancache.disk_hits, 1u);
    EXPECT_EQ(report.plancache.disk_writes, 0u);
    const std::uint64_t key = PlanCache::key_of(workloads::fig2_graph(), PlanOptions{}, true);
    EXPECT_EQ(slurp_file(reborn.plan_file_path(key)), file_image)
        << "a pre-kill plan must be served byte-identical after restart";
}

TEST_F(PlanCacheTest, LegacyDistSidecarsAreIgnored) {
    // tests/fixtures/legacy_store holds the paper gallery's `.plan` files
    // together with the `<key>.dist` distance-vector sidecars that stores
    // written by earlier releases carry. The plans must serve warm; the
    // sidecars are never read, counted, quarantined or deleted.
    TempStoreDir dir("legacy");
    const std::filesystem::path fixtures =
        std::filesystem::path(LF_SOURCE_DIR) / "tests" / "fixtures" / "legacy_store";
    std::vector<std::pair<std::string, std::string>> sidecars;  // path, bytes
    for (const auto& entry : std::filesystem::directory_iterator(fixtures)) {
        const std::string to = dir.path + "/" + entry.path().filename().string();
        std::filesystem::copy_file(entry.path(), to);
        if (entry.path().extension() == ".dist") sidecars.emplace_back(to, slurp_file(to));
    }
    ASSERT_EQ(sidecars.size(), workloads::paper_workloads().size());
    const auto sidecars_untouched = [&] {
        for (const auto& [path, bytes] : sidecars) {
            EXPECT_EQ(slurp_file(path), bytes) << path;
            EXPECT_FALSE(std::filesystem::exists(path + ".quarantined")) << path;
        }
    };

    std::vector<JobSpec> jobs;
    for (const auto& w : workloads::paper_workloads()) {
        JobSpec job;
        job.id = w.id;
        job.graph = w.graph;
        jobs.push_back(std::move(job));
    }
    ServiceConfig config;
    config.workers = 1;
    config.plan_store_dir = dir.path;
    const RunReport report = FusionService(config).run(jobs);
    for (const JobRecord& rec : report.jobs) {
        EXPECT_EQ(rec.status, JobStatus::Verified) << rec.id;
        EXPECT_EQ(rec.cache, CacheOutcome::Hit) << rec.id;
    }
    EXPECT_EQ(report.plancache.disk_hits, jobs.size());
    EXPECT_EQ(report.plancache.disk_quarantined, 0u);
    EXPECT_EQ(report.plancache.disk_writes, 0u);
    sidecars_untouched();

    // Invalidation quarantines the plan file and leaves its sidecar alone.
    PlanCache cache(8, dir.path);
    for (const auto& w : workloads::paper_workloads()) {
        const std::uint64_t key = PlanCache::key_of(w.graph, PlanOptions{}, true);
        ASSERT_TRUE(cache.lookup(key).has_value()) << w.id;
        cache.invalidate(key);
        EXPECT_TRUE(std::filesystem::exists(cache.plan_path(key) + ".quarantined")) << w.id;
    }
    EXPECT_EQ(cache.stats().disk_quarantined, jobs.size());
    sidecars_untouched();
}

// ---- Warm-started ladder fidelity ----

std::string trace_fingerprint(const std::vector<StageReport>& stages) {
    // Stage names, codes and details only: solver counters legitimately
    // differ between warm and cold runs; results and decisions must not.
    std::string fp;
    for (const auto& s : stages) {
        fp += s.stage + ":" + to_string(s.code) + "[" + s.detail + "]\n";
    }
    return fp;
}

TEST_F(PlanCacheTest, WarmStartedLadderMatchesColdAcrossGallery) {
    PlannerWorkspace ws;
    TryPlanOptions warm_opts;
    warm_opts.workspace = &ws;

    std::vector<Mldg> graphs;
    for (const auto& w : workloads::paper_workloads()) graphs.push_back(w.graph);
    {
        Rng rng(97);
        workloads::RandomGraphOptions opt;
        opt.num_nodes = 48;
        opt.forward_edge_prob = 6.0 / 48;
        opt.backward_edge_prob = 2.0 / 48;
        graphs.push_back(workloads::random_legal_mldg(rng, opt));
    }

    for (std::size_t i = 0; i < graphs.size(); ++i) {
        const auto cold = try_plan_fusion(graphs[i]);
        const auto warm = try_plan_fusion(graphs[i], warm_opts);
        ASSERT_EQ(cold.ok(), warm.ok()) << "graph " << i;
        if (!cold.ok()) continue;
        EXPECT_EQ(plan_fingerprint(*warm), plan_fingerprint(*cold)) << "graph " << i;
        EXPECT_EQ(trace_fingerprint(warm->stages), trace_fingerprint(cold->stages))
            << "graph " << i;
    }
}

TEST_F(PlanCacheTest, SteadyStateWorkspaceAllocationsAreZero) {
    PlannerWorkspace ws;
    TryPlanOptions warm_opts;
    warm_opts.workspace = &ws;

    std::vector<Mldg> graphs;
    for (const auto& w : workloads::paper_workloads()) graphs.push_back(w.graph);

    // First pass grows the arena buffers to the high-water mark ...
    for (const Mldg& g : graphs) (void)try_plan_fusion(g, warm_opts);
    // ... after which re-planning the same inputs allocates nothing at all.
    ws.reset_counters();
    for (const Mldg& g : graphs) (void)try_plan_fusion(g, warm_opts);
    EXPECT_EQ(ws.total_allocations(), 0u);
}

// ---- Plan policy and the cache key ----

TEST_F(PlanCacheTest, PlanPoliciesNeverConflateAndSurviveRestart) {
    // The same MLDG planned under two objectives yields two distinct keys,
    // two cache entries, and both survive a persistent-tier restart with
    // their own plan -- a smallest-code plan must never be served to a
    // fastest-schedule caller or vice versa.
    const Mldg g = workloads::fig8_graph();
    PlanOptions fastest;
    PlanOptions smallest;
    smallest.policy = PlanPolicy::SmallestCode;
    const std::uint64_t kf = PlanCache::key_of(g, fastest, true);
    const std::uint64_t ks = PlanCache::key_of(g, smallest, true);
    EXPECT_NE(kf, ks);
    // The default policy folds nothing into the hash: default keys are
    // bit-identical to the pre-policy scheme, so persistent tiers written
    // before the policy layer stay warm.
    EXPECT_EQ(kf, PlanCache::key_of(g, PlanOptions{}, true));

    const FusionPlan fast_plan = plan_fusion(g, fastest);
    const FusionPlan small_plan = plan_fusion(g, smallest);
    // fig8 is a workload the objective actually changes; conflation would
    // be invisible on a graph where both plans coincide.
    bool plans_differ = false;
    for (int v = 0; v < g.num_nodes(); ++v) {
        plans_differ = plans_differ ||
                       fast_plan.retiming.of(v).x != small_plan.retiming.of(v).x ||
                       fast_plan.retiming.of(v).y != small_plan.retiming.of(v).y;
    }
    ASSERT_TRUE(plans_differ);

    TempStoreDir dir("policy");
    {
        PlanCache cache(8, dir.path);
        cache.insert(kf, fast_plan);
        cache.insert(ks, small_plan);
        EXPECT_EQ(cache.stats().insertions, 2u);
        EXPECT_EQ(cache.size(), 2u);
    }
    // Cold restart: both entries come back from disk, each under its key.
    PlanCache fresh(8, dir.path);
    const auto hit_fast = fresh.lookup(kf);
    const auto hit_small = fresh.lookup(ks);
    ASSERT_TRUE(hit_fast.has_value());
    ASSERT_TRUE(hit_small.has_value());
    for (int v = 0; v < g.num_nodes(); ++v) {
        EXPECT_EQ(hit_fast->retiming.of(v).x, fast_plan.retiming.of(v).x);
        EXPECT_EQ(hit_fast->retiming.of(v).y, fast_plan.retiming.of(v).y);
        EXPECT_EQ(hit_small->retiming.of(v).x, small_plan.retiming.of(v).x);
        EXPECT_EQ(hit_small->retiming.of(v).y, small_plan.retiming.of(v).y);
    }
}

TEST_F(PlanCacheTest, PlanPolicyKeysAreDistinctForNdGraphsToo) {
    PlanOptions smallest;
    smallest.policy = PlanPolicy::SmallestCode;
    for (const JobSpec& job : nd_jobs()) {
        EXPECT_NE(PlanCache::key_of_nd(job.graph_nd, PlanOptions{}, true),
                  PlanCache::key_of_nd(job.graph_nd, smallest, true))
            << job.id;
    }
}

}  // namespace
}  // namespace lf::svc
