#include "svc/service.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <optional>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "exec/native.hpp"
#include "fusion/certify.hpp"
#include "fusion/driver.hpp"
#include "fusion/multidim.hpp"
#include "graph/solver_workspace.hpp"
#include "ir/parser.hpp"
#include "front/parse.hpp"
#include "support/diagnostics.hpp"
#include "support/faultpoint.hpp"
#include "svc/gate.hpp"
#include "svc/report.hpp"

namespace lf::svc {

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t ms_since(Clock::time_point t0) {
    return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() - t0).count();
}

/// initial_steps * escalation^(attempt-1), saturating at kUnlimitedSteps.
std::uint64_t escalated_steps(const RetryPolicy& retry, int attempt) {
    if (retry.initial_steps == kUnlimitedSteps) return kUnlimitedSteps;
    const std::uint64_t factor = retry.escalation < 1 ? 1 : static_cast<std::uint64_t>(retry.escalation);
    std::uint64_t steps = retry.initial_steps;
    for (int k = 1; k < attempt; ++k) {
        if (factor != 0 && steps > kUnlimitedSteps / factor) return kUnlimitedSteps;
        steps *= factor;
    }
    return steps;
}

std::uint64_t stage_budget_sum(const std::vector<StageReport>& stages) {
    std::uint64_t total = 0;
    for (const auto& s : stages) total += s.budget_consumed;
    return total;
}

/// A failure class the retry-with-escalation loop can plausibly fix: a
/// bigger budget (ResourceExhausted) or a transient internal fault.
/// Infeasible / IllegalInput / Overflow are deterministic verdicts.
bool retryable_code(StatusCode code) {
    return code == StatusCode::ResourceExhausted || code == StatusCode::Internal;
}

/// Report strings for the N-D planner (the 2-D ones come from
/// to_string(AlgorithmUsed) / to_string(ParallelismLevel)).
std::string nd_algorithm_string(NdParallelism level) {
    return level == NdParallelism::OutermostCarried ? "Algorithm 3 (acyclic, n-D)"
                                                    : "Algorithm 5 (hyperplane, n-D)";
}

std::string nd_level_string(NdParallelism level) {
    return level == NdParallelism::OutermostCarried ? "outermost-carried DOALL"
                                                    : "DOALL-hyperplane";
}

StageReport make_stage(const char* stage, StatusCode code, std::string detail) {
    StageReport r;
    r.stage = stage;
    r.code = code;
    r.detail = std::move(detail);
    return r;
}

/// Combines the service-wide deadline with the job's own (wire-provided)
/// deadline: negative = unset on either side; with both set the tighter
/// one governs.
std::int64_t effective_deadline_ms(const RetryPolicy& retry, const JobSpec& job) {
    if (job.deadline_ms < 0) return retry.deadline_ms;
    if (retry.deadline_ms < 0) return job.deadline_ms;
    return std::min(retry.deadline_ms, job.deadline_ms);
}

}  // namespace

RunCounts RunReport::counts() const {
    RunCounts c;
    for (const auto& j : jobs) {
        if (j.status == JobStatus::Verified) ++c.verified;
        if (j.status == JobStatus::Quarantined) ++c.quarantined;
        if (j.from_checkpoint) ++c.from_checkpoint;
        if (!j.attempts.empty() && j.attempts.back().short_circuited) ++c.short_circuited;
        switch (j.cache) {
            case CacheOutcome::Hit: ++c.cache_hits; break;
            case CacheOutcome::Miss: ++c.cache_misses; break;
            case CacheOutcome::Bypass: ++c.cache_bypasses; break;
        }
        if (j.native == exec::NativeOutcome::Verified) ++c.native_verified;
        if (exec::is_native_failure(j.native)) ++c.native_contained;
        if (j.native == exec::NativeOutcome::Skipped ||
            j.native == exec::NativeOutcome::Unavailable) {
            ++c.native_skipped;
        }
    }
    return c;
}

namespace {

exec::CompileOptions native_compile_options(const ServiceConfig& config) {
    exec::CompileOptions opts;
    opts.cache_dir = config.native_cache_dir;
    return opts;
}

/// Clamps the knobs and resolves defaults before any member consumes the
/// config (the compiler is constructed from it in the init list).
ServiceConfig normalize(ServiceConfig config) {
    if (config.workers < 1) config.workers = 1;
    if (config.retry.max_attempts < 1) config.retry.max_attempts = 1;
    if (config.retry.escalation < 1) config.retry.escalation = 1;
    if (config.exec_threads < 1) config.exec_threads = 1;
    // A persistent plan tier implies a persistent object tier: compiled
    // kernels live beside the plans unless the caller chose otherwise.
    if (config.native_cache_dir.empty() && !config.plan_store_dir.empty()) {
        config.native_cache_dir = config.plan_store_dir + "/objects";
    }
    return config;
}

}  // namespace

FusionService::FusionService(ServiceConfig config)
    : config_(normalize(std::move(config))),
      breakers_(config_.breaker),
      plan_cache_(config_.plan_cache_capacity, config_.plan_store_dir),
      native_compiler_(native_compile_options(config_)) {}

/// Shared tail of the two native_admit overloads: records the check into
/// the job record and the attempt trace; false = quarantine.
static bool record_native_check(const exec::NativeCheck& nc, JobRecord& rec,
                                AttemptRecord& att) {
    rec.native = nc.outcome;
    rec.native_detail = nc.detail;
    rec.native_ns_original = nc.ns_original;
    rec.native_ns_fused = nc.ns_fused;
    rec.native_from_cache = nc.from_cache;
    rec.native_par_threads = nc.par_threads;
    rec.native_par_tile = nc.par_tile;
    rec.native_ns_fused_par = nc.ns_fused_par;
    rec.native_source_bytes = nc.source_bytes;
    rec.native_compile_ns = nc.compile_ns;
    const bool failed = exec::is_native_failure(nc.outcome);
    att.stages.push_back(make_stage("admit.native",
                                    failed ? StatusCode::Internal : StatusCode::Ok,
                                    to_string(nc.outcome) +
                                        (nc.detail.empty() ? "" : ": " + nc.detail)));
    return !failed;
}

bool FusionService::native_admit(const JobSpec& job, const FusionPlan& plan, JobRecord& rec,
                                 AttemptRecord& att) {
    if (!config_.native_exec) return true;  // rec.native stays NotRun
    exec::NativeCheck nc;
    if (job.dsl_source.empty()) {
        nc.outcome = exec::NativeOutcome::Skipped;
        nc.detail = "graph-only job: no program to emit";
    } else {
        exec::SandboxLimits limits;
        limits.wall_ms = config_.native_wall_ms;
        exec::KernelParams params;
        params.threads = config_.exec_threads;
        params.tile = config_.exec_tile;
        params.serial_cutoff = config_.exec_serial_cutoff;
        try {
            const ir::Program p = ir::parse_program(job.dsl_source);
            nc = exec::native_check(p, plan, job.domain, native_compiler_, limits, params);
        } catch (const std::exception& e) {
            nc.outcome = exec::NativeOutcome::Error;
            nc.detail = std::string("kernel emission failed: ") + e.what();
        }
    }
    return record_native_check(nc, rec, att);
}

bool FusionService::native_admit_nd(const JobSpec& job, const NdFusionPlan& plan,
                                    JobRecord& rec, AttemptRecord& att) {
    if (!config_.native_exec) return true;
    exec::NativeCheck nc;
    if (job.dsl_source.empty()) {
        nc.outcome = exec::NativeOutcome::Skipped;
        nc.detail = "graph-only job: no program to emit";
    } else {
        exec::SandboxLimits limits;
        limits.wall_ms = config_.native_wall_ms;
        exec::KernelParams params;
        params.threads = config_.exec_threads;
        params.tile = config_.exec_tile;
        params.serial_cutoff = config_.exec_serial_cutoff;
        try {
            const auto p = front::parse_basic_program<VecN>(job.dsl_source);
            const exec::MdDomain dom{job.extents_nd};
            nc = exec::native_check_nd(p, plan, dom, native_compiler_, limits, params);
        } catch (const std::exception& e) {
            nc.outcome = exec::NativeOutcome::Error;
            nc.detail = std::string("kernel emission failed: ") + e.what();
        }
    }
    return record_native_check(nc, rec, att);
}

void FusionService::checkpoint_job(const JobRecord& rec) {
    if (config_.checkpoint_path.empty()) return;
    const std::lock_guard<std::mutex> lock(checkpoint_mutex_);
    if (!append_checkpoint(config_.checkpoint_path, rec)) {
        ++checkpoint_failures_;
        std::fprintf(stderr,
                     "svc: warning: checkpoint append failed for job '%s' (%s); "
                     "a resumed run will redo it\n",
                     rec.id.c_str(), config_.checkpoint_path.c_str());
    }
}

void FusionService::process_job(const JobSpec& job, JobRecord& rec, PlannerWorkspace& ws) {
    if (job.depth > 2) {
        process_job_nd(job, rec, ws);
        return;
    }
    const Clock::time_point t0 = Clock::now();
    rec.id = job.id;
    rec.klass = job.klass;
    rec.tenant = job.tenant;
    rec.depth = job.depth;
    rec.status = JobStatus::Running;

    const std::int64_t deadline_ms = effective_deadline_ms(config_.retry, job);

    // ---- Plan-cache admission decision (svc/plancache.hpp). ----
    // The fault points are consulted first so arming either is always
    // observable; each forces a bypass, as does ANY armed fault point: a
    // faulted run must exercise the real pipeline, and must never poison the
    // cache. The cache key is content-addressed, so two jobs with
    // structurally identical graphs share a plan regardless of their ids.
    const bool cache_fault = faultpoint::triggered("svc.plancache") ||
                             faultpoint::triggered("svc.plancache.disk");
    const bool cache_usable = config_.plan_cache_capacity > 0 && !cache_fault &&
                              faultpoint::armed_points().empty();
    rec.cache = CacheOutcome::Bypass;
    const std::uint64_t cache_key =
        cache_usable ? PlanCache::key_of(job.graph, plan_options(),
                                         /*allow_distribution_fallback=*/true)
                     : 0;

    auto finish = [&](JobStatus status, std::string reason) {
        rec.status = status;
        rec.quarantine_reason = std::move(reason);
        rec.total_budget_spent = 0;
        for (const auto& a : rec.attempts) rec.total_budget_spent += a.budget_spent;
        rec.wall_ms = ms_since(t0);
        // The acceptance contract: a quarantined job is diagnosable from its
        // trace. Every failure path records stages; belt-and-braces, never
        // leave an empty trace behind.
        if (status == JobStatus::Quarantined && !rec.attempts.empty() &&
            rec.attempts.back().stages.empty()) {
            rec.attempts.back().stages.push_back(
                make_stage("svc", rec.attempts.back().code, rec.attempts.back().detail));
        }
        checkpoint_job(rec);
    };

    for (int attempt = 1; attempt <= config_.retry.max_attempts; ++attempt) {
        AttemptRecord att;
        att.number = attempt;

        const AdmitMode mode = breakers_.admit(job.klass);
        att.short_circuited = mode == AdmitMode::Fallback;

        // Cache lookup, first non-short-circuited attempt only. A hit skips
        // the ladder but still re-certifies the plan against THIS job's
        // graph -- a corrupted or hash-colliding entry is invalidated and
        // the job replans cold instead of going out wrong.
        if (attempt == 1 && cache_usable && mode != AdmitMode::Fallback) {
            std::optional<FusionPlan> cached = plan_cache_.lookup(cache_key);
            if (cached.has_value()) {
                bool cert_ok = false;
                std::string cert_detail;
                try {
                    const PlanCertificate cert = certify_plan(job.graph, *cached);
                    cert_ok = cert.valid;
                    if (!cert.valid && !cert.violations.empty()) {
                        cert_detail = cert.violations.front();
                    }
                } catch (const std::exception& e) {
                    cert_detail = std::string("certifier aborted: ") + e.what();
                }
                if (cert_ok) {
                    rec.cache = CacheOutcome::Hit;
                    rec.algorithm = to_string(cached->algorithm);
                    rec.level = to_string(cached->level);
                    rec.certified = true;
                    // The differential replay ran when this entry was first
                    // admitted; a hit repeats only the certify check.
                    rec.replay = ReplayOutcome::Skipped;
                    att.stages.push_back(make_stage("svc.plancache", StatusCode::Ok, "cache hit"));
                    att.stages.push_back(make_stage("admit.certify", StatusCode::Ok, {}));
                    // Native admission still runs on a cache hit: the plan
                    // was verified when admitted, but this job's kernel may
                    // never have been compiled or run.
                    if (!native_admit(job, *cached, rec, att)) {
                        att.code = StatusCode::Internal;
                        att.detail = "native execution " + to_string(rec.native) + ": " +
                                     rec.native_detail;
                        const std::string why = att.detail;
                        rec.attempts.push_back(std::move(att));
                        breakers_.record(job.klass, mode, false);
                        finish(JobStatus::Quarantined, why);
                        return;
                    }
                    att.code = StatusCode::Ok;
                    rec.attempts.push_back(std::move(att));
                    breakers_.record(job.klass, mode, true);
                    finish(JobStatus::Verified, {});
                    return;
                }
                plan_cache_.invalidate(cache_key);
                att.stages.push_back(make_stage(
                    "svc.plancache", StatusCode::Internal,
                    "cached plan failed certify re-check; invalidated: " + cert_detail));
            }
            rec.cache = CacheOutcome::Miss;
        }

        TryPlanOptions opts;
        opts.plan = plan_options();
        opts.workspace = &ws;
        opts.limits.max_steps = escalated_steps(config_.retry, attempt);
        att.max_steps = opts.limits.max_steps;
        if (deadline_ms >= 0) {
            // Remaining share of the per-job deadline; 0 = already expired,
            // which the guard turns into a deterministic ResourceExhausted.
            const std::int64_t remaining = deadline_ms - ms_since(t0);
            opts.limits.max_wall_ms = remaining > 0 ? remaining : 0;
        }
        opts.distribution_only = mode == AdmitMode::Fallback;

        bool retryable = false;
        if (faultpoint::triggered("svc.plan")) {
            att.code = StatusCode::Internal;
            att.detail = "fault injected: svc.plan";
            att.stages.push_back(make_stage("svc.plan", StatusCode::Internal, "fault injected"));
            retryable = true;
            breakers_.record(job.klass, mode, false);
        } else {
            // try_plan_fusion is never-throwing by contract; the extra catch
            // is the service's own last line of defense (a worker must
            // survive anything a job does).
            std::optional<Result<FusionPlan>> result;
            try {
                result.emplace(try_plan_fusion(job.graph, opts));
            } catch (const std::exception& e) {
                att.code = StatusCode::Internal;
                att.detail = std::string("planner threw: ") + e.what();
                att.stages.push_back(make_stage("svc.plan", StatusCode::Internal, att.detail));
                retryable = true;
            }
            if (result.has_value() && result->ok()) {
                const FusionPlan& plan = result->value();
                att.stages.insert(att.stages.end(), plan.stages.begin(), plan.stages.end());
                rec.algorithm = to_string(plan.algorithm);
                rec.level = to_string(plan.level);
                GateResult gate = admit_plan(job, plan);
                rec.certified = gate.certified;
                rec.replay = gate.replay;
                for (auto& s : gate.stages) att.stages.push_back(std::move(s));
                att.budget_spent = stage_budget_sum(plan.stages);
                if (gate.admitted) {
                    if (!native_admit(job, plan, rec, att)) {
                        // A contained native failure is a terminal verdict
                        // on this plan, not a transient fault: quarantine,
                        // and keep the plan out of the cache.
                        att.code = StatusCode::Internal;
                        att.detail = "native execution " + to_string(rec.native) + ": " +
                                     rec.native_detail;
                        const std::string why = att.detail;
                        rec.attempts.push_back(std::move(att));
                        breakers_.record(job.klass, mode, false);
                        finish(JobStatus::Quarantined, why);
                        return;
                    }
                    att.code = StatusCode::Ok;
                    const bool cacheable =
                        rec.cache == CacheOutcome::Miss && mode != AdmitMode::Fallback;
                    rec.attempts.push_back(std::move(att));
                    breakers_.record(job.klass, mode, true);
                    // Memoize only fully admitted plans, and only when the
                    // cache was actually consulted (a bypassed job -- fault
                    // armed, distribution-only -- must not write either).
                    if (cacheable) plan_cache_.insert(cache_key, plan);
                    finish(JobStatus::Verified, {});
                    return;
                }
                att.code = StatusCode::Internal;
                att.detail = gate.detail;
                retryable = gate.retryable;
                breakers_.record(job.klass, mode, false);
            } else if (result.has_value()) {
                const Status& st = result->status();
                att.code = st.code();
                att.detail = st.message();
                att.stages.insert(att.stages.end(), st.stages.begin(), st.stages.end());
                att.budget_spent = stage_budget_sum(st.stages);
                retryable = retryable_code(st.code());
                breakers_.record(job.klass, mode, false);
            } else {
                breakers_.record(job.klass, mode, false);
            }
        }

        const std::string fail_detail =
            "attempt " + std::to_string(attempt) + ": " + att.detail;
        rec.attempts.push_back(std::move(att));

        const bool deadline_left = deadline_ms < 0 || ms_since(t0) < deadline_ms;
        if (!retryable || attempt == config_.retry.max_attempts || !deadline_left) {
            finish(JobStatus::Quarantined, fail_detail);
            return;
        }
    }
    // Unreachable: every loop path returns; keep the record terminal anyway.
    finish(JobStatus::Quarantined, "no attempt reached a verdict");
}

void FusionService::process_job_nd(const JobSpec& job, JobRecord& rec, PlannerWorkspace& ws) {
    const Clock::time_point t0 = Clock::now();
    rec.id = job.id;
    rec.klass = job.klass;
    rec.tenant = job.tenant;
    rec.depth = job.depth;
    rec.status = JobStatus::Running;

    const std::int64_t deadline_ms = effective_deadline_ms(config_.retry, job);

    // Same cache admission rules as the 2-D path; key_of_nd folds the graph
    // dimension in first, so a depth-d key can never collide by construction
    // with a structurally-similar 2-D job's key.
    const bool cache_fault = faultpoint::triggered("svc.plancache") ||
                             faultpoint::triggered("svc.plancache.disk");
    const bool cache_usable = config_.plan_cache_capacity > 0 && !cache_fault &&
                              faultpoint::armed_points().empty();
    rec.cache = CacheOutcome::Bypass;
    const std::uint64_t cache_key =
        cache_usable ? PlanCache::key_of_nd(job.graph_nd, plan_options(),
                                            /*allow_distribution_fallback=*/true)
                     : 0;

    auto finish = [&](JobStatus status, std::string reason) {
        rec.status = status;
        rec.quarantine_reason = std::move(reason);
        rec.total_budget_spent = 0;
        for (const auto& a : rec.attempts) rec.total_budget_spent += a.budget_spent;
        rec.wall_ms = ms_since(t0);
        if (status == JobStatus::Quarantined && !rec.attempts.empty() &&
            rec.attempts.back().stages.empty()) {
            rec.attempts.back().stages.push_back(
                make_stage("svc", rec.attempts.back().code, rec.attempts.back().detail));
        }
        checkpoint_job(rec);
    };

    for (int attempt = 1; attempt <= config_.retry.max_attempts; ++attempt) {
        AttemptRecord att;
        att.number = attempt;
        att.max_steps = escalated_steps(config_.retry, attempt);

        const AdmitMode mode = breakers_.admit(job.klass);
        att.short_circuited = mode == AdmitMode::Fallback;

        if (attempt == 1 && cache_usable && mode != AdmitMode::Fallback) {
            std::optional<NdFusionPlan> cached = plan_cache_.lookup_nd(cache_key);
            if (cached.has_value()) {
                bool cert_ok = false;
                std::string cert_detail;
                try {
                    const PlanCertificate cert = certify_plan(job.graph_nd, *cached);
                    cert_ok = cert.valid;
                    if (!cert.valid && !cert.violations.empty()) {
                        cert_detail = cert.violations.front();
                    }
                } catch (const std::exception& e) {
                    cert_detail = std::string("certifier aborted: ") + e.what();
                }
                if (cert_ok) {
                    rec.cache = CacheOutcome::Hit;
                    rec.algorithm = nd_algorithm_string(cached->level);
                    rec.level = nd_level_string(cached->level);
                    rec.certified = true;
                    rec.replay = ReplayOutcome::Skipped;
                    att.stages.push_back(make_stage("svc.plancache", StatusCode::Ok, "cache hit"));
                    att.stages.push_back(make_stage("admit.certify", StatusCode::Ok, {}));
                    if (!native_admit_nd(job, *cached, rec, att)) {
                        att.code = StatusCode::Internal;
                        att.detail = "native execution " + to_string(rec.native) + ": " +
                                     rec.native_detail;
                        const std::string why = att.detail;
                        rec.attempts.push_back(std::move(att));
                        breakers_.record(job.klass, mode, false);
                        finish(JobStatus::Quarantined, why);
                        return;
                    }
                    att.code = StatusCode::Ok;
                    rec.attempts.push_back(std::move(att));
                    breakers_.record(job.klass, mode, true);
                    finish(JobStatus::Verified, {});
                    return;
                }
                plan_cache_.invalidate(cache_key);
                att.stages.push_back(make_stage(
                    "svc.plancache", StatusCode::Internal,
                    "cached plan failed certify re-check; invalidated: " + cert_detail));
            }
            rec.cache = CacheOutcome::Miss;
        }

        bool retryable = false;
        if (faultpoint::triggered("svc.plan")) {
            att.code = StatusCode::Internal;
            att.detail = "fault injected: svc.plan";
            att.stages.push_back(make_stage("svc.plan", StatusCode::Internal, "fault injected"));
            retryable = true;
            breakers_.record(job.klass, mode, false);
        } else if (mode == AdmitMode::Fallback) {
            // Loop distribution is a 2-D construction; depth-d jobs have no
            // degraded mode, so an open breaker fails the attempt outright
            // (with a trace) instead of pretending to fall back.
            att.code = StatusCode::Internal;
            att.detail = "breaker open: no distribution fallback for depth-" +
                         std::to_string(job.depth) + " jobs";
            att.stages.push_back(make_stage("svc.plan", StatusCode::Internal, att.detail));
            breakers_.record(job.klass, mode, false);
        } else {
            std::optional<NdFusionPlan> plan;
            try {
                plan.emplace(plan_fusion_nd(job.graph_nd, &ws, config_.plan_policy));
            } catch (const std::exception& e) {
                // Unschedulable graph, solver fault, or guard trip -- the
                // N-D planner reports all of them by throwing; treat as the
                // 2-D "planner threw" case (Internal, retryable).
                att.code = StatusCode::Internal;
                att.detail = std::string("planner threw: ") + e.what();
                att.stages.push_back(make_stage("svc.plan", StatusCode::Internal, att.detail));
                retryable = true;
                breakers_.record(job.klass, mode, false);
            }
            if (plan.has_value()) {
                att.stages.push_back(make_stage("plan_fusion_nd", StatusCode::Ok, {}));
                rec.algorithm = nd_algorithm_string(plan->level);
                rec.level = nd_level_string(plan->level);
                GateResult gate = admit_plan_nd(job, *plan);
                rec.certified = gate.certified;
                rec.replay = gate.replay;
                for (auto& s : gate.stages) att.stages.push_back(std::move(s));
                if (gate.admitted) {
                    if (!native_admit_nd(job, *plan, rec, att)) {
                        att.code = StatusCode::Internal;
                        att.detail = "native execution " + to_string(rec.native) + ": " +
                                     rec.native_detail;
                        const std::string why = att.detail;
                        rec.attempts.push_back(std::move(att));
                        breakers_.record(job.klass, mode, false);
                        finish(JobStatus::Quarantined, why);
                        return;
                    }
                    att.code = StatusCode::Ok;
                    const bool cacheable = rec.cache == CacheOutcome::Miss;
                    rec.attempts.push_back(std::move(att));
                    breakers_.record(job.klass, mode, true);
                    if (cacheable) plan_cache_.insert_nd(cache_key, *plan);
                    finish(JobStatus::Verified, {});
                    return;
                }
                att.code = StatusCode::Internal;
                att.detail = gate.detail;
                retryable = gate.retryable;
                breakers_.record(job.klass, mode, false);
            }
        }

        const std::string fail_detail =
            "attempt " + std::to_string(attempt) + ": " + att.detail;
        rec.attempts.push_back(std::move(att));

        const bool deadline_left = deadline_ms < 0 || ms_since(t0) < deadline_ms;
        if (!retryable || attempt == config_.retry.max_attempts || !deadline_left) {
            finish(JobStatus::Quarantined, fail_detail);
            return;
        }
    }
    finish(JobStatus::Quarantined, "no attempt reached a verdict");
}

RunReport FusionService::run(const std::vector<JobSpec>& jobs) {
    const Clock::time_point t0 = Clock::now();
    checkpoint_failures_ = 0;

    {
        std::unordered_set<std::string> ids;
        for (const auto& job : jobs) {
            check(ids.insert(job.id).second,
                  [&] { return "FusionService: duplicate job id '" + job.id + "'"; });
        }
    }

    RunReport report;
    report.config = config_;
    report.jobs.assign(jobs.size(), JobRecord{});

    // Restore verified jobs from the checkpoint manifest.
    if (!config_.checkpoint_path.empty()) {
        std::unordered_map<std::string, CheckpointEntry> done;
        int malformed = 0;
        for (auto& e : load_checkpoint(config_.checkpoint_path, &malformed)) {
            if (e.status == JobStatus::Verified) done[e.id] = std::move(e);
        }
        report.checkpoint_malformed = malformed;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const auto it = done.find(jobs[i].id);
            if (it == done.end()) continue;
            JobRecord& rec = report.jobs[i];
            rec.id = jobs[i].id;
            rec.klass = jobs[i].klass;
            rec.tenant = jobs[i].tenant;
            rec.depth = jobs[i].depth;
            rec.status = JobStatus::Verified;
            rec.algorithm = it->second.algorithm;
            rec.from_checkpoint = true;
        }
    }

    std::atomic<std::size_t> next{0};
    const int nworkers = std::min<int>(config_.workers, static_cast<int>(jobs.size()));
    auto worker = [&]() {
        // One solver arena per worker thread: every job this thread plans
        // reuses the same scratch buffers, so steady-state planning is
        // allocation-free (see graph/solver_workspace.hpp).
        PlannerWorkspace ws;
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= jobs.size()) return;
            if (report.jobs[i].from_checkpoint) continue;
            process_job(jobs[i], report.jobs[i], ws);
        }
    };

    if (nworkers <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(static_cast<std::size_t>(nworkers));
        for (int t = 0; t < nworkers; ++t) pool.emplace_back(worker);
        for (auto& t : pool) t.join();
    }

    report.breakers = breakers_.snapshot();
    report.checkpoint_failures = checkpoint_failures_;
    report.plancache = plan_cache_.stats();
    report.plancache_size = plan_cache_.size();
    report.exec_compile = native_compiler_.stats();
    report.wall_ms = ms_since(t0);
    return report;
}

}  // namespace lf::svc
