#include "svc/manifest.hpp"

#include <iterator>

#include "analysis/dependence.hpp"
#include "front/parse.hpp"
#include "ir/parser.hpp"
#include "ldg/serialization.hpp"
#include "support/diagnostics.hpp"
#include "workloads/extra.hpp"
#include "workloads/gallery.hpp"
#include "workloads/sources.hpp"

namespace lf::svc {

namespace {

void validate_id(const std::string& id) {
    check(!id.empty(), "svc manifest: job id must not be empty");
    check(id.find_first_of(" \t\n\r") == std::string::npos,
          [&] { return "svc manifest: job id '" + id + "' must not contain whitespace"; });
}

}  // namespace

std::vector<JobSpec> gallery_jobs(const Domain& domain) {
    std::vector<JobSpec> jobs;
    for (const auto& w : workloads::paper_workloads()) {
        JobSpec job;
        job.id = w.id;
        job.klass = "paper";
        job.graph = w.graph;
        job.dsl_source = w.dsl_source;
        job.domain = domain;
        validate_id(job.id);
        jobs.push_back(std::move(job));
    }
    return jobs;
}

std::vector<JobSpec> extra_jobs(const Domain& domain) {
    std::vector<JobSpec> jobs;
    for (const auto& w : workloads::extra_workloads()) {
        JobSpec job;
        job.id = w.id;
        job.klass = "extra";
        job.graph = analysis::build_mldg(ir::parse_program(w.dsl_source));
        job.dsl_source = w.dsl_source;
        job.domain = domain;
        validate_id(job.id);
        jobs.push_back(std::move(job));
    }
    return jobs;
}

std::vector<JobSpec> full_gallery_jobs(const Domain& domain) {
    std::vector<JobSpec> jobs = gallery_jobs(domain);
    std::vector<JobSpec> extra = extra_jobs(domain);
    jobs.insert(jobs.end(), std::make_move_iterator(extra.begin()),
                std::make_move_iterator(extra.end()));
    return jobs;
}

std::vector<JobSpec> nd_jobs() {
    std::vector<JobSpec> jobs;
    const auto add = [&jobs](const char* id, std::string_view source,
                             std::vector<std::int64_t> extents) {
        JobSpec job;
        job.id = id;
        job.klass = "nd";
        const auto p = front::parse_basic_program<VecN>(source);
        job.depth = p.dim;
        job.graph_nd = analysis::build_mldg_nd(p);
        job.dsl_source = std::string(source);
        job.extents_nd = std::move(extents);
        validate_id(job.id);
        jobs.push_back(std::move(job));
    };
    add("volume3d", workloads::sources::kVolume3d, {6, 5, 7});
    add("hyper4d", workloads::sources::kHyper4d, {3, 3, 3, 4});
    return jobs;
}

JobSpec job_from_mldg_text(const std::string& id, std::string_view text,
                           const std::string& klass) {
    validate_id(id);
    JobSpec job;
    job.id = id;
    job.klass = klass;
    job.graph = parse_mldg(text);
    return job;
}

JobSpec job_from_dsl_text(const std::string& id, const std::string& source,
                          const std::string& klass, const Domain& domain) {
    validate_id(id);
    JobSpec job;
    job.id = id;
    job.klass = klass;
    // The unified front end accepts any depth: a 2-D source fills the
    // classic fields, a depth-d source the N-D ones (small default extents
    // keep the replay cheap).
    const front::AnyProgram any = front::parse_any_program(source);
    if (any.is_2d()) {
        job.graph = analysis::build_mldg(*any.p2);
        job.domain = domain;
    } else {
        job.depth = any.pn->dim;
        job.graph_nd = analysis::build_mldg_nd(*any.pn);
        job.extents_nd.assign(static_cast<std::size_t>(any.pn->dim), 6);
    }
    job.dsl_source = source;
    return job;
}

}  // namespace lf::svc
