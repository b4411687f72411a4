// lf_perfbench: the repository benchmark driver (see perfbench/README.md).
//
//   lf_perfbench --workload hit-dsl|miss-dsl|miss-graph|native --seed N
//                --seconds S --trace 0|1 --server PATH --work DIR [--spans FILE]
//
// One seed generates every input before timing starts. Served workloads
// drive the example_fusion_server binary over loopback, closed loop, from
// this one process (min(4, nproc) connections, --workers 4); the native
// workload takes kernels through exec::native_check and then re-runs the
// compiled objects in the sandbox. With --trace 1 the same seeded inputs are
// replayed single-threaded through each layer's public functions, with spans
// recorded by this file around every call, and the per-layer split is
// printed instead of the end-to-end metrics.
//
// The last line of stdout is one JSON object:
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {...}}
// Exit code 0 when every output check passed (or native was skipped for
// want of a C compiler), 1 when one failed, 2 on bad arguments.

#include <signal.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "analysis/dependence.hpp"
#include "exec/compile.hpp"
#include "exec/engines.hpp"
#include "exec/engines_nd.hpp"
#include "exec/equivalence.hpp"
#include "exec/native.hpp"
#include "exec/runner.hpp"
#include "exec/store.hpp"
#include "exec/store_nd.hpp"
#include "front/parse.hpp"
#include "fusion/certify.hpp"
#include "fusion/driver.hpp"
#include "fusion/ladder.hpp"
#include "fusion/multidim.hpp"
#include "graph/solver_workspace.hpp"
#include "ir/parser.hpp"
#include "ldg/serialization.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "support/cemit.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "svc/job.hpp"
#include "svc/plancache.hpp"
#include "svc/report.hpp"
#include "svc/service.hpp"
#include "transform/codegen_c.hpp"
#include "transform/codegen_nd.hpp"
#include "transform/distribution.hpp"
#include "transform/fused_program.hpp"
#include "workloads/generators.hpp"
#include "workloads/sources.hpp"

namespace {

using namespace lf;
using Clock = std::chrono::steady_clock;

// ---- Fixed workload parameters -------------------------------------------
// The server runs with its defaults except for these (README.md explains
// each choice).
constexpr int kServerWorkers = 4;
constexpr int kMaxConnections = 4;
constexpr std::size_t kHitRandomPrograms = 26;  // + 6 gallery = 32 < 128-plan cache
constexpr std::size_t kMissDslPool = 20000;     // distinct programs, > 128-plan cache
constexpr std::size_t kPersistRequests = 1000;  // traced --store/--checkpoint pass
constexpr std::size_t kMissGraphPool = 4000;    // distinct graphs, > 128-plan cache
constexpr int kServedSetups = 5;
constexpr std::size_t kWindowResponses = 1000;  // responses per statistics window
constexpr std::size_t kHitReplay = 3000;
constexpr std::size_t kMissReplay = 1000;
constexpr int kRecvTimeoutMs = 60'000;

std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
        .count();
}

double seconds_since(std::int64_t t0) { return static_cast<double>(now_ns() - t0) * 1e-9; }

/// Nearest-rank percentile (q in (0, 1]) of an unsorted sample.
double percentile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double geomean(const std::vector<double>& v) {
    if (v.empty()) return 0.0;
    double log_sum = 0.0;
    for (const double x : v) log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(v.size()));
}

/// Peak resident set of `pid` (VmHWM from /proc/<pid>/status) in KiB.
long vm_hwm_kb(const std::string& pid) {
    std::ifstream in("/proc/" + pid + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) return std::strtol(line.c_str() + 6, nullptr, 10);
    }
    return 0;
}

/// The string value of `"key": "..."` in the server's response JSON.
std::string json_field(const std::string& text, const std::string& key) {
    const std::string needle = "\"" + key + "\": \"";
    const std::size_t at = text.find(needle);
    if (at == std::string::npos) return {};
    const std::size_t begin = at + needle.size();
    const std::size_t end = text.find('"', begin);
    return end == std::string::npos ? std::string() : text.substr(begin, end - begin);
}

// ---- Result sheet ----------------------------------------------------------

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// Everything the run reports: output-check verdict, tallies, metrics.
struct Sheet {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    std::vector<std::string> notes;  // first failures, for stderr

    void fail(const std::string& why) {
        correct = false;
        if (notes.size() < 8) notes.push_back(why);
    }
    void add(const std::string& name, double value, const std::string& unit) {
        metrics.push_back({name, value, unit});
    }
    /// The result line. Values keep all their digits (%.17g); the
    /// library's json::Writer rounds doubles to three places.
    [[nodiscard]] std::string json() const {
        std::string out = "{\"correct\": " + std::string(correct ? "true" : "false") +
                          ", \"attempted\": " + std::to_string(attempted) +
                          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
        for (std::size_t i = 0; i < metrics.size(); ++i) {
            char value[64];
            std::snprintf(value, sizeof value, "%.17g", std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
            out += (i == 0 ? "\"" : ", \"") + json::escape(metrics[i].name) + "\": {\"value\": " +
                   value + ", \"unit\": \"" + json::escape(metrics[i].unit) + "\"}";
        }
        return out + "}}";
    }
};

// ---- Spans -----------------------------------------------------------------
// Recorded only by this file, around calls into the library. Kept in memory
// and written out when the run ends. A span's self time is its duration
// minus the durations of its direct children (spans nest strictly: the
// replay is single-threaded).

struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    std::int64_t request = 0;
};

class Tracer {
  public:
    explicit Tracer(bool recording) : recording_(recording) {
        if (recording_) spans_.reserve(1 << 16);
    }

    int open(const char* name) {
        if (!recording_) return -1;
        spans_.push_back({name, now_ns(), 0, current_, request_});
        current_ = static_cast<int>(spans_.size()) - 1;
        return current_;
    }
    void close(int idx) {
        if (idx < 0) return;
        spans_[static_cast<std::size_t>(idx)].end_ns = now_ns();
        current_ = spans_[static_cast<std::size_t>(idx)].parent;
    }
    void set_request(std::int64_t id) { request_ = id; }
    void clear() { spans_.clear(); }

    /// Per request: summed self time (ns) of every span name. The root span
    /// of each request is named "request".
    [[nodiscard]] std::map<std::int64_t, std::map<std::string, double>> self_times() const {
        std::vector<double> child(spans_.size(), 0.0);
        for (const Span& s : spans_) {
            if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += double(s.end_ns - s.start_ns);
        }
        std::map<std::int64_t, std::map<std::string, double>> out;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            out[s.request][s.name] += double(s.end_ns - s.start_ns) - child[i];
        }
        return out;
    }

    /// One JSON object per line: `header` (unless appending), then spans.
    bool write(const std::string& path, const std::string& header, bool append = false) const {
        std::ofstream out(path, append ? std::ios::app : std::ios::trunc);
        if (!append) out << header << '\n';
        for (const Span& s : spans_) {
            out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
                << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
                << ",\"request\":" << s.request << "}\n";
        }
        return out.good();
    }

  private:
    bool recording_;
    std::vector<Span> spans_;
    int current_ = -1;
    std::int64_t request_ = 0;
};

class SpanScope {
  public:
    SpanScope(Tracer& t, const char* name) : t_(t), idx_(t.open(name)) {}
    ~SpanScope() { t_.close(idx_); }
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

  private:
    Tracer& t_;
    int idx_;
};

/// Median over requests of each layer's per-request self time, in ns.
/// Requests that never entered a layer count as 0 for it.
std::map<std::string, double> layer_medians(const Tracer& tracer,
                                            const std::vector<std::string>& layers) {
    const auto per_request = tracer.self_times();
    std::map<std::string, double> out;
    for (const std::string& layer : layers) {
        std::vector<double> v;
        for (const auto& [id, by_name] : per_request) {
            const auto it = by_name.find(layer);
            v.push_back(it == by_name.end() ? 0.0 : it->second);
        }
        out[layer] = median(v);
    }
    return out;
}

// ---- Seeded inputs -----------------------------------------------------------

struct Payload {
    std::string bytes;
    net::PayloadKind kind = net::PayloadKind::Dsl;
    std::string gallery;  // gallery name, empty for generated inputs
};

struct GallerySource {
    const char* name;
    std::string_view source;
};

const GallerySource kGallery[] = {
    {"fig2", workloads::sources::kFig2},         {"fig8", workloads::sources::kFig8},
    {"jacobi", workloads::sources::kJacobiPair}, {"iir", workloads::sources::kIirChain},
    {"volume3d", workloads::sources::kVolume3d}, {"hyper4d", workloads::sources::kHyper4d},
};

/// The paper's Section-5 outcomes for the 2-D gallery (algorithm, level).
std::optional<std::pair<std::string, std::string>> expected_outcome(const std::string& name) {
    const std::string inner = to_string(ParallelismLevel::InnerDoall);
    if (name == "fig8") return std::make_pair(to_string(AlgorithmUsed::AcyclicDoall), inner);
    if (name == "fig2" || name == "jacobi") {
        return std::make_pair(to_string(AlgorithmUsed::CyclicDoall), inner);
    }
    if (name == "iir") {
        return std::make_pair(to_string(AlgorithmUsed::Hyperplane),
                              to_string(ParallelismLevel::Hyperplane));
    }
    return std::nullopt;
}

std::string random_dsl(Rng& rng, int loops) {
    workloads::RandomProgramOptions o;
    o.num_loops = loops;
    return workloads::random_program(rng, o).str();
}

/// `count` distinct random programs of 4-12 loops.
std::vector<Payload> random_dsl_payloads(Rng& rng, std::size_t count) {
    std::vector<Payload> out;
    std::set<std::string> seen;
    while (out.size() < count) {
        std::string text = random_dsl(rng, static_cast<int>(rng.uniform(4, 12)));
        if (seen.insert(text).second) out.push_back({std::move(text), net::PayloadKind::Dsl, {}});
    }
    return out;
}

std::vector<Payload> hit_pool(Rng& rng) {
    std::vector<Payload> pool;
    for (const GallerySource& g : kGallery) {
        pool.push_back({std::string(g.source), net::PayloadKind::Dsl, g.name});
    }
    for (Payload& p : random_dsl_payloads(rng, kHitRandomPrograms)) pool.push_back(std::move(p));
    return pool;
}

/// `count` distinct serialized random legal MLDGs of 32-160 nodes.
std::vector<Payload> random_graph_payloads(Rng& rng, std::size_t count) {
    std::vector<Payload> out;
    std::set<std::string> seen;
    while (out.size() < count) {
        workloads::RandomGraphOptions o;
        o.num_nodes = static_cast<int>(rng.uniform(32, 160));
        o.forward_edge_prob = 4.0 / o.num_nodes;
        o.backward_edge_prob = 1.0 / o.num_nodes;
        o.self_edge_prob = 0.2;
        std::string text = serialize_mldg(workloads::random_legal_mldg(rng, o), "g");
        if (seen.insert(text).second) out.push_back({std::move(text), net::PayloadKind::Mldg, {}});
    }
    return out;
}

// ---- The served path: server process + closed-loop client ------------------

/// example_fusion_server as a child process, stdout/stderr into `dir`.
class ServerProcess {
  public:
    ServerProcess() = default;
    ~ServerProcess() {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            int status = 0;
            ::waitpid(pid_, &status, 0);
        }
    }
    ServerProcess(const ServerProcess&) = delete;
    ServerProcess& operator=(const ServerProcess&) = delete;

    /// Spawns the server and waits until it answers a ping.
    bool start(const std::string& exe, const std::string& dir, std::string* err) {
        const std::string port_file = dir + "/port";
        std::vector<std::string> args = {exe, "--port", "0", "--port-file", port_file,
                                         "--workers", std::to_string(kServerWorkers)};
        std::vector<char*> argv;
        for (std::string& a : args) argv.push_back(a.data());
        argv.push_back(nullptr);
        const std::string out_path = dir + "/stdout";
        const std::string err_path = dir + "/stderr";
        pid_ = ::fork();
        if (pid_ < 0) {
            *err = std::string("fork: ") + std::strerror(errno);
            return false;
        }
        if (pid_ == 0) {
            const int out = ::open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
            const int er = ::open(err_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
            if (out >= 0) ::dup2(out, 1);
            if (er >= 0) ::dup2(er, 2);
            ::execv(argv[0], argv.data());
            ::_exit(127);
        }
        const std::int64_t deadline = now_ns() + std::int64_t{20} * 1'000'000'000;
        while (now_ns() < deadline) {
            int status = 0;
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                *err = "server exited during start-up (see " + err_path + ")";
                return false;
            }
            std::ifstream in(port_file);
            std::string line;
            if (std::getline(in, line) && !line.empty() && in.good()) {
                port_ = static_cast<std::uint16_t>(std::stoi(line));
                break;
            }
            std::this_thread::sleep_for(std::chrono::microseconds(500));
        }
        if (port_ == 0) {
            *err = "server did not publish its port";
            return false;
        }
        net::BlockingClient probe;
        if (!probe.connect("127.0.0.1", port_)) {
            *err = "connect: " + probe.last_error();
            return false;
        }
        net::Frame ping;
        ping.type = net::FrameType::Ping;
        ping.request_id = 1;
        const auto pong = probe.send(ping) ? probe.recv(kRecvTimeoutMs) : net::BlockingClient::Recv{};
        if (pong.status != net::BlockingClient::RecvStatus::Ok ||
            pong.frame.type != net::FrameType::Pong) {
            *err = "server did not answer a ping";
            return false;
        }
        return true;
    }

    [[nodiscard]] std::uint16_t port() const { return port_; }
    [[nodiscard]] long peak_rss_kb() const { return pid_ > 0 ? vm_hwm_kb(std::to_string(pid_)) : 0; }

    /// SIGTERM, then wait for a clean exit (SIGKILL after 20 s).
    bool stop() {
        if (pid_ <= 0) return false;
        ::kill(pid_, SIGTERM);
        int status = 0;
        const std::int64_t deadline = now_ns() + std::int64_t{20} * 1'000'000'000;
        while (::waitpid(pid_, &status, WNOHANG) == 0) {
            if (now_ns() > deadline) {
                ::kill(pid_, SIGKILL);
                ::waitpid(pid_, &status, 0);
                pid_ = -1;
                return false;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        pid_ = -1;
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }

  private:
    pid_t pid_ = -1;
    std::uint16_t port_ = 0;
};

/// Client-side tallies of one closed-loop phase.
struct LoadTally {
    std::vector<double> latency_ms;
    std::vector<double> done_s;  // completion time of each sample, from phase start
    std::uint64_t attempted = 0;
    std::uint64_t verified = 0;
    std::uint64_t hits = 0;
    std::uint64_t quarantined = 0;
    std::uint64_t typed_errors = 0;
    std::uint64_t sheds = 0;
    std::uint64_t transport = 0;
    std::uint64_t wrong_outcome = 0;
    double seconds = 0.0;
    std::string first_problem;

    [[nodiscard]] std::uint64_t failed() const { return attempted - verified; }

    void merge(const LoadTally& o) {
        latency_ms.insert(latency_ms.end(), o.latency_ms.begin(), o.latency_ms.end());
        done_s.insert(done_s.end(), o.done_s.begin(), o.done_s.end());
        attempted += o.attempted;
        verified += o.verified;
        hits += o.hits;
        quarantined += o.quarantined;
        typed_errors += o.typed_errors;
        sheds += o.sheds;
        transport += o.transport;
        wrong_outcome += o.wrong_outcome;
        if (first_problem.empty()) first_problem = o.first_problem;
    }
};

/// Sends payloads[i % size] for i = first, first+1, ... over `conns`
/// connections, each waiting for its reply before sending again, until
/// `count` requests went out (count > 0) or `seconds` elapsed.
LoadTally drive(std::uint16_t port, const std::vector<Payload>& payloads, int conns,
                std::size_t count, double seconds) {
    std::vector<std::unique_ptr<net::BlockingClient>> clients;
    LoadTally total;
    for (int c = 0; c < conns; ++c) {
        auto client = std::make_unique<net::BlockingClient>();
        if (!client->connect("127.0.0.1", port)) {
            ++total.attempted;
            ++total.transport;
            total.first_problem = "connect: " + client->last_error();
            return total;
        }
        clients.push_back(std::move(client));
    }
    std::atomic<std::size_t> next{0};
    std::vector<LoadTally> tallies(static_cast<std::size_t>(conns));
    const std::int64_t t0 = now_ns();
    const std::int64_t deadline = t0 + static_cast<std::int64_t>(seconds * 1e9);
    auto loop = [&](std::size_t c) {
        LoadTally& t = tallies[c];
        net::BlockingClient& client = *clients[c];
        auto problem = [&t](const std::string& what) {
            if (t.first_problem.empty()) t.first_problem = what;
        };
        for (;;) {
            if (count == 0 && now_ns() >= deadline) return;
            const std::size_t i = next.fetch_add(1);
            if (count > 0 && i >= count) return;
            const Payload& p = payloads[i % payloads.size()];
            net::Frame req;
            req.type = net::FrameType::Request;
            req.aux = static_cast<std::uint16_t>(p.kind);
            req.request_id = i + 1;
            req.tenant = "bench";
            req.payload = p.bytes;
            ++t.attempted;
            const std::int64_t sent = now_ns();
            if (!client.send(req)) {
                ++t.transport;
                problem("send: " + client.last_error());
                return;
            }
            const net::BlockingClient::Recv r = client.recv(kRecvTimeoutMs);
            const std::int64_t done = now_ns();
            t.latency_ms.push_back(double(done - sent) * 1e-6);
            t.done_s.push_back(double(done - t0) * 1e-9);
            if (r.status != net::BlockingClient::RecvStatus::Ok) {
                ++t.transport;
                problem("recv: " + net::to_string(r.status));
                return;
            }
            const net::Frame& f = r.frame;
            if (f.type == net::FrameType::Shed) {
                ++t.sheds;
                problem("shed: " + net::to_string(static_cast<net::ShedReason>(f.aux)));
                continue;
            }
            if (f.type == net::FrameType::Error) {
                ++t.typed_errors;
                problem("error frame: " + f.payload);
                continue;
            }
            if (f.type != net::FrameType::Response || f.request_id != req.request_id) {
                ++t.transport;
                problem("unexpected frame");
                return;
            }
            if (f.aux != 1 || json_field(f.payload, "status") != "verified") {
                ++t.quarantined;
                problem("not verified: " + f.payload);
                continue;
            }
            ++t.verified;
            if (json_field(f.payload, "cache") == "hit") ++t.hits;
            if (const auto want = expected_outcome(p.gallery)) {
                if (json_field(f.payload, "algorithm") != want->first ||
                    json_field(f.payload, "level") != want->second) {
                    ++t.wrong_outcome;
                    problem(p.gallery + ": got " + json_field(f.payload, "algorithm") + " / " +
                            json_field(f.payload, "level"));
                }
            }
        }
    };
    std::vector<std::thread> threads;
    for (int c = 0; c < conns; ++c) threads.emplace_back(loop, static_cast<std::size_t>(c));
    for (std::thread& th : threads) th.join();
    total.seconds = seconds_since(t0);
    for (const LoadTally& t : tallies) total.merge(t);
    return total;
}

/// Rate and latency percentiles of one stretch of a timed phase.
struct Window {
    double rps = 0.0;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
};

/// Splits a phase into windows of `size` consecutive responses (by
/// completion time; a trailing partial window is dropped unless it is the
/// only one), so each window's p99 has at least ten samples beyond it.
std::vector<Window> windows_of(const LoadTally& t, std::size_t size) {
    std::vector<std::size_t> order(t.latency_ms.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return t.done_s[a] < t.done_s[b]; });
    std::vector<Window> out;
    double start = 0.0;
    for (std::size_t begin = 0; begin < order.size(); begin += size) {
        const std::size_t end = std::min(order.size(), begin + size);
        if (end - begin < size && !out.empty()) break;
        std::vector<double> lat;
        for (std::size_t k = begin; k < end; ++k) lat.push_back(t.latency_ms[order[k]]);
        const double stop = t.done_s[order[end - 1]];
        out.push_back({double(end - begin) / (stop - start), percentile(lat, 0.50),
                       percentile(lat, 0.99)});
        start = stop;
    }
    return out;
}

/// The quietest window's figures: the highest rate and the lowest p50 and
/// p99 over the run's windows. On a shared host, outside load only ever
/// slows a window down, so the least disturbed one is the steadiest
/// estimate of what the code costs (min-of-N over windows).
Window quietest(const std::vector<Window>& windows) {
    Window best = windows.empty() ? Window{} : windows.front();
    for (const Window& w : windows) {
        best.rps = std::max(best.rps, w.rps);
        best.p50_ms = std::min(best.p50_ms, w.p50_ms);
        best.p99_ms = std::min(best.p99_ms, w.p99_ms);
    }
    return best;
}

void account(Sheet& sheet, const LoadTally& t, const std::string& phase) {
    sheet.attempted += t.attempted;
    sheet.failed += t.failed();
    if (t.failed() != 0 || t.wrong_outcome != 0) {
        sheet.fail(phase + ": " + std::to_string(t.failed()) + " of " + std::to_string(t.attempted) +
                   " not verified (" + std::to_string(t.quarantined) + " quarantined, " +
                   std::to_string(t.typed_errors) + " typed errors, " + std::to_string(t.sheds) +
                   " sheds, " + std::to_string(t.transport) + " transport), " +
                   std::to_string(t.wrong_outcome) + " wrong gallery outcomes; first: " +
                   t.first_problem);
    }
}

struct ServedResult {
    LoadTally timed;
    std::vector<Window> windows;
    std::vector<double> setup_s;
    long peak_rss_kb = 0;
};

/// Runs the served workload untraced: set-ups (spawn, ping, and with
/// `warm` the whole pool sent once), then the timed closed loop.
ServedResult run_served(const std::string& exe, const std::string& work,
                        const std::vector<Payload>& payloads, bool warm, double seconds,
                        int conns, Sheet& sheet) {
    ServedResult res;
    int serial = 0;
    // Spawns one server and brings it to ready; the returned server is live.
    auto setup = [&](std::unique_ptr<ServerProcess>& server) -> bool {
        const std::string dir = work + "/server-" + std::to_string(serial++);
        ::mkdir(dir.c_str(), 0755);
        const std::int64_t t0 = now_ns();
        server = std::make_unique<ServerProcess>();
        std::string err;
        if (!server->start(exe, dir, &err)) {
            sheet.fail("server start: " + err);
            ++sheet.attempted;
            ++sheet.failed;
            return false;
        }
        if (warm) {
            const LoadTally t = drive(server->port(), payloads, conns, payloads.size(), 0.0);
            account(sheet, t, "warm-up");
            if (t.failed() != 0) return false;
        }
        res.setup_s.push_back(seconds_since(t0));
        return true;
    };
    auto finish = [&](std::unique_ptr<ServerProcess>& server) {
        res.peak_rss_kb = std::max(res.peak_rss_kb, server->peak_rss_kb());
        if (!server->stop()) sheet.fail("server did not stop cleanly");
        server.reset();
    };

    std::unique_ptr<ServerProcess> server;
    for (int k = 0; k < kServedSetups; ++k) {
        if (server) finish(server);
        if (!setup(server)) return res;
    }
    res.timed = drive(server->port(), payloads, conns, 0, seconds);
    finish(server);
    res.windows = windows_of(res.timed, kWindowResponses);
    account(sheet, res.timed, "timed");
    return res;
}

// ---- The traced replay of the served path -----------------------------------
// Single-threaded, in this process, through the calls the server makes for
// one request, in the server's order: frame codec, job construction
// (svc::job_from_dsl_text / job_from_mldg_text), the service's cache
// admission, ladder with retry escalation, admission gate (certify, then
// the differential replay), cache insert, checkpoint append, response codec.

constexpr int kDeltaMaxEdges = 4;  // ServiceConfig::delta_max_edges default
const Domain kReplayDomain{12, 12};  // svc::job_from_dsl_text default

class ServedReplay {
  public:
    ServedReplay(Tracer& tracer, const std::string& store_dir, const std::string& checkpoint)
        : tracer_(tracer), cache_(svc::ServiceConfig{}.plan_cache_capacity, store_dir),
          checkpoint_(checkpoint) {}

    /// Serves one request; false (with `problem()` set) if it would not
    /// have come back Verified.
    bool handle(const Payload& payload, std::int64_t id) {
        tracer_.set_request(id);
        const std::int64_t t0 = now_ns();
        bool ok = false;
        {
            SpanScope root(tracer_, "request");
            net::Frame req;
            req.type = net::FrameType::Request;
            req.aux = static_cast<std::uint16_t>(payload.kind);
            req.request_id = static_cast<std::uint64_t>(id);
            req.tenant = "bench";
            req.payload = payload.bytes;
            const net::Frame got = codec(req);
            std::string algorithm;
            std::string level;
            try {
                ok = payload.kind == net::PayloadKind::Dsl ? serve_dsl(got.payload, algorithm, level)
                                                           : serve_graph(got.payload, algorithm, level);
            } catch (const std::exception& e) {
                problem_ = std::string("replay threw: ") + e.what();
                ok = false;
            }
            if (ok && !checkpoint_.empty()) {
                svc::JobRecord rec;
                rec.id = "net-1-" + std::to_string(id);
                rec.status = svc::JobStatus::Verified;
                rec.attempts.emplace_back();
                rec.algorithm = algorithm;
                SpanScope s(tracer_, "svc.checkpoint");
                if (!svc::append_checkpoint(checkpoint_, rec)) {
                    problem_ = "checkpoint append failed";
                    ok = false;
                }
            }
            if (ok) {
                if (const auto want = expected_outcome(payload.gallery)) {
                    if (algorithm != want->first || level != want->second) {
                        problem_ = payload.gallery + ": got " + algorithm + " / " + level;
                        ok = false;
                    }
                }
            }
            json::Writer w;
            w.begin_object();
            w.kv("id", "net-1-" + std::to_string(id));
            w.kv("status", ok ? "verified" : "quarantined");
            w.kv("algorithm", algorithm);
            w.kv("level", level);
            w.kv("cache", last_hit_ ? "hit" : "miss");
            w.kv("attempts", 1);
            w.kv("quarantine_reason", "");
            w.kv("deadline_ms", -1);
            w.kv("tenant", "bench");
            w.end_object();
            net::Frame resp;
            resp.type = net::FrameType::Response;
            resp.aux = ok ? 1 : 2;
            resp.request_id = req.request_id;
            resp.tenant = "bench";
            resp.payload = w.str();
            (void)codec(resp);
        }
        request_ns_.push_back(double(now_ns() - t0));
        return ok;
    }

    [[nodiscard]] const std::string& problem() const { return problem_; }
    [[nodiscard]] const std::vector<double>& request_ns() const { return request_ns_; }
    [[nodiscard]] svc::PlanCacheStats cache_stats() const { return cache_.stats(); }
    /// Forgets the warm-up: request times and plan counts.
    void reset_counts() {
        request_ns_.clear();
        plans = rungs = edge_scans = 0;
    }

    std::uint64_t plans = 0;       // 2-D ladder plans (they carry StageReports)
    std::uint64_t rungs = 0;       // StageReports in those plans
    std::uint64_t edge_scans = 0;  // sum of StageReport::solver.edge_scans

  private:
    net::Frame codec(const net::Frame& f) {
        SpanScope s(tracer_, "net.codec");
        const std::string wire = net::encode_frame(f);
        net::FrameDecoder decoder;
        decoder.feed(wire);
        net::Frame out;
        if (decoder.poll(out) != net::FrameDecoder::Status::Ready) {
            throw std::runtime_error("frame codec round trip failed: " + decoder.detail());
        }
        return out;
    }

    bool serve_dsl(const std::string& source, std::string& algorithm, std::string& level) {
        front::AnyProgram any;
        {
            SpanScope s(tracer_, "front.parse");
            any = front::parse_any_program(source);
        }
        if (any.is_2d()) {
            Mldg graph;
            {
                SpanScope s(tracer_, "analysis.mldg");
                graph = analysis::build_mldg(*any.p2);
            }
            return admit_2d(graph, &source, algorithm, level);
        }
        MldgN graph(any.pn->dim);
        {
            SpanScope s(tracer_, "analysis.mldg");
            graph = analysis::build_mldg_nd(*any.pn);
        }
        return admit_nd(graph, source, any.pn->dim, algorithm, level);
    }

    bool serve_graph(const std::string& text, std::string& algorithm, std::string& level) {
        Mldg graph;
        {
            SpanScope s(tracer_, "ldg.parse");
            graph = parse_mldg(text);
        }
        return admit_2d(graph, nullptr, algorithm, level);
    }

    bool admit_2d(const Mldg& graph, const std::string* source, std::string& algorithm,
                  std::string& level) {
        const PlanOptions popts;
        std::uint64_t key = 0;
        std::optional<FusionPlan> cached;
        {
            SpanScope s(tracer_, "svc.cache_lookup");
            key = svc::PlanCache::key_of(graph, popts, /*allow_distribution_fallback=*/true);
            cached = cache_.lookup(key);
        }
        last_hit_ = cached.has_value();
        if (cached.has_value()) {
            PlanCertificate cert;
            {
                SpanScope s(tracer_, "fusion.certify");
                cert = certify_plan(graph, *cached);
            }
            algorithm = to_string(cached->algorithm);
            level = to_string(cached->level);
            if (!cert.valid) problem_ = "cached plan failed certify";
            return cert.valid;
        }
        std::optional<LadderWarmHints> hints;
        {
            SpanScope s(tracer_, "svc.cache_lookup");
            hints = cache_.near_miss_hints(graph, kDeltaMaxEdges);
        }
        // The service's retry-with-escalation loop (svc::RetryPolicy
        // defaults): a budget-exhausted attempt retries with 8x the steps.
        const svc::RetryPolicy retry;
        std::optional<Result<FusionPlan>> result;
        LadderArtifacts artifacts;
        std::uint64_t steps = retry.initial_steps;
        for (int attempt = 1; attempt <= retry.max_attempts; ++attempt) {
            TryPlanOptions opts;
            opts.plan = popts;
            opts.workspace = &ws_;
            opts.limits.max_steps = steps;
            opts.artifacts = &artifacts;
            if (attempt == 1 && hints.has_value()) opts.warm_hints = &*hints;
            {
                SpanScope s(tracer_, "fusion.ladder");
                result.emplace(try_plan_fusion(graph, opts));
            }
            if (result->ok() || (result->status().code() != StatusCode::ResourceExhausted &&
                                 result->status().code() != StatusCode::Internal)) {
                break;
            }
            steps *= static_cast<std::uint64_t>(retry.escalation);
        }
        if (!result->ok()) {
            problem_ = "planning failed: " + result->status().message();
            return false;
        }
        const FusionPlan& plan = result->value();
        ++plans;
        rungs += plan.stages.size();
        for (const StageReport& st : plan.stages) edge_scans += st.solver.edge_scans;
        algorithm = to_string(plan.algorithm);
        level = to_string(plan.level);
        {
            SpanScope s(tracer_, "fusion.certify");
            if (!certify_plan(graph, plan).valid) {
                problem_ = "plan failed certify";
                return false;
            }
        }
        if (source != nullptr && !replay_2d(*source, graph, plan)) return false;
        SpanScope s(tracer_, "svc.cache_insert");
        cache_.insert(key, plan, &graph, &artifacts);
        return true;
    }

    /// svc::admit_plan's differential replay.
    bool replay_2d(const std::string& source, const Mldg& graph, const FusionPlan& plan) {
        std::optional<ir::Program> p;
        {
            SpanScope s(tracer_, "front.parse");
            p.emplace(ir::parse_program(source));
        }
        {
            SpanScope s(tracer_, "analysis.mldg");
            if (analysis::build_mldg(*p).num_nodes() != graph.num_nodes()) {
                problem_ = "program does not match graph";
                return false;
            }
        }
        SpanScope s(tracer_, "exec.replay");
        exec::ArrayStore golden(*p, kReplayDomain);
        (void)exec::run_original(*p, kReplayDomain, golden);
        std::optional<std::string> diff;
        if (plan.algorithm == AlgorithmUsed::DistributionFallback) {
            const ir::Program distributed = transform::distribute_program(*p);
            exec::ArrayStore subject(distributed, kReplayDomain);
            (void)exec::run_original(distributed, kReplayDomain, subject);
            diff = exec::first_difference(*p, kReplayDomain, golden, subject);
        } else {
            const transform::FusedProgram fp = transform::fuse_program(*p, plan);
            exec::ArrayStore subject(*p, kReplayDomain);
            (void)exec::run_fused_rowwise(fp, kReplayDomain, subject);
            diff = exec::first_difference(*p, kReplayDomain, golden, subject);
        }
        if (diff.has_value()) problem_ = "replay mismatch: " + *diff;
        return !diff.has_value();
    }

    bool admit_nd(const MldgN& graph, const std::string& source, int dim, std::string& algorithm,
                  std::string& level) {
        const PlanOptions popts;
        std::uint64_t key = 0;
        std::optional<NdFusionPlan> cached;
        {
            SpanScope s(tracer_, "svc.cache_lookup");
            key = svc::PlanCache::key_of_nd(graph, popts, /*allow_distribution_fallback=*/true);
            cached = cache_.lookup_nd(key);
        }
        last_hit_ = cached.has_value();
        const auto describe = [&](const NdFusionPlan& plan) {
            const bool outer = plan.level == NdParallelism::OutermostCarried;
            algorithm = outer ? "Algorithm 3 (acyclic, n-D)" : "Algorithm 5 (hyperplane, n-D)";
            level = outer ? "outermost-carried DOALL" : "DOALL-hyperplane";
        };
        if (cached.has_value()) {
            describe(*cached);
            SpanScope s(tracer_, "fusion.certify");
            if (!certify_plan(graph, *cached).valid) {
                problem_ = "cached n-D plan failed certify";
                return false;
            }
            return true;
        }
        std::optional<NdFusionPlan> plan;
        {
            SpanScope s(tracer_, "fusion.ladder");
            plan.emplace(plan_fusion_nd(graph, &ws_, PlanPolicy::FastestSchedule));
        }
        describe(*plan);
        {
            SpanScope s(tracer_, "fusion.certify");
            if (!certify_plan(graph, *plan).valid) {
                problem_ = "n-D plan failed certify";
                return false;
            }
        }
        std::optional<front::BasicProgram<VecN>> p;
        {
            SpanScope s(tracer_, "front.parse");
            p.emplace(front::parse_basic_program<VecN>(source));
        }
        {
            SpanScope s(tracer_, "analysis.mldg");
            if (analysis::build_mldg_nd(*p).num_nodes() != graph.num_nodes()) {
                problem_ = "program does not match graph";
                return false;
            }
        }
        {
            SpanScope s(tracer_, "exec.replay");
            const exec::MdDomain dom{std::vector<std::int64_t>(static_cast<std::size_t>(dim), 6)};
            exec::MdArrayStore golden(*p, dom);
            (void)exec::run_original_md(*p, dom, golden);
            exec::MdArrayStore subject(*p, dom);
            (void)exec::run_wavefront_md(*p, *plan, dom, subject);
            if (const auto diff = exec::first_difference_md(*p, dom, golden, subject)) {
                problem_ = "n-D replay mismatch: " + *diff;
                return false;
            }
        }
        SpanScope s(tracer_, "svc.cache_insert");
        cache_.insert_nd(key, *plan);
        return true;
    }

    Tracer& tracer_;
    svc::PlanCache cache_;
    std::string checkpoint_;
    PlannerWorkspace ws_;
    std::string problem_;
    bool last_hit_ = false;
    std::vector<double> request_ns_;
};

// ---- Native kernels ----------------------------------------------------------

struct Kernel {
    std::string name;
    std::string source;
    bool nd = false;
    bool rerun = true;  // re-run in the timed phase (the fixed gallery set)
    Domain dom{1024, 1024};
    exec::MdDomain mdom;
};

/// The five gallery kernels with a native form, plus three seeded random
/// programs of 4, 8 and 12 loops.
std::vector<Kernel> native_kernels(Rng& rng) {
    std::vector<Kernel> out;
    for (const GallerySource& g : kGallery) {
        const std::string name = g.name;
        if (name == "hyper4d") continue;  // no N-D kernel at a timed size
        Kernel k;
        k.name = name;
        k.source = std::string(g.source);
        if (name == "volume3d") {
            k.nd = true;
            k.mdom.ext = {96, 96, 96};
        }
        out.push_back(std::move(k));
    }
    for (const int loops : {4, 8, 12}) {
        Kernel k;
        k.name = "random" + std::to_string(loops);
        k.source = random_dsl(rng, loops);
        k.dom = Domain{256, 256};
        k.rerun = false;
        out.push_back(std::move(k));
    }
    return out;
}

exec::KernelParams four_lanes() {
    exec::KernelParams params;
    params.threads = 4;
    return params;
}

/// The emitted C of `k` under the plan emit_c --run uses.
std::string emit_kernel(const Kernel& k) {
    if (k.nd) {
        const auto p = front::parse_basic_program<VecN>(k.source);
        return transform::emit_md_c_kernel_library(p, plan_fusion_nd(analysis::build_mldg_nd(p)),
                                                   k.mdom);
    }
    const ir::Program p = ir::parse_program(k.source);
    const FusionPlan plan = plan_fusion(analysis::build_mldg(p));
    return transform::emit_c_kernel_library(p, transform::fuse_program(p, plan), k.dom);
}

/// Source to Verified kernel through exec::native_check, as emit_c --run
/// --threads 4 does it.
exec::NativeCheck native_path(const Kernel& k, exec::KernelCompiler& compiler) {
    if (k.nd) {
        const auto p = front::parse_basic_program<VecN>(k.source);
        const NdFusionPlan plan = plan_fusion_nd(analysis::build_mldg_nd(p));
        return exec::native_check_nd(p, plan, k.mdom, compiler, {}, four_lanes());
    }
    const ir::Program p = ir::parse_program(k.source);
    const FusionPlan plan = plan_fusion(analysis::build_mldg(p));
    return exec::native_check(p, plan, k.dom, compiler, {}, four_lanes());
}

/// One kernel's serial and 4-lane sandboxed runs, checked against each
/// other and against the kernel's first run.
struct KernelRuns {
    std::string path;
    std::optional<exec::KernelResult> reference;
    std::vector<double> fused_ms;    // kernel-reported, min over its reps
    std::vector<double> par_ms;
    std::vector<double> ratio;       // fused / original, kernel-reported
    std::vector<double> sandbox_ms;  // serial run wall minus reported time
};

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Runs `k` once serially and once at 4 lanes, appending both sandboxed
/// wall times (launch to verified result) to `walls`. False on any failed
/// check.
bool run_twice(KernelRuns& k, std::vector<double>& walls, Sheet& sheet) {
    const auto check = [&](const exec::RunOutcome& r, const char* form) {
        if (!r.ok() || r.result.mismatches != 0) {
            sheet.fail(std::string(form) + " run of " + k.path + ": " + exec::to_string(r.state) +
                       " " + r.detail + " mismatches " + std::to_string(r.result.mismatches));
            return false;
        }
        if (!k.reference.has_value()) k.reference = r.result;
        if (!same_bits(r.result.checksum_original, k.reference->checksum_original) ||
            !same_bits(r.result.checksum_fused, k.reference->checksum_fused)) {
            sheet.fail(std::string(form) + " run of " + k.path + " is not bit-identical to the serial run");
            return false;
        }
        return true;
    };
    std::int64_t t0 = now_ns();
    const exec::RunOutcome serial = exec::run_kernel(k.path);
    const double wall = double(now_ns() - t0) * 1e-6;
    if (!check(serial, "serial")) return false;
    walls.push_back(wall);
    k.fused_ms.push_back(double(serial.result.ns_fused) * 1e-6);
    k.ratio.push_back(double(serial.result.ns_fused) / double(serial.result.ns_original));
    k.sandbox_ms.push_back(wall - double(serial.result.ns_fused + serial.result.ns_original) * 1e-6);

    t0 = now_ns();
    const exec::RunOutcome par = exec::run_kernel_par(k.path, four_lanes());
    const double par_wall = double(now_ns() - t0) * 1e-6;
    if (!check(par, "4-lane")) return false;
    walls.push_back(par_wall);
    k.par_ms.push_back(double(par.result.ns_fused) * 1e-6);
    return true;
}

/// Object paths of the already-compiled kernels that are re-run (content-
/// addressed cache hits). The seeded draws are left out of the re-runs so
/// every seed times the same mix.
bool locate_objects(const std::vector<Kernel>& kernels, exec::KernelCompiler& compiler,
                    std::vector<KernelRuns>& runs, Sheet& sheet) {
    for (const Kernel& k : kernels) {
        if (!k.rerun) continue;
        const Result<exec::CompiledKernel> ck = compiler.compile(emit_kernel(k));
        if (!ck.ok() || !ck.value().from_cache) {
            sheet.fail(k.name + ": compiled object not found in the cache");
            return false;
        }
        runs.push_back({ck.value().path, std::nullopt, {}, {}, {}, {}});
    }
    return true;
}

/// Whole cycles over every kernel (serial, then 4-lane) until `seconds`
/// elapse; at least one cycle. Each cycle is one window: its verified runs
/// per second and the percentiles of its runs' wall times. Whole cycles
/// keep the mix of kernels the same in every window.
std::vector<Window> run_kernels_for(std::vector<KernelRuns>& runs, double seconds, Sheet& sheet) {
    std::vector<Window> windows;
    const std::int64_t t0 = now_ns();
    do {
        const std::int64_t c0 = now_ns();
        std::vector<double> walls;
        for (KernelRuns& k : runs) {
            sheet.attempted += 2;
            if (!run_twice(k, walls, sheet)) {
                sheet.failed += 1;
                return windows;
            }
        }
        windows.push_back({double(walls.size()) / seconds_since(c0), percentile(walls, 0.50),
                           percentile(walls, 0.99)});
    } while (seconds_since(t0) < seconds);
    return windows;
}

/// native_check's steps, one span each, with native_check's checks: the
/// serial kernel completes with 0 mismatches and reproduces the
/// interpreter's checksum; the 4-lane run too, and its fused checksum is
/// bit-identical to the serial one.
struct TracedKernel {
    double wall_s = 0.0;
    double source_bytes = 0.0;
    bool ok = false;
};

TracedKernel traced_native_path(const Kernel& k, exec::KernelCompiler& compiler, Tracer& tracer,
                                Sheet& sheet) {
    TracedKernel out;
    const std::int64_t t0 = now_ns();
    SpanScope root(tracer, "request");
    std::string source;
    std::string expected;
    if (k.nd) {
        std::optional<front::BasicProgram<VecN>> p;
        {
            SpanScope s(tracer, "front.parse");
            p.emplace(front::parse_basic_program<VecN>(k.source));
        }
        MldgN g(p->dim);
        {
            SpanScope s(tracer, "analysis.mldg");
            g = analysis::build_mldg_nd(*p);
        }
        std::optional<NdFusionPlan> plan;
        {
            SpanScope s(tracer, "fusion.ladder");
            plan.emplace(plan_fusion_nd(g));
        }
        {
            SpanScope s(tracer, "transform.emit");
            source = transform::emit_md_c_kernel_library(*p, *plan, k.mdom);
        }
        SpanScope s(tracer, "exec.interp");
        expected = transform::expected_md_c_checksum(*p, k.mdom);
    } else {
        std::optional<ir::Program> p;
        {
            SpanScope s(tracer, "front.parse");
            p.emplace(ir::parse_program(k.source));
        }
        Mldg g;
        {
            SpanScope s(tracer, "analysis.mldg");
            g = analysis::build_mldg(*p);
        }
        std::optional<FusionPlan> plan;
        {
            SpanScope s(tracer, "fusion.ladder");
            plan.emplace(plan_fusion(g));
        }
        {
            SpanScope s(tracer, "transform.emit");
            source = transform::emit_c_kernel_library(*p, transform::fuse_program(*p, *plan), k.dom);
        }
        SpanScope s(tracer, "exec.interp");
        expected = transform::expected_c_checksum(*p, k.dom);
    }
    out.source_bytes = double(source.size());
    std::optional<Result<exec::CompiledKernel>> ck;
    {
        SpanScope s(tracer, "exec.compile");
        ck.emplace(compiler.compile(source));
    }
    if (!ck->ok()) {
        sheet.fail(k.name + ": compile failed: " + ck->status().message());
        return out;
    }
    exec::RunOutcome serial;
    {
        SpanScope s(tracer, "exec.sandbox");
        serial = exec::run_kernel(ck->value().path);
    }
    exec::RunOutcome par;
    {
        SpanScope s(tracer, "exec.sandbox");
        par = exec::run_kernel_par(ck->value().path, four_lanes());
    }
    out.ok = serial.ok() && par.ok() && serial.result.mismatches == 0 &&
             par.result.mismatches == 0 &&
             cemit::format_checksum(serial.result.checksum_original) == expected &&
             cemit::format_checksum(par.result.checksum_original) == expected &&
             same_bits(par.result.checksum_fused, serial.result.checksum_fused);
    if (!out.ok) sheet.fail(k.name + ": traced native path did not verify");
    out.wall_s = seconds_since(t0);
    return out;
}

// ---- Workload runners --------------------------------------------------------

struct Run {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string server;
    std::string work;
    std::string spans;
    int conns = 1;
};

long driver_and_children_peak_kb() {
    rusage ru{};
    ::getrusage(RUSAGE_CHILDREN, &ru);
    return vm_hwm_kb("self") + ru.ru_maxrss;
}

std::vector<Payload> served_inputs(const Run& run, Rng& rng) {
    if (run.workload == "hit-dsl") return hit_pool(rng);
    if (run.workload == "miss-dsl") return random_dsl_payloads(rng, kMissDslPool);
    return random_graph_payloads(rng, kMissGraphPool);
}

/// Span name -> the per-layer metric of its self time, and the scale from ns.
struct LayerSpan {
    const char* span;
    const char* metric;
    double scale;
};
const LayerSpan kLayerSpans[] = {
    {"net.codec", "net.codec_us", 1e-3},
    {"front.parse", "front.parse_us", 1e-3},
    {"analysis.mldg", "analysis.mldg_us", 1e-3},
    {"ldg.parse", "ldg.parse_us", 1e-3},
    {"svc.cache_lookup", "svc.cache_lookup_us", 1e-3},
    {"svc.cache_insert", "svc.cache_insert_us", 1e-3},
    {"svc.checkpoint", "svc.checkpoint_us", 1e-3},
    {"fusion.ladder", "fusion.ladder_us", 1e-3},
    {"fusion.certify", "fusion.certify_us", 1e-3},
    {"exec.replay", "exec.replay_us", 1e-3},
    {"transform.emit", "transform.emit_us", 1e-3},
    {"exec.compile", "exec.compile_ms", 1e-6},
    {"exec.interp", "exec.interp_ms", 1e-6},
};

/// Adds every per-layer metric (zero where the workload never enters the
/// layer); `values` holds the ones this workload measured.
void add_layer_metrics(Sheet& sheet, std::map<std::string, double> values) {
    static const std::vector<std::pair<std::string, std::string>> kPerLayer = {
        {"net.codec_us", "us"},           {"front.parse_us", "us"},
        {"analysis.mldg_us", "us"},       {"ldg.parse_us", "us"},
        {"svc.cache_lookup_us", "us"},    {"svc.cache_hit_ratio", "ratio"},
        {"svc.lookups", "count"},         {"svc.cache_insert_us", "us"},
        {"svc.store_writes_per_job", "count"}, {"svc.jobs", "count"},
        {"svc.checkpoint_us", "us"},      {"fusion.ladder_us", "us"},
        {"fusion.rungs_per_plan", "count"}, {"graph.edge_scans_per_plan", "count"},
        {"fusion.plans", "count"},        {"fusion.certify_us", "us"},
        {"exec.replay_us", "us"},         {"svc.unattributed_ms", "ms"},
        {"trace.overhead_us", "us"},      {"transform.emit_us", "us"},
        {"exec.compile_ms", "ms"},        {"exec.compiles", "count"},
        {"exec.interp_ms", "ms"},         {"exec.sandbox_ms", "ms"},
        {"exec.fused_vs_unfused", "ratio"}, {"exec.par_speedup", "ratio"},
        {"exec.kernels", "count"},        {"kernel_ms", "ms"},
        {"kernel_par_ms", "ms"},          {"time_to_kernel_s", "s"},
        {"emitted_kb", "KiB"},
    };
    for (const auto& [name, unit] : kPerLayer) sheet.add(name, values[name], unit);
}

void layer_times(const Tracer& tracer, std::map<std::string, double>& v) {
    std::vector<std::string> spans;
    for (const LayerSpan& l : kLayerSpans) spans.push_back(l.span);
    const std::map<std::string, double> med = layer_medians(tracer, spans);
    for (const LayerSpan& l : kLayerSpans) v[l.metric] = med.at(l.span) * l.scale;
}

std::string trace_header(const Run& run) {
    json::Writer w(0);
    w.begin_object();
    w.kv("workload", run.workload);
    w.kv("seed", run.seed);
    w.kv("nproc", static_cast<std::int64_t>(std::thread::hardware_concurrency()));
    w.kv("compiler_available", exec::KernelCompiler::compiler_available());
    w.end_object();
    return w.str();
}

void run_served_workload(const Run& run, Sheet& sheet) {
    Rng rng(run.seed);
    const std::vector<Payload> payloads = served_inputs(run, rng);
    // hit-dsl warms its pool into the cache during set-up, and every timed
    // response must then be a hit.
    const bool hit = run.workload == "hit-dsl";
    const ServedResult served =
        run_served(run.server, run.work, payloads, hit, run.seconds, run.conns, sheet);
    if (hit && served.timed.hits != served.timed.verified) {
        sheet.fail("hit share " + std::to_string(served.timed.hits) + "/" +
                   std::to_string(served.timed.verified) + " is not 1.0");
    }
    const Window best = quietest(served.windows);
    std::cerr << "perfbench: " << run.workload << ": " << served.timed.verified << " verified in "
              << served.timed.seconds << " s, cache hits " << served.timed.hits << "; per window rps";
    for (const Window& w : served.windows) std::cerr << ' ' << w.rps;
    std::cerr << "; p99";
    for (const Window& w : served.windows) std::cerr << ' ' << w.p99_ms;
    std::cerr << "\n";
    if (!run.trace) {
        sheet.add("throughput_rps", best.rps, "1/s");
        sheet.add("latency_p50_ms", best.p50_ms, "ms");
        sheet.add("latency_p99_ms", best.p99_ms, "ms");
        // Quietest of the set-ups too: spawning takes milliseconds, so one
        // descheduling on a shared host would double it.
        const auto fastest = std::min_element(served.setup_s.begin(), served.setup_s.end());
        sheet.add("setup_s", fastest == served.setup_s.end() ? 0.0 : *fastest, "s");
        sheet.add("peak_rss_mb", double(served.peak_rss_kb) / 1024.0, "MB");
        return;
    }

    // The replay with spans and the same replay with span recording off,
    // request by request in turn (alternating which goes first) so both see
    // the same host load; each has an in-memory plan cache like the served
    // workload's server.
    const std::size_t count = run.workload == "hit-dsl" ? kHitReplay : kMissReplay;
    const auto serve = [&](ServedReplay& replay, std::size_t i) {
        ++sheet.attempted;
        if (replay.handle(payloads[i % payloads.size()], static_cast<std::int64_t>(i))) return true;
        ++sheet.failed;
        sheet.fail("replay: " + replay.problem());
        return false;
    };
    Tracer tracer(true);
    Tracer quiet(false);
    ServedReplay traced(tracer, {}, {});
    ServedReplay plain(quiet, {}, {});
    if (hit) {
        for (ServedReplay* replay : {&traced, &plain}) {
            for (std::size_t i = 0; i < payloads.size(); ++i) {
                if (!replay->handle(payloads[i], -1 - static_cast<std::int64_t>(i))) {
                    sheet.fail("replay warm-up: " + replay->problem());
                }
            }
            replay->reset_counts();
        }
        tracer.clear();
    }
    const svc::PlanCacheStats before = traced.cache_stats();
    for (std::size_t i = 0; i < count; ++i) {
        const bool ok = i % 2 == 0 ? serve(traced, i) && serve(plain, i)
                                   : serve(plain, i) && serve(traced, i);
        if (!ok) break;
    }
    std::map<std::string, double> v;
    layer_times(tracer, v);
    const svc::PlanCacheStats after = traced.cache_stats();
    const double lookups = double((after.hits - before.hits) + (after.misses - before.misses));
    v["svc.lookups"] = lookups;
    v["svc.cache_hit_ratio"] = lookups > 0 ? double(after.hits - before.hits) / lookups : 0.0;
    v["svc.jobs"] = double(count);
    v["fusion.plans"] = double(traced.plans);
    v["fusion.rungs_per_plan"] = traced.plans ? double(traced.rungs) / double(traced.plans) : 0.0;
    v["graph.edge_scans_per_plan"] =
        traced.plans ? double(traced.edge_scans) / double(traced.plans) : 0.0;
    const double traced_p50 = median(traced.request_ns());
    v["trace.overhead_us"] = (traced_p50 - median(plain.request_ns())) * 1e-3;
    if (!run.spans.empty() && !tracer.write(run.spans, trace_header(run))) {
        std::cerr << "perfbench: could not write spans to " << run.spans << "\n";
    }
    v["svc.unattributed_ms"] = best.p50_ms - traced_p50 * 1e-6;

    if (run.workload == "miss-dsl") {
        // The persistent tier and checkpoint as README deploys the server
        // (--store, --checkpoint), fresh, over a fixed request count: each
        // append rewrites the whole manifest, so its cost grows with the
        // jobs answered. Traced only: fsync latency on a shared disk moves
        // too much between runs to bound end to end.
        Tracer persist_tracer(true);
        const std::string dir = run.work + "/persistent";
        ::mkdir(dir.c_str(), 0755);
        ServedReplay replay(persist_tracer, dir + "/store", dir + "/checkpoint");
        for (std::size_t i = 0; i < kPersistRequests; ++i) {
            if (!serve(replay, i)) break;
        }
        const std::map<std::string, double> med =
            layer_medians(persist_tracer, {"svc.cache_insert", "svc.checkpoint"});
        v["svc.cache_insert_us"] = med.at("svc.cache_insert") * 1e-3;
        v["svc.checkpoint_us"] = med.at("svc.checkpoint") * 1e-3;
        const svc::PlanCacheStats st = replay.cache_stats();
        v["svc.store_writes_per_job"] =
            double(st.disk_writes + st.dist_writes) / double(kPersistRequests);
        if (!run.spans.empty() && !persist_tracer.write(run.spans, "", /*append=*/true)) {
            std::cerr << "perfbench: could not write spans to " << run.spans << "\n";
        }
    }
    add_layer_metrics(sheet, v);
}

void run_native_workload(const Run& run, Sheet& sheet) {
    if (!exec::KernelCompiler::compiler_available()) {
        std::cerr << "perfbench: native: skipped (no C compiler on PATH)\n";
        return;
    }
    Rng rng(run.seed);
    const std::vector<Kernel> kernels = native_kernels(rng);

    if (!run.trace) {
        const std::int64_t t0 = now_ns();
        exec::CompileOptions copts;
        copts.cache_dir = run.work + "/objects";
        exec::KernelCompiler compiler(copts);
        for (const Kernel& k : kernels) {
            ++sheet.attempted;
            const exec::NativeCheck nc = native_path(k, compiler);
            if (!nc.verified()) {
                ++sheet.failed;
                sheet.fail(k.name + ": native " + exec::to_string(nc.outcome) + ": " + nc.detail);
                return;
            }
        }
        std::vector<KernelRuns> runs;
        if (!locate_objects(kernels, compiler, runs, sheet)) return;
        const double setup = seconds_since(t0);
        const Window best = quietest(run_kernels_for(runs, run.seconds, sheet));
        sheet.add("throughput_rps", best.rps, "1/s");
        sheet.add("latency_p50_ms", best.p50_ms, "ms");
        sheet.add("latency_p99_ms", best.p99_ms, "ms");
        sheet.add("setup_s", setup, "s");
        sheet.add("peak_rss_mb", double(driver_and_children_peak_kb()) / 1024.0, "MB");
        return;
    }

    // Traced: native_check's steps with spans and again without, kernel by
    // kernel in turn (alternating which goes first), each with its own cold
    // object cache; then the compiled gallery objects re-run.
    std::map<std::string, double> v;
    std::vector<double> overhead_us;
    std::vector<double> plain_s;
    double bytes = 0.0;
    Tracer tracer(true);
    Tracer quiet(false);
    exec::CompileOptions traced_opts;
    traced_opts.cache_dir = run.work + "/objects-traced";
    exec::KernelCompiler traced_compiler(traced_opts);
    exec::CompileOptions plain_opts;
    plain_opts.cache_dir = run.work + "/objects-plain";
    exec::KernelCompiler plain_compiler(plain_opts);
    for (std::size_t i = 0; i < kernels.size(); ++i) {
        sheet.attempted += 2;
        tracer.set_request(static_cast<std::int64_t>(i));
        TracedKernel traced;
        TracedKernel plain;
        if (i % 2 == 0) {
            traced = traced_native_path(kernels[i], traced_compiler, tracer, sheet);
            plain = traced_native_path(kernels[i], plain_compiler, quiet, sheet);
        } else {
            plain = traced_native_path(kernels[i], plain_compiler, quiet, sheet);
            traced = traced_native_path(kernels[i], traced_compiler, tracer, sheet);
        }
        if (!traced.ok || !plain.ok) {
            ++sheet.failed;
            return;
        }
        overhead_us.push_back((traced.wall_s - plain.wall_s) * 1e6);
        plain_s.push_back(plain.wall_s);
        bytes += traced.source_bytes;
    }
    v["exec.compiles"] = double(traced_compiler.stats().compiles) / double(kernels.size());
    layer_times(tracer, v);
    // exec.sandbox spans cover two runs per kernel; the per-layer sandbox
    // figure is the serial run's wall minus the time the kernel reports.
    std::vector<KernelRuns> runs;
    if (!locate_objects(kernels, traced_compiler, runs, sheet)) return;
    (void)run_kernels_for(runs, run.seconds / 2, sheet);
    std::vector<double> fused;
    std::vector<double> par;
    std::vector<double> ratio;
    std::vector<double> speedup;
    std::vector<double> sandbox;
    for (const KernelRuns& k : runs) {
        if (k.fused_ms.empty() || k.par_ms.empty()) return;
        fused.push_back(median(k.fused_ms));
        par.push_back(median(k.par_ms));
        ratio.push_back(median(k.ratio));
        speedup.push_back(fused.back() / par.back());
        sandbox.push_back(median(k.sandbox_ms));
    }
    v["trace.overhead_us"] = median(overhead_us);
    v["exec.sandbox_ms"] = median(sandbox);
    v["exec.fused_vs_unfused"] = geomean(ratio);
    v["exec.par_speedup"] = geomean(speedup);
    v["exec.kernels"] = double(kernels.size());
    v["kernel_ms"] = geomean(fused);
    v["kernel_par_ms"] = geomean(par);
    v["time_to_kernel_s"] = geomean(plain_s);
    v["emitted_kb"] = bytes / 1024.0;
    if (!run.spans.empty() && !tracer.write(run.spans, trace_header(run))) {
        std::cerr << "perfbench: could not write spans to " << run.spans << "\n";
    }
    add_layer_metrics(sheet, v);
}

int usage() {
    std::cerr << "usage: lf_perfbench --workload hit-dsl|miss-dsl|miss-graph|native --seed N\n"
                 "                    --seconds S --trace 0|1 --server PATH --work DIR\n"
                 "                    [--spans FILE]\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    Run run;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc) return usage();
        const std::string value = argv[++i];
        if (a == "--workload") {
            run.workload = value;
        } else if (a == "--seed") {
            run.seed = std::stoull(value);
        } else if (a == "--seconds") {
            run.seconds = std::stod(value);
        } else if (a == "--trace") {
            run.trace = value == "1";
        } else if (a == "--server") {
            run.server = value;
        } else if (a == "--work") {
            run.work = value;
        } else if (a == "--spans") {
            run.spans = value;
        } else {
            return usage();
        }
    }
    static const std::set<std::string> kWorkloads = {"hit-dsl", "miss-dsl", "miss-graph", "native"};
    if (kWorkloads.count(run.workload) == 0 || run.work.empty() || run.seconds <= 0 ||
        (run.workload != "native" && run.server.empty())) {
        return usage();
    }
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    run.conns = static_cast<int>(std::min<unsigned>(kMaxConnections, nproc));
    std::cerr << "perfbench: host nproc " << nproc << ", C compiler "
              << (exec::KernelCompiler::compiler_available() ? "available" : "unavailable")
              << ", connections " << run.conns << "\n";

    Sheet sheet;
    try {
        if (run.workload == "native") {
            run_native_workload(run, sheet);
        } else {
            run_served_workload(run, sheet);
        }
    } catch (const std::exception& e) {
        sheet.fail(std::string("harness error: ") + e.what());
    }
    for (const std::string& n : sheet.notes) std::cerr << "perfbench: " << n << "\n";
    std::cout << sheet.json() << std::endl;
    return sheet.correct ? 0 : 1;
}
