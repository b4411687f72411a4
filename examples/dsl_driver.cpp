// Command-line driver: run the whole toolchain on a .loop DSL file.
//
//   example_dsl_driver <file.loop> [--n N] [--m M] [--dot] [--emit] [--verify]
//
// With no file argument, reads the program from stdin. --dot prints the
// MLDG in Graphviz format; --emit prints original + transformed code;
// --verify executes both forms and checks golden equivalence.

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/dependence.hpp"
#include "exec/equivalence.hpp"
#include "fusion/driver.hpp"
#include "ir/parser.hpp"
#include "support/diagnostics.hpp"
#include "transform/codegen.hpp"

namespace {

struct Options {
    std::string file;
    std::int64_t n = 100;
    std::int64_t m = 100;
    bool dot = false;
    bool emit = false;
    bool verify = false;
};

Options parse_args(int argc, char** argv) {
    Options o;
    std::vector<std::string> args(argv + 1, argv + argc);
    for (std::size_t k = 0; k < args.size(); ++k) {
        const std::string& a = args[k];
        if (a == "--dot") {
            o.dot = true;
        } else if (a == "--emit") {
            o.emit = true;
        } else if (a == "--verify") {
            o.verify = true;
        } else if (a == "--n" && k + 1 < args.size()) {
            o.n = std::stoll(args[++k]);
        } else if (a == "--m" && k + 1 < args.size()) {
            o.m = std::stoll(args[++k]);
        } else if (a == "--help") {
            std::cout << "usage: example_dsl_driver <file.loop> [--n N] [--m M] "
                         "[--dot] [--emit] [--verify]\n";
            std::exit(0);
        } else {
            o.file = a;
        }
    }
    if (!o.dot && !o.emit && !o.verify) o.emit = o.verify = true;  // sensible default
    return o;
}

std::string read_source(const Options& o) {
    if (o.file.empty()) {
        std::ostringstream buffer;
        buffer << std::cin.rdbuf();
        return buffer.str();
    }
    std::ifstream in(o.file);
    lf::check(in.good(), [&] { return "cannot open '" + o.file + "'"; });
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

}  // namespace

int main(int argc, char** argv) {
    using namespace lf;
    try {
        // Argument parsing sits inside the try block: std::stoll throws
        // std::invalid_argument/std::out_of_range on bad numeric flags, and a
        // CLI tool must turn that into a clean one-line error, not a crash.
        const Options options = parse_args(argc, argv);
        const ir::Program program = ir::parse_program(read_source(options));
        const analysis::DependenceInfo info = analysis::analyze_dependences(program);
        const Domain dom{options.n, options.m};

        std::cout << "program '" << program.name << "': " << info.graph.summary() << '\n';

        if (options.dot) {
            std::cout << info.graph.to_dot(program.name) << '\n';
        }

        const FusionPlan plan = plan_fusion(info.graph);
        std::cout << plan.describe(info.graph) << '\n';

        if (options.emit) {
            const auto fused = transform::fuse_program(program, plan);
            std::cout << "--- original ---\n" << transform::emit_original(program);
            std::cout << "--- transformed ---\n" << transform::emit_transformed(fused, dom);
        }

        if (options.verify) {
            const auto result = exec::verify_fusion(program, dom, exec::EngineKind::FusedRowwise);
            std::cout << "--- verification (n=" << dom.n << ", m=" << dom.m << ") ---\n";
            std::cout << "equivalent: " << (result.equivalent ? "YES" : "NO") << '\n';
            if (!result.equivalent) {
                std::cout << "first difference: " << result.detail << '\n';
                return 1;
            }
            std::cout << "barriers: " << result.original.barriers << " -> "
                      << result.transformed.barriers << '\n';
        }
    } catch (const Error& e) {
        std::cerr << "error: " << e.what() << '\n';
        return 1;
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << '\n';
        return 1;
    }
    return 0;
}
