// Command-line tool for graph-level workloads (.ldg files): plan fusion on
// an MLDG without a program (e.g. the paper's Figure 14, which exists only
// as a dependence graph), print the plan, the retimed graph, Graphviz, and
// the machine-model barrier/time comparison.
//
//   example_graph_tool <file.ldg> [--dot] [--svg PREFIX] [--n N] [--m M] [--p P]
//   example_graph_tool --builtin fig14 --dot --svg out/fig14
//
// Builtins: fig2, fig8, fig14, jacobi, iir.

#include <fstream>
#include <iostream>
#include <sstream>

#include "fusion/driver.hpp"
#include "viz/svg.hpp"
#include "ldg/serialization.hpp"
#include "sim/machine.hpp"
#include "support/diagnostics.hpp"
#include "workloads/gallery.hpp"

int main(int argc, char** argv) {
    using namespace lf;
    try {
        // Argument parsing sits inside the try block: std::stoll/std::stoi
        // throw on non-numeric --n/--m/--p values and must exit cleanly.
        std::string file, builtin, svg_prefix;
        Domain dom{1000, 1000};
        int processors = 16;
        bool dot = false;
        for (int k = 1; k < argc; ++k) {
            const std::string arg = argv[k];
            if (arg == "--dot") {
                dot = true;
            } else if (arg == "--builtin" && k + 1 < argc) {
                builtin = argv[++k];
            } else if (arg == "--svg" && k + 1 < argc) {
                svg_prefix = argv[++k];
            } else if (arg == "--n" && k + 1 < argc) {
                dom.n = std::stoll(argv[++k]);
            } else if (arg == "--m" && k + 1 < argc) {
                dom.m = std::stoll(argv[++k]);
            } else if (arg == "--p" && k + 1 < argc) {
                processors = std::stoi(argv[++k]);
            } else if (arg == "--help") {
                std::cout << "usage: example_graph_tool <file.ldg> | --builtin <name> "
                             "[--dot] [--svg PREFIX] [--n N] [--m M] [--p P]\n";
                return 0;
            } else {
                file = arg;
            }
        }

        Mldg g;
        if (!builtin.empty()) {
            bool found = false;
            for (const auto& w : workloads::paper_workloads()) {
                if (w.id == builtin) {
                    g = w.graph;
                    found = true;
                    break;
                }
            }
            check(found, [&] { return "unknown builtin '" + builtin + "'"; });
        } else if (!file.empty()) {
            std::ifstream in(file);
            check(in.good(), [&] { return "cannot open '" + file + "'"; });
            std::ostringstream buf;
            buf << in.rdbuf();
            g = parse_mldg(buf.str());
        } else {
            // Read .ldg text from stdin.
            std::ostringstream buf;
            buf << std::cin.rdbuf();
            g = parse_mldg(buf.str());
        }

        std::cout << g.summary() << '\n';
        const FusionPlan plan = plan_fusion(g);
        std::cout << plan.describe(g);
        std::cout << "\nretimed:\n" << plan.retimed.summary() << '\n';

        const sim::MachineConfig machine{processors, 200};
        const auto before = sim::estimate_original(g, dom, machine);
        const auto after = sim::estimate_fused(g, plan, dom, machine);
        std::cout << "machine model (P=" << processors << ", sigma=200, n=" << dom.n
                  << ", m=" << dom.m << "):\n";
        std::cout << "  barriers " << before.barriers << " -> " << after.barriers << '\n';
        std::cout << "  time     " << before.total_time << " -> " << after.total_time << "  ("
                  << after.speedup_over(before) << "x)\n";

        if (dot) std::cout << '\n' << plan.retimed.to_dot("retimed");

        if (!svg_prefix.empty()) {
            const auto write = [](const std::string& path, const std::string& content) {
                std::ofstream out(path);
                check(out.good(), [&] { return "cannot write '" + path + "'"; });
                out << content;
            };
            write(svg_prefix + "_graph.svg", viz::svg_mldg(g, "original"));
            write(svg_prefix + "_retimed.svg", viz::svg_mldg(plan.retimed, "retimed"));
            write(svg_prefix + "_space.svg",
                  viz::svg_iteration_space(plan.retimed, plan.schedule, 5, 8,
                                           "iteration space, s = " + plan.schedule.str()));
            std::cout << "wrote " << svg_prefix << "_{graph,retimed,space}.svg\n";
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
