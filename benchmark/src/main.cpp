// katric_benchmark: one workload, one seed, one process.
//
//   katric_benchmark --workload social-global --seed 7 --seconds 25 --trace 0
//
// Prints every metric as "workload metric value unit", then, as the last
// line, {"correct", "attempted", "failed", "metrics"}; writes the result
// with its provenance (and, traced, the span trace) to --out. Exits 1 when
// any answer was wrong. benchmark/run.sh builds and drives it.

#include <algorithm>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "util/cli.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
    using namespace katric::benchmark;
    static const std::vector<std::string> kWorkloads = {"social-global", "web-local",
                                                        "serve-hardened", "stream-churn"};
    Options options;
    try {
        katric::CliParser cli("katric_benchmark", "runs one benchmark workload");
        cli.option("workload", "",
                   "social-global | web-local | serve-hardened | stream-churn");
        cli.option("seed", "1", "input seed: the same seed gives the same inputs");
        cli.option("seconds", "25", "length of the timed phase (host seconds)");
        cli.option("trace", "0", "1: traced run with per-layer metrics");
        cli.option("out", "benchmark/out", "directory for the result and trace files");
        cli.option("git-sha", "unknown", "commit recorded in the result's provenance");
        cli.flag("smoke", "tiny inputs and windows");
        if (!cli.parse(argc, argv)) { return 0; }
        options.workload = cli.get_string("workload");
        options.seed = cli.get_uint("seed");
        options.seconds = cli.get_double("seconds");
        options.trace = cli.get_uint("trace") != 0;
        options.out_dir = cli.get_string("out");
        options.git_sha = cli.get_string("git-sha");
        options.smoke = cli.get_flag("smoke");
    } catch (const std::exception& e) {
        std::cerr << "katric_benchmark: " << e.what() << '\n';
        return 2;
    }
    if (std::find(kWorkloads.begin(), kWorkloads.end(), options.workload)
        == kWorkloads.end()) {
        std::cerr << "katric_benchmark: unknown workload '" << options.workload << "'\n";
        return 2;
    }

    Result result;
    SpanRecorder spans(options.trace);
    try {
        std::filesystem::create_directories(options.out_dir);
        if (options.workload == "stream-churn") {
            run_stream_workload(options, result, spans);
        } else {
            run_query_workload(options, result, spans);
        }
    } catch (const std::exception& e) {
        std::cerr << "katric_benchmark: " << options.workload << " aborted: " << e.what()
                  << '\n';
        return 1;
    }

    const auto stem = options.out_dir + "/" + options.stem();
    std::ofstream file(stem + ".json");
    file << result.file_json(options);
    file.close();
    if (!file || !spans.write(stem + ".spans.json")) {
        std::cerr << "katric_benchmark: cannot write the result files " << stem << ".*\n";
        return 1;
    }
    std::cout << result.lines(options.workload) << result.summary_json() << std::endl;
    return result.correct() ? 0 : 1;
}
