/**
 * @file
 * Benchmark entry point (normally started by perfbench/run.py):
 *
 *   ernn_perfbench --workload <name> --seed <n> --seconds <s>
 *                  --trace <0|1> [--out <dir>]
 *   ernn_perfbench --self-test
 *   ernn_perfbench --reference      (the README's reference figures)
 *
 * Prints a human-readable report, then as its last stdout line one JSON
 * object: {"correct", "attempted", "failed", "metrics"}. Exits 1 when
 * an output is wrong or an operation failed. Untraced runs
 * report the end-to-end metrics; traced runs (--trace 1) the per-layer
 * metrics, write a Chrome trace-event file under --out and print a
 * per-layer self-time table.
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "base/logging.hh"
#include "workloads.hh"

namespace ernn::perfbench
{
int runSelfTests();
int printReferenceFigures();
}

using namespace ernn::perfbench;

namespace
{

/** Every per-layer metric with its unit. A workload that never enters
 *  a layer reports 0 for it: that layer did no work there. */
const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"runtime.compile_s", "s"},
    {"runtime.artifact_load_s", "s"},
    {"runtime.artifact_bytes", "bytes"},
    {"runtime.compute_us_per_frame", "us"},
    {"runtime.macs_per_frame", "count"},
    {"runtime.weight_bytes_per_frame", "bytes"},
    {"runtime.gmac_per_s", "GMAC/s"},
    {"runtime.checkpoint_ms", "ms"},
    {"runtime.restore_ms", "ms"},
    {"runtime.checkpoint_bytes", "bytes"},
    {"serve.queue_wait_ms_p50", "ms"},
    {"serve.batch_lanes_mean", "count"},
    {"serve.step_wait_us_p50", "us"},
    {"serve.step_p99_ms", "ms"},
    {"serve.bg_frames_per_s", "frames/s"},
    {"speech.frontend_busy_s", "s"},
    {"speech.frontend_frames_per_s", "frames/s"},
    {"speech.ctc_busy_s", "s"},
    {"speech.ctc_frames_per_s", "frames/s"},
    {"speech.per_eval_s", "s"},
    {"admm.run_s", "s"},
    {"admm.project_transfer_s", "s"},
    {"nn.finetune_s", "s"},
    {"nn.finetune_frames_per_s", "frames/s"},
    {"bench.self_s", "s"},
    {"runtime.self_s", "s"},
    {"serve.self_s", "s"},
    {"speech.self_s", "s"},
    {"admm.self_s", "s"},
    {"nn.self_s", "s"},
    {"trace.overhead_pct", "%"},
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "ernn_perfbench: %s\nusage: ernn_perfbench --workload "
                 "offline_int16|live_gru_fft|train_trial --seed N "
                 "--seconds S --trace 0|1 [--out DIR]\n"
                 "       ernn_perfbench --self-test | --reference\n",
                 why);
    std::exit(2);
}

void
printJson(const Result &r, const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                r.correct ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    ernn::setLogQuiet(true);
    RunArgs args;
    std::string workload;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--self-test")
            return runSelfTests();
        if (a == "--reference")
            return printReferenceFigures();
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        if (a == "--workload") {
            workload = v;
        } else if (a == "--seed") {
            args.seed = std::strtoull(v.c_str(), nullptr, 10);
            haveSeed = true;
        } else if (a == "--seconds") {
            args.seconds = std::atof(v.c_str());
            haveSeconds = args.seconds > 0.0;
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            args.trace = v == "1";
            haveTrace = true;
        } else if (a == "--out") {
            args.outDir = v;
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }
    if (!haveSeed || !haveSeconds || !haveTrace)
        usage("--seed, --seconds (> 0) and --trace are required");

    Result res;
    if (workload == "offline_int16")
        res = runOfflineInt16(args);
    else if (workload == "live_gru_fft")
        res = runLiveGruFft(args);
    else if (workload == "train_trial")
        res = runTrainTrial(args);
    else
        usage(("unknown workload '" + workload + "'").c_str());

    for (const auto &f : res.failures)
        std::printf("CHECK FAILED: %s\n", f.c_str());
    std::printf("%s seed %llu: %llu operations attempted, %llu failed, "
                "outputs %s\n",
                workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                static_cast<unsigned long long>(res.attempted),
                static_cast<unsigned long long>(res.failed),
                res.correct ? "correct" : "WRONG");
    std::vector<Metric> out;
    if (!args.trace) {
        out = res.endToEnd;
    } else {
        std::map<std::string, double> got;
        for (const auto &m : res.perLayer)
            got[m.name] = m.value;
        for (const auto &[name, unit] : kPerLayer)
            out.push_back({name, got.count(name) ? got[name] : 0.0, unit});
        std::printf("per-layer self time (span minus covered child "
                    "spans):\n");
        for (const auto &m : out)
            if (m.name.size() > 7 &&
                m.name.compare(m.name.size() - 7, 7, ".self_s") == 0)
                std::printf("  %-10s %10.4f s\n",
                            m.name.substr(0, m.name.size() - 7).c_str(),
                            m.value);
        std::printf("tracing overhead: %.2f%% of untraced frames/s\n",
                    got["trace.overhead_pct"]);
    }
    for (const auto &m : out)
        std::printf("  %-32s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    printJson(res, out);
    // Wrong outputs or failed operations make the run fail, after the
    // result line that says so.
    return res.correct && res.failed == 0 ? 0 : 1;
}
