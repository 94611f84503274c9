// pupil_bench: the repository benchmark.
//
//   pupil_bench --workload {node_sweep|tenant_slo|cluster_fullstack|
//                           cluster_surrogate|all}
//               --seed N [--seconds S] [--out result.json]
//               [--trace trace.json] [--scale F]
//
// Untraced runs report the end-to-end metrics; --trace runs report the
// per-layer metrics and write a Chrome trace. One "name value unit" line
// is printed per metric, the JSON result goes to --out, and the exit
// code is non-zero when any correctness check fails. --scale shrinks op
// counts and the time budget for smoke tests; never measure with it.
// With --workload all every workload runs in its own child process, so
// peak_rss_mb stays a per-workload number.
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"

using namespace pupil::benchmark;

namespace {

struct Workload
{
    const char* name;
    WorkloadResult (*run)(const RunOptions&, SpanLog&);
};

const Workload kWorkloads[] = {
    {"node_sweep", runNodeSweep},
    {"tenant_slo", runTenantSlo},
    {"cluster_fullstack", runClusterFullstack},
    {"cluster_surrogate", runClusterSurrogate},
};

int
usage(const char* message)
{
    std::fprintf(stderr,
                 "pupil_bench: %s\nusage: pupil_bench --workload "
                 "{node_sweep|tenant_slo|cluster_fullstack|cluster_surrogate|"
                 "all} --seed N [--seconds S] [--out FILE] [--trace FILE] "
                 "[--scale F]\n",
                 message);
    return 2;
}

bool
parseDouble(const char* text, double& out)
{
    char* end = nullptr;
    out = std::strtod(text, &end);
    return end != text && *end == '\0' && out > 0.0;
}

/** Trace path of one workload: FILE, or FILE.<workload> under "all". */
std::string
tracePathFor(const std::string& tracePath, const char* workload, bool all)
{
    if (!all)
        return tracePath;
    const size_t dot = tracePath.rfind('.');
    const size_t slash = tracePath.rfind('/');
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash))
        return tracePath + "." + workload;
    return tracePath.substr(0, dot) + "." + workload + tracePath.substr(dot);
}

/** Run one workload in this process; returns its JSON object. */
std::string
runHere(const Workload& workload, const RunOptions& options,
        const std::string& tracePath, bool& correct)
{
    SpanLog spans;
    WorkloadResult result = workload.run(options, spans);
    if (options.traced) {
        runProbes(result);
        Digest runId;
        runId.mix(options.seed);
        runId.mix(uint64_t(nowNs()));
        if (!spans.writeChrome(tracePath, runId.value()))
            result.fail("cannot write trace file " + tracePath);
    }
    printResult(result);
    correct = result.correct();
    return resultJson(result);
}

/**
 * Run one workload in a child process (fresh peak RSS), reading its JSON
 * object back through a pipe. A child that dies yields no object.
 */
std::string
runInChild(const Workload& workload, const RunOptions& options,
           const std::string& tracePath, bool& correct)
{
    correct = false;
    int fds[2];
    if (pipe(fds) != 0)
        return {};
    std::fflush(stdout);
    const pid_t pid = fork();
    if (pid < 0)
        return {};
    if (pid == 0) {
        close(fds[0]);
        bool ok = false;
        const std::string json = runHere(workload, options, tracePath, ok);
        size_t written = 0;
        while (written < json.size()) {
            const ssize_t n =
                write(fds[1], json.data() + written, json.size() - written);
            if (n <= 0)
                _exit(3);
            written += size_t(n);
        }
        _exit(ok ? 0 : 1);
    }
    close(fds[1]);
    std::string json;
    char buf[4096];
    for (ssize_t n; (n = read(fds[0], buf, sizeof(buf))) > 0;)
        json.append(buf, size_t(n));
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    const bool exited = WIFEXITED(status);
    if (!exited || WEXITSTATUS(status) > 1) {
        std::fprintf(stderr, "pupil_bench: %s child failed (status %d)\n",
                     workload.name, status);
        return {};
    }
    correct = WEXITSTATUS(status) == 0;
    return json;
}

}  // namespace

int
main(int argc, char** argv)
{
    RunOptions options;
    std::string which;
    std::string outPath;
    std::string tracePath;
    bool haveSeed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        const char* value = argv[++i];
        if (arg == "--workload") {
            which = value;
        } else if (arg == "--seed") {
            char* end = nullptr;
            options.seed = std::strtoull(value, &end, 10);
            haveSeed = end != value && *end == '\0';
            if (!haveSeed)
                return usage("--seed takes a non-negative integer");
        } else if (arg == "--seconds") {
            if (!parseDouble(value, options.seconds))
                return usage("--seconds takes a positive number");
        } else if (arg == "--scale") {
            if (!parseDouble(value, options.scale) || options.scale > 1.0)
                return usage("--scale takes a number in (0, 1]");
        } else if (arg == "--out") {
            outPath = value;
        } else if (arg == "--trace") {
            tracePath = value;
            options.traced = true;
        } else {
            return usage(("unknown argument " + arg).c_str());
        }
    }
    if (!haveSeed)
        return usage("--seed is required");

    const bool all = which == "all";
    std::vector<std::string> objects;
    bool allCorrect = true;
    bool matched = false;
    for (const Workload& workload : kWorkloads) {
        if (!all && which != workload.name)
            continue;
        matched = true;
        bool correct = false;
        const std::string path = tracePathFor(tracePath, workload.name, all);
        const std::string json =
            all ? runInChild(workload, options, path, correct)
                : runHere(workload, options, path, correct);
        if (!json.empty())
            objects.push_back(json);
        allCorrect = allCorrect && correct && !json.empty();
    }
    if (!matched)
        return usage(("unknown workload \"" + which + "\"").c_str());

    if (!outPath.empty()) {
        std::FILE* f = std::fopen(outPath.c_str(), "w");
        if (f == nullptr) {
            std::fprintf(stderr, "pupil_bench: cannot write %s\n",
                         outPath.c_str());
            return 1;
        }
        std::fprintf(f,
                     "{\"schema\":\"pupil-bench-v1\",\"seed\":%llu,"
                     "\"seconds\":%.17g,\"scale\":%.17g,\"threads\":%d,"
                     "\"nproc\":%u,\"traced\":%s,\"workloads\":[",
                     static_cast<unsigned long long>(options.seed),
                     options.seconds, options.scale, kThreads,
                     std::thread::hardware_concurrency(),
                     options.traced ? "true" : "false");
        for (size_t i = 0; i < objects.size(); ++i)
            std::fprintf(f, "%s\n%s", i ? "," : "", objects[i].c_str());
        std::fprintf(f, "\n]}\n");
        if (std::fclose(f) != 0)
            return 1;
    }
    return allCorrect ? 0 : 1;
}
