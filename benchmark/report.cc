// Metric catalog, statistics helpers, span export, and result output.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "harness/sweep.h"

namespace pupil::benchmark {

namespace {

const std::vector<MetricSpec>&
metricCatalog()
{
    using K = MetricKind;
    // name, unit, higher is better, kind, bound (share), bound (abs),
    // layer, end-to-end metric it should move.
    static const std::vector<MetricSpec> catalog = {
        {"setup_s", "s", false, K::kHost, 0.10, 0.05, "e2e", ""},
        {"sim_rate", "node-s/s", true, K::kHost, 0.10, 0, "e2e", ""},
        {"period_ms_p95", "ms", false, K::kHost, 0.10, 0, "e2e", ""},
        {"peak_rss_mb", "MB", false, K::kHost, 0.05, 0, "e2e", ""},
        {"perf_geomean", "items/s", true, K::kSim, 0, 0, "e2e", ""},
        {"perf_per_node", "norm", true, K::kSim, 0, 0, "e2e", ""},
        {"cap_violation_pct", "%", false, K::kSim, 0, 0, "e2e", ""},
        {"settle_s_p50", "sim-s", false, K::kSim, 0, 0, "e2e", ""},
        {"slo_violation_pct", "%", false, K::kSim, 0, 0, "e2e", ""},

        {"sim.platform_self_us", "us/sim-s", false, K::kLayer, 0, 0,
         "sim+sched+telemetry", "sim_rate"},
        {"rapl.firmware_us", "us/sim-s", false, K::kLayer, 0, 0, "rapl",
         "sim_rate"},
        {"rapl.calls", "1/sim-s", false, K::kLayer, 0, 0, "rapl", "sim_rate"},
        {"governor.rapl_us", "us/sim-s", false, K::kLayer, 0, 0, "capping",
         "sim_rate"},
        {"governor.soft_dvfs_us", "us/sim-s", false, K::kLayer, 0, 0,
         "capping", "sim_rate"},
        {"governor.soft_modeling_us", "us/sim-s", false, K::kLayer, 0, 0,
         "capping", "sim_rate"},
        {"governor.soft_decision_us", "us/sim-s", false, K::kLayer, 0, 0,
         "core", "sim_rate"},
        {"governor.pupil_us", "us/sim-s", false, K::kLayer, 0, 0, "core",
         "sim_rate"},
        {"load.driver_us", "us/sim-s", false, K::kLayer, 0, 0, "load",
         "sim_rate"},
        {"load.calls", "1/sim-s", false, K::kLayer, 0, 0, "load", "sim_rate"},
        {"sched.cache_hit_rate", "frac", true, K::kLayer, 0, 0, "sched",
         "sim_rate"},
        {"sched.cache_misses", "1/sim-s", false, K::kLayer, 0, 0, "sched",
         "sim_rate"},
        {"sched.solve_us_1app", "us", false, K::kLayer, 0, 0, "sched",
         "sim_rate"},
        {"sched.solve_us_4app", "us", false, K::kLayer, 0, 0, "sched",
         "sim_rate"},
        {"harness.cell_ms_p50", "ms", false, K::kLayer, 0, 0, "harness",
         "sim_rate"},
        {"harness.cell_ms_p95", "ms", false, K::kLayer, 0, 0, "harness",
         "period_ms_p95"},
        {"harness.pool_busy_frac", "frac", true, K::kLayer, 0, 0, "harness",
         "sim_rate"},
        {"cluster.step_ms_p50", "ms", false, K::kLayer, 0, 0, "cluster",
         "sim_rate"},
        {"cluster.step_ms_p95", "ms", false, K::kLayer, 0, 0, "cluster",
         "period_ms_p95"},
        {"cluster.control_ms_p50", "ms", false, K::kLayer, 0, 0, "cluster",
         "sim_rate"},
        {"cluster.control_ms_p95", "ms", false, K::kLayer, 0, 0, "cluster",
         "period_ms_p95"},
        {"cluster.invariant_us", "us", false, K::kLayer, 0, 0, "cluster",
         "sim_rate"},
        {"cluster.digest_us", "us", false, K::kLayer, 0, 0, "cluster",
         "sim_rate"},
        {"cluster.rebalance_useful_frac", "frac", true, K::kLayer, 0, 0,
         "cluster", "sim_rate"},
        {"cluster.reports_suppressed", "1/period", true, K::kLayer, 0, 0,
         "cluster", "sim_rate"},
        {"net.msgs_per_period", "msgs/period", false, K::kLayer, 0, 0, "net",
         "sim_rate"},
        {"net.delivered_frac", "frac", true, K::kLayer, 0, 0, "net",
         "sim_rate"},
        {"net.codec_ns", "ns", false, K::kLayer, 0, 0, "net", "sim_rate"},
        {"policy.rack_divide_us", "us", false, K::kLayer, 0, 0,
         "cluster policy", "period_ms_p95"},
        {"policy.root_rebalance_us", "us", false, K::kLayer, 0, 0,
         "cluster policy", "period_ms_p95"},
        {"trace.overhead_pct", "%", false, K::kLayer, 0, 0, "trace", ""},
    };
    return catalog;
}

}  // namespace

const MetricSpec&
findMetric(const std::string& name)
{
    for (const MetricSpec& spec : metricCatalog()) {
        if (name == spec.name)
            return spec;
    }
    std::fprintf(stderr, "pupil_bench: metric %s is not in the catalog\n",
                 name.c_str());
    std::abort();
}

// ----- statistics ---------------------------------------------------------

double
percentile(std::vector<double> xs, double p)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const double rank = p / 100.0 * double(xs.size() - 1);
    const size_t lo = size_t(rank);
    const size_t hi = std::min(lo + 1, xs.size() - 1);
    return xs[lo] + (rank - double(lo)) * (xs[hi] - xs[lo]);
}

double
peakRssMb()
{
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double
clockReadNs()
{
    constexpr int kReads = 100000;
    std::vector<double> batches;
    for (int b = 0; b < 5; ++b) {
        const int64_t start = nowNs();
        for (int i = 0; i < kReads; ++i)
            nowNs();
        batches.push_back(double(nowNs() - start) / kReads);
    }
    return percentile(batches, 50.0);
}

double
uniformAt(uint64_t seed, uint64_t index)
{
    return double(harness::SweepRunner::deriveSeed(seed, index) >> 11) *
           0x1.0p-53;
}

HostCalibration::HostCalibration() : table_(1u << 20)
{
    for (size_t i = 0; i < table_.size(); ++i)
        table_[i] = uint32_t(harness::SweepRunner::deriveSeed(0xCA11B, i));
}

void
HostCalibration::mark()
{
    std::atomic<uint64_t> sink{0};
    const auto kernel = [&](uint64_t lane) {
        uint64_t state = lane + 1;
        uint64_t acc = 0;
        uint32_t index = 0;
        for (int i = 0; i < 300000; ++i) {
            state = state * 6364136223846793005ull + 1442695040888963407ull;
            index = table_[(index ^ uint32_t(state >> 33)) &
                           (table_.size() - 1)];
            acc += index + uint64_t(std::exp(double(acc & 1023) * 1e-3) * 7.0);
        }
        sink += acc;
    };
    const int64_t start = nowNs();
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back(kernel, uint64_t(t));
    for (std::thread& t : threads)
        t.join();
    marks_.push_back(secondsSince(start));
}

double
HostCalibration::factor() const
{
    const size_t n = marks_.size();
    if (n == 0)
        return 1.0;
    const double recent =
        n == 1 ? marks_[0] : 0.5 * (marks_[n - 1] + marks_[n - 2]);
    return kNominalSec / recent;
}

double
HostCalibration::medianSec() const
{
    return percentile(marks_, 50.0);
}

void
WorkloadResult::addMedian(const std::string& name,
                          const std::vector<double>& samples)
{
    addPercentile(name, samples, 50.0);
}

void
WorkloadResult::addPercentile(const std::string& name,
                              const std::vector<double>& samples, double p,
                              double scale)
{
    findMetric(name);
    metrics.push_back({name, scale * percentile(samples, p),
                       scale * percentile(samples, 25.0),
                       scale * percentile(samples, 75.0), samples.size()});
}

// ----- spans --------------------------------------------------------------

SpanLog::SpanLog() { spans_.reserve(kCapacity); }

void
SpanLog::add(const Span& span)
{
    if (spans_.size() < kCapacity)
        spans_.push_back(span);
    else
        ++dropped_;
}

bool
SpanLog::writeChrome(const std::string& path, uint64_t runId) const
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    int64_t origin = INT64_MAX;
    for (const Span& s : spans_)
        origin = std::min(origin, s.startNs);
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"run\":"
                    "\"%016" PRIx64 "\",\"dropped_spans\":%zu},\n"
                    "\"traceEvents\":[",
                 runId, dropped_);
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"run\":\"%016" PRIx64
                     "\",\"id\":%u,\"parent\":%u",
                     i == 0 ? "" : ",", s.name, s.lane,
                     double(s.startNs - origin) * 1e-3, double(s.durNs) * 1e-3,
                     runId, s.id, s.parent);
        for (int a = 0; a < 3; ++a) {
            if (s.argName[a] != nullptr)
                std::fprintf(f, ",\"%s\":%.17g", s.argName[a], s.argValue[a]);
        }
        std::fprintf(f, "}}");
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

// ----- output -------------------------------------------------------------

bool
WorkloadResult::correct() const
{
    return errors.empty() && opsFailed == 0 &&
           (!traced || digest == untracedDigest);
}

namespace {

const char*
kindName(MetricKind kind)
{
    switch (kind) {
      case MetricKind::kHost: return "host";
      case MetricKind::kSim: return "sim";
      case MetricKind::kLayer: return "layer";
    }
    return "?";
}

std::string
jsonString(const std::string& text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
number(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

std::string
hex(uint64_t value)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, value);
    return buf;
}

}  // namespace

void
printResult(const WorkloadResult& r)
{
    std::printf("# %s ops=%" PRIu64 " ops_failed=%" PRIu64
                " digest=%s correct=%d measured_s=%.2f noise_iqr=%.4f"
                " host_ref_ms=%.3f\n",
                r.workload.c_str(), r.ops, r.opsFailed, hex(r.digest).c_str(),
                r.correct() ? 1 : 0, r.measuredSec, r.noiseIqrFrac,
                1e3 * r.hostRefSec);
    for (const MetricValue& m : r.metrics) {
        std::printf("%s %.6g %s\n", m.name.c_str(), m.value,
                    findMetric(m.name).unit);
    }
    for (size_t i = 0; i < r.errors.size() && i < 20; ++i)
        std::printf("! %s\n", r.errors[i].c_str());
    std::fflush(stdout);
}

std::string
resultJson(const WorkloadResult& r)
{
    std::string out = "{\"workload\":" + jsonString(r.workload) +
                      ",\"traced\":" + (r.traced ? "true" : "false") +
                      ",\"correct\":" + (r.correct() ? "true" : "false") +
                      ",\"ops\":" + std::to_string(r.ops) +
                      ",\"ops_failed\":" + std::to_string(r.opsFailed) +
                      ",\"digest\":\"" + hex(r.digest) + "\"" +
                      (r.traced ? ",\"untraced_digest\":\"" +
                                      hex(r.untracedDigest) + "\""
                                : std::string()) +
                      ",\"noise_iqr_frac\":" + number(r.noiseIqrFrac) +
                      ",\"host_ref_ms\":" + number(1e3 * r.hostRefSec) +
                      ",\"measured_s\":" + number(r.measuredSec) +
                      ",\"errors\":[";
    for (size_t i = 0; i < r.errors.size() && i < 20; ++i)
        out += (i ? "," : "") + jsonString(r.errors[i]);
    out += "],\"metrics\":{";
    for (size_t i = 0; i < r.metrics.size(); ++i) {
        const MetricValue& m = r.metrics[i];
        const MetricSpec& spec = findMetric(m.name);
        out += std::string(i ? "," : "") + "\n  " + jsonString(m.name) +
               ":{\"value\":" + number(m.value) + ",\"unit\":" +
               jsonString(spec.unit) + ",\"better\":\"" +
               (spec.higherIsBetter ? "higher" : "lower") + "\",\"kind\":\"" +
               kindName(spec.kind) + "\",\"bound\":" + number(spec.boundRel) +
               ",\"bound_abs\":" + number(spec.boundAbs) + ",\"layer\":" +
               jsonString(spec.layer) +
               ",\"moves\":" + jsonString(spec.moves) +
               ",\"q1\":" + number(m.q1) + ",\"q3\":" + number(m.q3) +
               ",\"n\":" + std::to_string(m.n) + "}";
    }
    return out + "}}";
}

}  // namespace pupil::benchmark
