// Shared types of pupil_bench: run options, the metric catalog, per-workload
// results, span recording, and the small statistics/digest helpers every
// workload uses. The library is reached only through its public headers.
#ifndef PUPIL_BENCHMARK_BENCH_H_
#define PUPIL_BENCHMARK_BENCH_H_

#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace pupil::benchmark {

/** Worker threads every workload uses (sized for a 4-core host). */
inline constexpr int kThreads = 2;

/** Set-ups per run: the first kSetupWarmups warm the heap and lazy
 *  statics untimed; setup_s is the median of the rest together with the
 *  set-ups each workload times while it runs. */
inline constexpr int kSetupWarmups = 3;
inline constexpr int kSetupRepeats = 12;

/** Command-line settings shared by all workloads. */
struct RunOptions
{
    uint64_t seed = 42;
    /** Length of the measured phase (host seconds). */
    double seconds = 25.0;
    /** Shrinks op counts and the time budget; smoke tests only. */
    double scale = 1.0;
    /** Traced run: per-layer attribution instead of end-to-end metrics. */
    bool traced = false;
};

// ----- time ---------------------------------------------------------------

inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

inline double
secondsSince(int64_t startNs)
{
    return double(nowNs() - startNs) * 1e-9;
}

// ----- statistics ---------------------------------------------------------

/** Linear-interpolated percentile (p in [0, 100]); 0 for no samples. */
double percentile(std::vector<double> xs, double p);

/** Peak resident set size of this process (MB). */
double peakRssMb();

/** Cost of one nowNs() call (ns), median of a few batches. */
double clockReadNs();

/**
 * Host-speed calibration of wall times. On a shared host the speed our
 * threads get drifts by tens of percent over minutes, and the drift is
 * common to everything they run. mark() times a fixed reference kernel
 * (dependent reads over a 4 MB table plus floating-point work) on
 * kThreads threads; factor() rescales a wall time measured between the
 * last two marks to a host on which the kernel takes kNominalSec. The
 * kernel is benchmark code, so a faster library still shows in full.
 */
class HostCalibration
{
  public:
    /** Median kernel time on the 4-vCPU Xeon host of results/seed.json. */
    static constexpr double kNominalSec = 0.016;

    HostCalibration();
    void mark();
    /** kNominalSec over the mean of the last two marks. */
    double factor() const;
    /** Median kernel time over all marks (s). */
    double medianSec() const;

  private:
    std::vector<uint32_t> table_;
    std::vector<double> marks_;
};

// ----- digests ------------------------------------------------------------

/** FNV-1a over 64-bit words; doubles hash by bit pattern. */
class Digest
{
  public:
    void mix(uint64_t value)
    {
        for (int i = 0; i < 8; ++i) {
            hash_ ^= (value >> (8 * i)) & 0xffu;
            hash_ *= 1099511628211ull;
        }
    }
    void mixDouble(double value)
    {
        uint64_t bits = 0;
        std::memcpy(&bits, &value, sizeof(bits));
        mix(bits);
    }
    uint64_t value() const { return hash_; }

  private:
    uint64_t hash_ = 14695981039346656037ull;
};

/** Uniform double in [0, 1) from a SplitMix64-derived stream. */
double uniformAt(uint64_t seed, uint64_t index);

// ----- metrics ------------------------------------------------------------

/**
 * How a metric is measured. kHost: end-to-end host time or memory
 * (tracing off). kSim: end-to-end simulated output, deterministic per
 * seed. kLayer: per-layer attribution from the traced run.
 */
enum class MetricKind { kHost, kSim, kLayer };

/** One entry of the metric catalog: the single source of names/units. */
struct MetricSpec
{
    const char* name;
    const char* unit;
    bool higherIsBetter;
    MetricKind kind;
    /** Regression bound as a share of the parent median (0 = exact). */
    double boundRel;
    /** Absolute slack that must also be exceeded (host metrics only). */
    double boundAbs;
    /** Module the metric belongs to (per-layer) or "e2e". */
    const char* layer;
    /** End-to-end metric a change in this layer should move. */
    const char* moves;
};

/** The catalog entry of @p name; aborts on a name missing from it. */
const MetricSpec& findMetric(const std::string& name);

struct MetricValue
{
    std::string name;
    double value = 0.0;
    /** Quartiles and sample count of the samples value summarises. */
    double q1 = 0.0;
    double q3 = 0.0;
    size_t n = 1;
};

/** Everything one workload reports. */
struct WorkloadResult
{
    std::string workload;
    bool traced = false;
    /** Ops executed: cells for the sweeps, periods for the trees. */
    uint64_t ops = 0;
    uint64_t opsFailed = 0;
    /** FNV-1a of every simulated output of the deterministic pass. */
    uint64_t digest = 0;
    /** Traced runs: the digest of the same pass run untraced. */
    uint64_t untracedDigest = 0;
    /** IQR / median of the slice or period samples (host-noise guard). */
    double noiseIqrFrac = 0.0;
    /** Median reference-kernel time of the run (host speed; 0 if unused). */
    double hostRefSec = 0.0;
    double measuredSec = 0.0;
    std::vector<std::string> errors;
    std::vector<MetricValue> metrics;

    void add(const std::string& name, double value)
    {
        findMetric(name);
        metrics.push_back({name, value, value, value, 1});
    }
    /** Median of @p samples, carrying its quartiles and n. */
    void addMedian(const std::string& name,
                   const std::vector<double>& samples);
    /** A percentile of @p samples (q1/q3 describe the same samples). */
    void addPercentile(const std::string& name,
                       const std::vector<double>& samples, double p,
                       double scale = 1.0);
    void fail(const std::string& message) { errors.push_back(message); }
    /** No failed op or check, and a traced pass matched the untraced one. */
    bool correct() const;
};

/** One "name value unit" line per metric, after a summary line. */
void printResult(const WorkloadResult& result);
/** The result as one JSON object (see README.md for the schema). */
std::string resultJson(const WorkloadResult& result);

// ----- spans --------------------------------------------------------------

/**
 * One completed span. Names are string literals, so recording one copies
 * no text. Parent 0 means a root span.
 */
struct Span
{
    const char* name = "";
    uint32_t id = 0;
    uint32_t parent = 0;
    uint32_t lane = 0;
    int64_t startNs = 0;
    int64_t durNs = 0;
    /** Optional numeric annotations (layer self times, counts). */
    const char* argName[3] = {nullptr, nullptr, nullptr};
    double argValue[3] = {0.0, 0.0, 0.0};
};

/**
 * In-memory span store written out as Chrome "ph":"X" events at exit.
 * Capacity is fixed up front; spans past it are counted, not stored.
 * Not thread-safe: workers record into their own preallocated buffers
 * and the main thread appends them here after each barrier.
 */
class SpanLog
{
  public:
    static constexpr size_t kCapacity = 1u << 16;

    SpanLog();
    uint32_t newId() { return ++lastId_; }
    void add(const Span& span);
    /** Write the Chrome trace-event JSON; false on I/O failure. */
    bool writeChrome(const std::string& path, uint64_t runId) const;

  private:
    std::vector<Span> spans_;
    size_t dropped_ = 0;
    uint32_t lastId_ = 0;
};

// ----- workloads ----------------------------------------------------------

WorkloadResult runNodeSweep(const RunOptions& options, SpanLog& spans);
WorkloadResult runTenantSlo(const RunOptions& options, SpanLog& spans);
WorkloadResult runClusterFullstack(const RunOptions& options,
                                   SpanLog& spans);
WorkloadResult runClusterSurrogate(const RunOptions& options,
                                   SpanLog& spans);

/** Layer micro-probes (solve, codec, policy), added to traced results. */
void runProbes(WorkloadResult& result);

}  // namespace pupil::benchmark

#endif  // PUPIL_BENCHMARK_BENCH_H_
