#ifndef PUPIL_SIM_PLATFORM_H_
#define PUPIL_SIM_PLATFORM_H_

#include <array>
#include <memory>
#include <vector>

#include "faults/injector.h"
#include "machine/machine.h"
#include "machine/power_model.h"
#include "sched/scheduler.h"
#include "sched/solve_cache.h"
#include "sim/actor.h"
#include "telemetry/counters.h"
#include "telemetry/energy.h"
#include "telemetry/metrics.h"
#include "telemetry/sensor.h"
#include "telemetry/settling.h"
#include "trace/trace.h"

namespace pupil::sim {

/** Construction-time options of a simulated platform. */
struct PlatformOptions
{
    double tickSec = 0.001;      ///< simulation time step
    uint64_t seed = 42;          ///< root seed for all noise streams
    double powerLagTau = 0.08;   ///< thermal/metering response (s)
    double perfLagTau = 0.12;    ///< migration/warmup response (s)
    double traceResolutionSec = 0.01;  ///< power/perf trace bucket size

    /** Noise on the governor-visible power channel (a WattsUp-class meter). */
    telemetry::SensorNoise powerNoise{0.015, 0.002, 1.35};
    /** Noise on the governor-visible performance (heartbeat) channel. */
    telemetry::SensorNoise perfNoise{0.02, 0.01, 0.35};
    /** Noise on RAPL's internal per-socket power estimator. */
    telemetry::SensorNoise raplNoise{0.005, 0.0, 1.0};

    machine::PowerParams powerParams;
    double mcBandwidthGBs = 40.0;

    /**
     * Entry bound of the scheduler solve cache (0 disables memoization).
     * Caching is decision-invariant -- cached and uncached runs are
     * byte-identical -- so this is a pure speed/memory knob. The
     * PUPIL_NO_SOLVE_CACHE environment variable (any non-empty value)
     * forces 0 at platform construction for debugging.
     */
    size_t solveCacheCapacity = sched::SolveCache::kDefaultCapacity;

    /**
     * Fault scenario (faults::FaultSchedule spec string). Empty disables
     * injection entirely: no injector is constructed and every component
     * boundary behaves byte-identically to a faultless build.
     */
    std::string faultSpec;
};

/**
 * The simulated server: machine state, running applications, the OS
 * scheduler/contention model, the power model, sensors, and bookkeeping.
 *
 * Each tick the platform:
 *  1. reads the machine's effective configuration (OS config + RAPL
 *     clamps) and re-solves the scheduler model if anything changed;
 *  2. advances first-order lags so power and performance approach the
 *     steady-state solution with realistic time constants;
 *  3. integrates energy, work, and low-level counters, and records the
 *     power/performance traces;
 *  4. wakes every registered actor that is due.
 *
 * Governors observe the platform only through the noisy sensor channels
 * (readPower, readPerformance), mirroring the paper's observe phase.
 */
class Platform
{
  public:
    Platform(const PlatformOptions& options,
             std::vector<sched::AppDemand> apps);

    // ----- setup ---------------------------------------------------------
    /** Register an actor; not owned. Call before run(). */
    void addActor(Actor* actor);

    /**
     * Attach a structured-event recorder (not owned, null detaches). The
     * platform emits scheduler re-solves, app completions, and fault
     * activations, propagates the recorder to the fault injector, and
     * hands it to actors (firmware, governors) at onStart. Attaching a
     * recorder never changes simulation behaviour: instrumentation is
     * observational only and draws from no RNG stream.
     */
    void attachTrace(trace::Recorder* recorder);

    /** The attached recorder, or nullptr (the untraced default). */
    trace::Recorder* trace() const { return trace_; }

    /** Change the initial machine configuration (applied instantly). */
    void warmStart(const machine::MachineConfig& cfg);

    // ----- control surface (used by governors and firmware) --------------
    machine::Machine& machine() { return machine_; }
    const machine::Machine& machine() const { return machine_; }
    const machine::PowerModel& powerModel() const { return powerModel_; }
    const sched::Scheduler& scheduler() const { return scheduler_; }

    /** The platform's solve cache (capacity 0 when disabled). */
    const sched::SolveCache& solveCache() const { return solveCache_; }

    /**
     * Memoized scheduler solve through the platform's cache, for
     * model-driven governors (Soft-Modeling's profiling sweep) that
     * repeatedly evaluate hypothetical configurations. Bit-identical to
     * scheduler().solve(cfg, duty, apps).
     */
    void solveCached(const machine::MachineConfig& cfg,
                     const std::array<double, 2>& duty,
                     const std::vector<sched::AppDemand>& apps,
                     sched::SystemOutcome& out);

    /** Fault injector, or nullptr when options.faultSpec is empty. */
    faults::FaultInjector* faults() { return injector_.get(); }
    const faults::FaultInjector* faults() const { return injector_.get(); }

    /** Sample total system power through the noisy meter channel (W). */
    double readPower();

    /**
     * Sample aggregate application performance through the noisy heartbeat
     * channel: sum over apps of items/s normalized by each app's solo rate
     * in the maximal configuration.
     */
    double readPerformance();

    /** RAPL's internal per-socket power estimate (low-noise). */
    double readSocketPowerEstimate(int socket);

    // ----- ground truth (used by the harness for metrics, not governors) -
    double now() const { return now_; }
    double truePower() const { return laggedTotalPower_; }
    double trueSocketPower(int s) const { return laggedSocketPower_[s]; }
    /** Current (lagged) items/s of app @p i. */
    double trueAppRate(size_t i) const { return laggedItems_[i]; }
    /** Solo items/s of app @p i in the maximal configuration. */
    double soloReferenceRate(size_t i) const { return soloRef_[i]; }
    size_t appCount() const { return apps_.size(); }
    const sched::AppDemand& app(size_t i) const { return apps_[i]; }
    /** Steady-state (unlagged) solution for the current configuration. */
    const sched::SystemOutcome& steadyState() const { return steady_; }

    /** Change app @p i's thread count mid-run (dynamic scenarios). */
    void setAppThreads(size_t i, int threads);

    /**
     * Give app @p i a finite amount of work (in items). When its
     * accumulated items reach the target the app exits: its threads leave
     * the system and its completion time is recorded. Multi-application
     * experiments use this to capture the paper's completion dynamics
     * (a crawling polling app poisons the machine until it finally
     * finishes; speeding it up frees everyone sooner).
     */
    void setAppWorkItems(size_t i, double items);

    /** Completion time of app @p i (seconds), or -1 if still running. */
    double completionTime(size_t i) const { return completionTime_[i]; }

    /**
     * Bind a tenant job into app slot @p i: the slot takes the job's
     * parameters, thread count, and finite work, its progress and
     * completion state reset, and the solo reference rate is re-derived
     * for the new parameters. The slot then behaves exactly like any
     * finite-work app: when its items are done the threads leave and
     * completionTime(i) records the departure. Reuses member scratch, so
     * binding performs no steady-state-path allocations.
     */
    void bindAppSlot(size_t i, const workload::AppParams* params,
                     int threads, double workItems);

    /**
     * Return slot @p i to the idle pool after its job was reaped: zero
     * threads, no work, completion cleared, ready for the next bind.
     */
    void releaseAppSlot(size_t i);

    /** Whether every finite-work app has completed. */
    bool allComplete() const;

    /** Items accumulated by app @p i since the start of the run. */
    double lifetimeItems(size_t i) const { return cumItems_[i]; }

    // ----- accounting ----------------------------------------------------
    /** Energy/work integration since the last resetStatsWindow(). */
    const telemetry::EnergyAccount& energy() const { return energy_; }
    /** Low-level counters since the last resetStatsWindow(). */
    const telemetry::Counters& counters() const { return counters_; }
    /** Mutable counters, for governors recording resilience accounting. */
    telemetry::Counters& mutableCounters() { return counters_; }
    /**
     * Named-metric registry (run-scoped). Components register counters,
     * gauges, and histograms here; the harness snapshots the registry
     * into ExperimentResult::metrics when the run ends.
     */
    telemetry::MetricsRegistry& metrics() { return metrics_; }
    const telemetry::MetricsRegistry& metrics() const { return metrics_; }
    /** Per-app items accumulated since the last resetStatsWindow(). */
    double appItems(size_t i) const { return appItems_[i]; }
    /** Restart the measurement window (e.g. to exclude convergence). */
    void resetStatsWindow();
    double statsWindowSec() const { return energy_.seconds(); }

    /** Recorded total-power trace (bucketed). */
    const std::vector<telemetry::TracePoint>& powerTrace() const
    {
        return powerTrace_;
    }
    /** Recorded aggregate-performance trace (bucketed). */
    const std::vector<telemetry::TracePoint>& perfTrace() const
    {
        return perfTrace_;
    }

    /** Seconds during which true power exceeded @p cap (plus 2%/1W tol). */
    double capViolationSec(double cap) const;

    // ----- execution ------------------------------------------------------
    /** Advance the simulation until @p untilSec. */
    void run(double untilSec);

    /**
     * Pre-reserve the trace buffers for a run extending to @p untilSec.
     * run() does this on entry, so after the first tick of a horizon the
     * steady-state tick path performs zero heap allocations (the property
     * the allocation regression test pins); call it ahead with the final
     * horizon when allocation-free ticking must hold across several
     * incremental run() calls.
     */
    void reserveTraces(double untilSec);

    const PlatformOptions& options() const { return options_; }

  private:
    void tick();
    void resolveSteadyState();

    PlatformOptions options_;
    std::unique_ptr<faults::FaultInjector> injector_;
    uint64_t injectorActivatedSeen_ = 0;
    machine::Machine machine_;
    machine::PowerModel powerModel_;
    sched::Scheduler scheduler_;
    sched::SolveCache solveCache_;
    sched::SolveScratch solveScratch_;
    std::vector<sched::AppDemand> apps_;
    uint64_t appsVersion_ = 0;

    // Cached steady-state solution and its inputs.
    sched::SystemOutcome steady_;
    machine::MachineConfig steadyCfg_;
    std::array<double, 2> steadyDuty_ = {-1.0, -1.0};
    uint64_t steadyAppsVersion_ = ~0ULL;
    std::array<double, 2> steadySocketPower_ = {0.0, 0.0};

    // Lagged observables.
    telemetry::FirstOrderLag powerLag_[2];
    std::vector<telemetry::FirstOrderLag> itemLags_;
    telemetry::FirstOrderLag ipsLag_;
    telemetry::FirstOrderLag bwLag_;
    telemetry::FirstOrderLag spinLag_;
    telemetry::FirstOrderLag busyLag_;
    double laggedTotalPower_ = 0.0;
    std::array<double, 2> laggedSocketPower_ = {0.0, 0.0};
    std::vector<double> laggedItems_;

    // Sensors.
    telemetry::NoisySensor powerMeter_;
    telemetry::NoisySensor perfMeter_;
    std::array<telemetry::NoisySensor, 2> raplMeter_;

    // References for normalized performance.
    std::vector<double> soloRef_;
    // Reused buffers for bindAppSlot's solo-rate re-solve.
    std::vector<sched::AppDemand> soloDemand_;
    sched::SystemOutcome soloOut_;

    // Accounting.
    telemetry::EnergyAccount energy_;
    telemetry::Counters counters_;
    telemetry::MetricsRegistry metrics_;
    trace::Recorder* trace_ = nullptr;
    std::vector<double> appItems_;
    std::vector<double> cumItems_;
    std::vector<double> workItems_;       // 0 = run forever
    std::vector<double> completionTime_;  // -1 = still running
    std::vector<telemetry::TracePoint> powerTrace_;
    std::vector<telemetry::TracePoint> perfTrace_;
    double bucketStart_ = 0.0;
    double bucketPowerSum_ = 0.0;
    double bucketPerfSum_ = 0.0;
    int bucketCount_ = 0;

    // Actors.
    struct Registration
    {
        Actor* actor;
        double nextDue;
    };
    std::vector<Registration> actors_;
    bool started_ = false;

    double now_ = 0.0;
};

}  // namespace pupil::sim

#endif  // PUPIL_SIM_PLATFORM_H_
