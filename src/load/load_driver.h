#ifndef PUPIL_LOAD_LOAD_DRIVER_H_
#define PUPIL_LOAD_LOAD_DRIVER_H_

#include <array>
#include <cstdint>
#include <vector>

#include "capping/governor.h"
#include "load/admission.h"
#include "load/cap_arbiter.h"
#include "load/slo_tracker.h"
#include "load/traffic.h"
#include "sim/actor.h"

namespace pupil::load {

/**
 * The open-loop tenant traffic actor: pulls jobs from a seed-
 * deterministic ArrivalGenerator, queues them in the AdmissionQueue,
 * binds them to a block of platform app slots, reaps completions, and
 * scores every outcome against its SLO in the SloTracker.
 *
 * Tier scheduling: every arbiterPeriodSec the slo::CapArbiter splits the
 * governor's *current* cap across tiers by live demand (queued + running
 * work). The grants become per-tier concurrency limits over the slot
 * block -- a tier granted 40% of the cap runs at most ~40% of the slots
 * -- enforced strictly first (floors protect gold under contention), then
 * relaxed work-conserving: a free slot is never left idle while any tier
 * has queued work. Governors are not bypassed: they keep enforcing the
 * total cap and optimizing the machine configuration; churn reaches them
 * as workload drift, which the walker-based governors answer with
 * Monitor-phase re-walks.
 *
 * Determinism and cost: all randomness flows from the driver seed
 * (derive it with SweepRunner::deriveSeed for sweeps), and the steady
 * tick path allocates nothing -- fixed slot array, ring-buffered queue,
 * fixed histograms, trace emission into the pre-allocated ring. With
 * Options::enabled false no driver is constructed anywhere in the stack
 * and every run is byte-identical to a build without this subsystem.
 */
class LoadDriver : public sim::Actor
{
  public:
    struct Options
    {
        /** Master switch; false = no driver, no slots, zero cost. */
        bool enabled = false;
        TrafficSpec spec;
        /** Concurrent job slots appended to the platform's app vector. */
        size_t slots = 8;
        size_t queueCapacityPerTier = AdmissionQueue::kDefaultCapacity;
        slo::CapArbiter::Options arbiter;
        /** Cap re-arbitration period (s). */
        double arbiterPeriodSec = 1.0;
        /** Arrival/reap/admission period (s). */
        double driverPeriodSec = 0.05;
        /**
         * Traffic seed. 0 = derive from the experiment/node seed (one
         * SplitMix64 stream, the SweepRunner discipline), so sweep cells
         * stay byte-identical at any thread count.
         */
        uint64_t seed = 0;
    };

    /**
     * @param firstSlot index of the first platform app slot this driver
     *        owns; it owns [firstSlot, firstSlot + options.slots).
     * @param seed resolved traffic seed (never 0 here; the caller
     *        applies the Options::seed derivation rule).
     */
    LoadDriver(const Options& options, size_t firstSlot, uint64_t seed);

    /** Cap source for the arbiter (not owned; call before the run). */
    void attachGovernor(const capping::Governor* governor)
    {
        governor_ = governor;
    }

    void onStart(sim::Platform& platform) override;
    void onTick(sim::Platform& platform, double now) override;
    double periodSec() const override { return options_.driverPeriodSec; }

    /**
     * End-of-run bookkeeping: reap any completions landed after the last
     * tick, score overdue in-flight and overdue queued jobs as abandoned
     * violations, and publish the load.* metrics into the platform
     * registry. Call exactly once, after Platform::run returns.
     */
    void finish(sim::Platform& platform);

    const SloTracker& tracker() const { return tracker_; }
    const AdmissionQueue& queue() const { return queue_; }
    const ArrivalGenerator& generator() const { return generator_; }
    /** Most recent per-tier cap grants (W). */
    const std::array<double, kTierCount>& grants() const { return grants_; }

    const Options& options() const { return options_; }

  private:
    struct Slot
    {
        bool busy = false;
        TenantJob job;
        double startSec = 0.0;
    };

    void reapCompletions(sim::Platform& platform, double now);
    void ingestArrivals(sim::Platform& platform, double now);
    void arbitrate(sim::Platform& platform, double now);
    void admit(sim::Platform& platform, double now);
    bool bindNext(sim::Platform& platform, double now, Tier tier);
    int freeSlot() const;

    Options options_;
    size_t firstSlot_;
    ArrivalGenerator generator_;
    AdmissionQueue queue_;
    SloTracker tracker_;
    slo::CapArbiter arbiter_;
    const capping::Governor* governor_ = nullptr;
    std::vector<Slot> slots_;
    std::array<int, kTierCount> running_ = {};
    std::array<double, kTierCount> runningWork_ = {};
    std::array<int, kTierCount> limit_ = {};
    std::array<double, kTierCount> grants_ = {};
    double nextArbiterSec_ = 0.0;
    bool finished_ = false;
};

}  // namespace pupil::load

#endif  // PUPIL_LOAD_LOAD_DRIVER_H_
