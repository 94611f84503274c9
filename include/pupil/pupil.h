#ifndef PUPIL_PUPIL_H_
#define PUPIL_PUPIL_H_

/**
 * @file
 * Umbrella header for the PUPiL library -- a reproduction of
 * "Maximizing Performance Under a Power Cap: A Comparison of Hardware,
 * Software, and Hybrid Techniques" (Zhang & Hoffmann, ASPLOS 2016).
 *
 * Layering (each layer depends only on those above it):
 *   util       -- rng, statistics, small linear algebra, tables/CSV
 *   faults     -- deterministic fault schedules and the injector that
 *                 imposes them at the sensor/MSR/actuator/node seams
 *   machine    -- topology, DVFS, the 1024-point configuration space,
 *                 calibrated power model, stateful machine w/ latencies
 *   workload   -- analytic application models, 20-benchmark catalog,
 *                 the paper's multi-application mixes
 *   sched      -- OS scheduler + contention model (shares, bandwidth,
 *                 spin cycles, serial-phase amplification)
 *   telemetry  -- noisy sensors, the 3-sigma filter, settling metrics,
 *                 energy accounting, VTune-like counters
 *   sim        -- discrete-time platform tying it all together
 *   rapl       -- emulated MSR file + hardware capping firmware
 *   capping    -- Governor interface, RAPL-only / Soft-DVFS /
 *                 Soft-Modeling baselines, the exhaustive oracle
 *   core       -- the paper's contribution: resource ordering
 *                 (Algorithm 2), the decision walker (Algorithm 1) and
 *                 its pluggable strategy zoo, Soft-Decision, and the
 *                 PUPiL hybrid governor
 *   harness    -- one-call experiment runner used by tests and benches
 *
 * Quick start:
 * @code
 *   sim::Platform platform({}, {{&workload::findBenchmark("x264"), 32}});
 *   platform.warmStart(machine::maximalConfig());
 *   rapl::RaplController rapl;
 *   core::Pupil pupil;
 *   pupil.attachRapl(&rapl);
 *   pupil.setCap(140.0);
 *   platform.addActor(&rapl);
 *   platform.addActor(&pupil);
 *   platform.run(60.0);
 * @endcode
 */

#include "capping/governor.h"
#include "capping/oracle.h"
#include "capping/pack_and_cap.h"
#include "capping/rapl_governor.h"
#include "capping/regression.h"
#include "capping/soft_dvfs.h"
#include "capping/soft_modeling.h"
#include "cluster/power_shifter.h"
#include "core/decision.h"
#include "core/ordering.h"
#include "core/power_dist.h"
#include "core/pupil.h"
#include "core/resource.h"
#include "core/soft_decision.h"
#include "core/strategy.h"
#include "faults/injector.h"
#include "faults/schedule.h"
#include "harness/experiment.h"
#include "machine/config.h"
#include "machine/dvfs.h"
#include "machine/machine.h"
#include "machine/power_model.h"
#include "machine/topology.h"
#include "rapl/msr.h"
#include "rapl/rapl.h"
#include "sched/scheduler.h"
#include "sim/actor.h"
#include "sim/platform.h"
#include "telemetry/counters.h"
#include "telemetry/energy.h"
#include "telemetry/filter.h"
#include "telemetry/health.h"
#include "telemetry/sensor.h"
#include "telemetry/settling.h"
#include "util/csv.h"
#include "util/log.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "workload/app_model.h"
#include "workload/catalog.h"
#include "workload/mixes.h"

#endif  // PUPIL_PUPIL_H_
