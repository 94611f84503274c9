// Layer micro-probes for the traced run: the cost of one scheduler solve,
// one wire-codec round trip, and one budget-policy division at rack and
// root width. Each probe times kBatches batches over varied inputs and
// reports the median batch's per-call cost.
#include <algorithm>
#include <array>
#include <vector>

#include "bench.h"
#include "cluster/budget_policy.h"
#include "harness/experiment.h"
#include "machine/config.h"
#include "net/message.h"
#include "sched/scheduler.h"
#include "workload/mixes.h"

namespace pupil::benchmark {
namespace {

constexpr int kBatches = 9;

/** Per-call cost of @p batch (which makes @p calls calls), median of
 *  kBatches batches, in units of @p unitNs nanoseconds. */
template <typename Batch>
void
probe(WorkloadResult& out, const char* name, size_t calls, double unitNs,
      Batch&& batch)
{
    batch();  // warm caches and lazy statics
    std::vector<double> perCall;
    for (int b = 0; b < kBatches; ++b) {
        const int64_t start = nowNs();
        batch();
        perCall.push_back(double(nowNs() - start) / double(calls) / unitNs);
    }
    out.addMedian(name, perCall);
}

void
probeSolve(WorkloadResult& out, const char* name,
           const std::vector<sched::AppDemand>& apps)
{
    const sched::Scheduler scheduler;
    const std::vector<machine::MachineConfig> configs =
        machine::enumerateUserConfigs();
    const std::array<double, 2> duty = {1.0, 1.0};
    double sink = 0.0;
    probe(out, name, configs.size(), 1e3, [&] {
        for (const machine::MachineConfig& cfg : configs)
            sink += scheduler.solve(cfg, duty, apps).totalIps;
    });
    if (!(sink > 0.0))
        out.fail(std::string(name) + ": solves produced no throughput");
}

void
probeCodec(WorkloadResult& out)
{
    std::vector<net::Message> messages(4096);
    for (size_t i = 0; i < messages.size(); ++i) {
        net::Message& m = messages[i];
        m.kind = i % 2 == 0 ? net::MsgKind::kDemandReport
                            : net::MsgKind::kCapGrant;
        m.seq = uint32_t(i + 1);
        m.rack = int32_t(i % 2048);
        m.node = int32_t(i % 8);
        m.timeSec = double(i);
        m.valueWatts = 30.0 + 240.0 * uniformAt(0xC0DE, i);
    }
    size_t mismatches = 0;
    probe(out, "net.codec_ns", messages.size(), 1.0, [&] {
        for (const net::Message& m : messages) {
            const std::optional<net::Message> back =
                net::decode(net::encode(m));
            if (!back || back->seq != m.seq ||
                back->valueWatts != m.valueWatts)
                ++mismatches;
        }
    });
    if (mismatches > 0)
        out.fail("net.codec_ns: decode(encode(m)) != m");
}

/** One policy division over @p width children with seeded demand. */
void
probePolicy(WorkloadResult& out, const char* name, size_t width,
            size_t calls)
{
    cluster::BudgetPool pool;
    pool.resize(width);
    for (size_t i = 0; i < width; ++i) {
        pool.capWatts[i] = 150.0;
        pool.powerWatts[i] = 60.0 + 140.0 * uniformAt(0x9011C7, i);
        pool.maxCapWatts[i] = 270.0;
        pool.minShareWatts[i] = 30.0;
        pool.online[i] = 1;
    }
    const std::vector<double> caps = pool.capWatts;
    const cluster::BudgetPolicy policy;
    double moved = 0.0;
    probe(out, name, calls, 1e3, [&] {
        for (size_t c = 0; c < calls; ++c) {
            std::copy(caps.begin(), caps.end(), pool.capWatts.begin());
            moved += cluster::rebalanceBudgets(pool, policy);
        }
    });
    if (!(moved > 0.0))
        out.fail(std::string(name) + ": the division moved no watts");
}

}  // namespace

void
runProbes(WorkloadResult& out)
{
    probeSolve(out, "sched.solve_us_1app", harness::singleApp("x264"));
    probeSolve(out, "sched.solve_us_4app",
               harness::mixApps(workload::multiAppMixes()[8],
                                workload::Scenario::kOblivious));
    probeCodec(out);
    probePolicy(out, "policy.rack_divide_us", 8, 20000);
    probePolicy(out, "policy.root_rebalance_us", 2048, 200);
}

}  // namespace pupil::benchmark
