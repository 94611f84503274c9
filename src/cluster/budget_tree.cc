#include "budget_tree.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstring>

#include "workload/catalog.h"

namespace pupil::cluster {

namespace {

double
wallNow()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(clock::now().time_since_epoch())
        .count();
}

constexpr net::EndpointId kRootEndpoint{-1, -1};

net::EndpointId
rackEndpoint(size_t rack)
{
    return {int32_t(rack), -1};
}

net::EndpointId
nodeEndpoint(size_t rack, size_t node)
{
    return {int32_t(rack), int32_t(node)};
}

}  // namespace

BudgetTree::BudgetTree(const Options& options) : options_(options)
{
    harness::SweepRunner::Options ropts;
    ropts.threads = options.threads;
    ropts.deriveSeeds = false;  // node seeds are fixed at addNode time
    ropts.keepTraces = false;
    ropts.progress = [](const harness::SweepProgress&) {};
    runner_ = harness::SweepRunner(ropts);
    transport_ = std::make_unique<net::LocalTransport>();
}

size_t
BudgetTree::addRack(const std::string& name)
{
    assert(!started_);
    auto rack = std::make_unique<Rack>();
    rack->name = name;
    racks_.push_back(std::move(rack));
    return racks_.size() - 1;
}

size_t
BudgetTree::addNode(size_t rackIndex, const std::string& name,
                    const std::vector<sched::AppDemand>& apps,
                    harness::GovernorKind kind, uint64_t seed,
                    const std::string& faultSpec,
                    const load::LoadDriver::Options& load)
{
    assert(!started_);
    Rack& rack = *racks_[rackIndex];
    auto node = std::make_unique<Node>();
    node->name = name;
    sim::PlatformOptions popts;
    popts.seed = seed;
    popts.faultSpec = faultSpec;
    std::vector<sched::AppDemand> demand = apps;
    const size_t firstLoadSlot = demand.size();
    if (load.enabled) {
        for (size_t s = 0; s < std::max<size_t>(load.slots, 1); ++s)
            demand.push_back({&workload::calibrationApp(), 0});
    }
    node->platform =
        std::make_unique<sim::Platform>(popts, std::move(demand));
    node->platform->warmStart(machine::maximalConfig());
    node->rapl = std::make_unique<rapl::RaplController>();
    node->governor = harness::makeGovernor(kind);
    node->governor->attachRapl(node->rapl.get());
    node->platform->addActor(node->rapl.get());
    node->platform->addActor(node->governor.get());
    if (load.enabled) {
        const uint64_t loadSeed =
            load.seed != 0
                ? load.seed
                : harness::SweepRunner::deriveSeed(seed, 0x70AD);
        node->load = std::make_unique<load::LoadDriver>(
            load, firstLoadSlot, loadSeed);
        node->load->attachGovernor(node->governor.get());
        node->platform->addActor(node->load.get());
    }
    // Node platforms stay untraced: a trace::Recorder is single-owner and
    // the leaves step concurrently. The tree emits the cluster- and
    // rack-level timeline into the recorder attached via attachTrace().
    node->leaf = std::make_unique<FullStackLeaf>(
        node->platform.get(), node->governor.get(), node->rapl.get(),
        node->load.get());
    rack.nodes.push_back(std::move(node));
    return rack.nodes.size() - 1;
}

size_t
BudgetTree::addSurrogateNode(size_t rackIndex, const std::string& name,
                             const std::string& app,
                             harness::GovernorKind kind, uint64_t seed,
                             const SurrogateLeaf::Options& leafOptions)
{
    assert(!started_);
    Rack& rack = *racks_[rackIndex];
    auto node = std::make_unique<Node>();
    node->name = name;
    // All surrogate nodes of a cell share the cell's response table;
    // std::map gives the model a stable address for the leaf to hold.
    SurrogateModel& model = surrogates_.cell(app, int(kind));
    node->leaf = std::make_unique<SurrogateLeaf>(&model, leafOptions, seed);
    rack.nodes.push_back(std::move(node));
    return rack.nodes.size() - 1;
}

void
BudgetTree::addCalibrationSource(size_t rackIndex, size_t nodeIndex,
                                 const std::string& app,
                                 harness::GovernorKind kind)
{
    assert(!started_);
    assert(racks_[rackIndex]->nodes[nodeIndex]->leaf->fullStack());
    calibration_.push_back(
        {rackIndex, nodeIndex, &surrogates_.cell(app, int(kind))});
}

void
BudgetTree::attachTrace(trace::Recorder* recorder)
{
    trace_ = recorder;
    transport_->attachTrace(recorder);
}

size_t
BudgetTree::totalNodes() const
{
    size_t count = 0;
    for (const auto& rack : racks_)
        count += rack->nodes.size();
    return count;
}

double
BudgetTree::totalGrantWatts() const
{
    double total = 0.0;
    for (const auto& rack : racks_) {
        if (rack->online)
            total += rack->grantWatts;
    }
    return total;
}

double
BudgetTree::totalCapWatts() const
{
    double total = 0.0;
    for (const auto& rack : racks_) {
        for (const auto& node : rack->nodes) {
            if (node->online)
                total += node->capWatts;
        }
    }
    return total;
}

double
BudgetTree::totalPowerWatts() const
{
    double total = 0.0;
    for (const auto& rack : racks_) {
        for (const auto& node : rack->nodes) {
            if (node->online)
                total += node->leaf->truePower();
        }
    }
    return total;
}

double
BudgetTree::aggregatePerformance() const
{
    double total = 0.0;
    for (const auto& rack : racks_) {
        for (const auto& node : rack->nodes) {
            if (node->online)
                total += node->leaf->normalizedPerf();
        }
    }
    return total;
}

BudgetPolicy
BudgetTree::policy() const
{
    BudgetPolicy policy;
    policy.donationFraction = options_.donationFraction;
    return policy;
}

double
BudgetTree::agedDemand(double watts, double sentSec) const
{
    if (sentSec < 0.0)
        return 0.0;  // never reported
    // Send-time aging: a report the network delayed past the staleness
    // horizon carries data about a cluster that no longer exists, so the
    // receiver treats the child as unmeasured (the policy's implausible-
    // reading guard then grants it the floor weight).
    return (now_ - sentSec) <= options_.demandStaleSec + 1e-9 ? watts : 0.0;
}

double
BudgetTree::rackGrantViewWatts(size_t rack) const
{
    if (!started_ || !rackAgents_[rack].haveGrant)
        return 0.0;
    return rackAgents_[rack].grantViewWatts;
}

// ---------------------------------------------------------------------------
// Child views. Each endpoint builds its policy input from ITS OWN state:
// the root from announced populations and its granted watts, a rack agent
// from its member view and delivered grant. Before run() both fall back to
// construction-time topology so budgetErrorWatts() is well-defined.
// ---------------------------------------------------------------------------

std::vector<ChildBudget>
BudgetTree::rootChildren() const
{
    // A rack's ceiling and floor scale with its live population: it can
    // absorb at most onlineNodes * TDP and must always be able to hand
    // every online node its floor.
    std::vector<ChildBudget> children(racks_.size());
    for (size_t r = 0; r < racks_.size(); ++r) {
        const size_t pop =
            started_ ? root_.onlinePop[r] : racks_[r]->nodes.size();
        children[r].capWatts = racks_[r]->grantWatts;
        children[r].maxCapWatts = double(pop) * options_.nodeTdpWatts;
        children[r].minShareWatts = double(pop) * options_.minNodeCapWatts;
        children[r].online = racks_[r]->online && pop > 0;
    }
    return children;
}

std::vector<ChildBudget>
BudgetTree::rackAgentChildren(size_t rackIndex) const
{
    const Rack& rack = *racks_[rackIndex];
    std::vector<ChildBudget> children(rack.nodes.size());
    for (size_t i = 0; i < rack.nodes.size(); ++i) {
        children[i].maxCapWatts = options_.nodeTdpWatts;
        children[i].minShareWatts = options_.minNodeCapWatts;
        if (started_) {
            const RackAgent& agent = rackAgents_[rackIndex];
            children[i].capWatts = agent.grantedCapWatts[i];
            children[i].online = agent.memberOnline[i];
        } else {
            children[i].capWatts = rack.nodes[i]->capWatts;
            children[i].online = rack.nodes[i]->online;
        }
    }
    return children;
}

double
BudgetTree::budgetErrorWatts() const
{
    // Each level is measured against what was DELIVERED to it. Under
    // partition the root's view of a rack grant and the rack's own view
    // can diverge legitimately; conservation must still hold per view.
    double worst =
        conservationError(rootChildren(), options_.globalBudgetWatts);
    for (size_t r = 0; r < racks_.size(); ++r) {
        const double delivered =
            started_ ? (rackAgents_[r].haveGrant
                            ? rackAgents_[r].grantViewWatts
                            : 0.0)
                     : racks_[r]->grantWatts;
        worst = std::max(
            worst, conservationError(rackAgentChildren(r), delivered));
    }
    return worst;
}

// ---------------------------------------------------------------------------
// Endpoint handlers: the ONLY way state crosses a parent<->child boundary.
// Every stream applies a message iff its seq advances past the last seen
// one, which makes duplicated and reordered deliveries idempotent.
// ---------------------------------------------------------------------------

void
BudgetTree::bindEndpoints()
{
    transport_->bind(kRootEndpoint,
                     [this](const net::Message& m) { onRootMessage(m); });
    for (size_t r = 0; r < racks_.size(); ++r) {
        transport_->bind(rackEndpoint(r), [this, r](const net::Message& m) {
            onRackMessage(r, m);
        });
        for (size_t n = 0; n < racks_[r]->nodes.size(); ++n) {
            transport_->bind(nodeEndpoint(r, n),
                             [this, r, n](const net::Message& m) {
                                 onNodeMessage(r, n, m);
                             });
        }
    }
}

void
BudgetTree::onRootMessage(const net::Message& message)
{
    const size_t r = size_t(message.rack);
    if (message.rack < 0 || r >= racks_.size())
        return;
    switch (message.kind) {
      case net::MsgKind::kDemandReport: {
        if (message.seq <= root_.reportSeqSeen[r])
            return;
        root_.reportSeqSeen[r] = message.seq;
        root_.demandWatts[r] = message.valueWatts;
        root_.demandTimeSec[r] = message.timeSec;
        return;
      }
      case net::MsgKind::kRackDark:
      case net::MsgKind::kRackBright: {
        // Periodic idempotent liveness announcements; value carries the
        // rack's live population so the root's floors/ceilings track
        // membership without per-node forwarding.
        if (message.seq <= root_.memberSeqSeen[r])
            return;
        root_.memberSeqSeen[r] = message.seq;
        root_.onlinePop[r] = size_t(message.valueWatts + 0.5);
        const bool online = message.kind == net::MsgKind::kRackBright;
        if (racks_[r]->online != online) {
            racks_[r]->online = online;
            rootLivenessChanged_ = true;
            if (online)
                rejoinedRacks_.push_back(r);
            else
                racks_[r]->grantWatts = 0.0;  // dark rack returns its grant
        }
        return;
      }
      default:
        return;
    }
}

void
BudgetTree::onRackMessage(size_t rackIndex, const net::Message& message)
{
    RackAgent& agent = rackAgents_[rackIndex];
    switch (message.kind) {
      case net::MsgKind::kCapGrant: {
        // From the root: a new grant view for this rack.
        if (message.seq <= agent.grantSeqSeen)
            return;
        agent.grantSeqSeen = message.seq;
        agent.grantViewWatts = message.valueWatts;
        agent.haveGrant = true;
        agent.grantChanged = true;
        return;
      }
      case net::MsgKind::kDemandReport: {
        const size_t n = size_t(message.node);
        if (message.node < 0 || n >= agent.demandSeqSeen.size())
            return;
        if (message.seq <= agent.demandSeqSeen[n])
            return;
        agent.demandSeqSeen[n] = message.seq;
        agent.demandWatts[n] = message.valueWatts;
        agent.demandTimeSec[n] = message.timeSec;
        return;
      }
      case net::MsgKind::kNodeLeave: {
        const size_t n = size_t(message.node);
        if (message.node < 0 || n >= agent.memberOnline.size())
            return;
        if (message.seq <= agent.memberSeqSeen[n])
            return;
        agent.memberSeqSeen[n] = message.seq;
        if (!agent.memberOnline[n])
            return;  // steady-state re-announcement
        agent.memberOnline[n] = false;
        agent.grantedCapWatts[n] = 0.0;
        --agent.onlineMembers;
        agent.popChanged = true;
        ++lossEvents_;
        metrics_.addCounter("cluster.node_loss");
        trace::emit(trace_, now_, trace::EventKind::kNodeLoss,
                    message.valueWatts, 0.0, int32_t(rackIndex),
                    int32_t(n));
        return;
      }
      case net::MsgKind::kNodeJoin: {
        const size_t n = size_t(message.node);
        if (message.node < 0 || n >= agent.memberOnline.size())
            return;
        if (message.seq <= agent.memberSeqSeen[n])
            return;
        agent.memberSeqSeen[n] = message.seq;
        if (agent.memberOnline[n])
            return;  // steady-state re-announcement
        agent.memberOnline[n] = true;
        ++agent.onlineMembers;
        agent.popChanged = true;
        ++rejoinEvents_;
        metrics_.addCounter("cluster.node_rejoins");
        agent.rejoined.push_back(n);
        return;
      }
      default:
        return;
    }
}

void
BudgetTree::onNodeMessage(size_t rackIndex, size_t nodeIndex,
                          const net::Message& message)
{
    if (message.kind != net::MsgKind::kCapGrant)
        return;
    NodeAgent& agent = nodeAgents_[rackIndex][nodeIndex];
    if (message.seq <= agent.appliedGrantSeq)
        return;
    agent.appliedGrantSeq = message.seq;
    Node& node = *racks_[rackIndex]->nodes[nodeIndex];
    if (!node.online || node.failed)
        return;
    // The node-side safety envelope: whatever the network delivered, the
    // enforced cap never leaves [floor, TDP]. The leaf enforces it on its
    // governor AND its RAPL firmware together (FullStackLeaf) or on its
    // response table (SurrogateLeaf).
    const double cap = std::clamp(message.valueWatts,
                                  options_.minNodeCapWatts,
                                  options_.nodeTdpWatts);
    node.capWatts = cap;
    node.leaf->applyCap(cap);
}

// ---------------------------------------------------------------------------
// Node-agent actions.
// ---------------------------------------------------------------------------

void
BudgetTree::nodeAnnounce(size_t rackIndex, size_t nodeIndex)
{
    Node& node = *racks_[rackIndex]->nodes[nodeIndex];
    NodeAgent& agent = nodeAgents_[rackIndex][nodeIndex];
    // A platform that threw during a step is isolated for good; scheduled
    // node-loss windows end and the node rejoins.
    const bool lost =
        node.failed ||
        (schedule_ != nullptr &&
         schedule_->anyActive(faults::FaultKind::kNodeLoss, node.name,
                              now_));
    double value = node.capWatts;
    if (lost && node.online) {
        // Leave announcement carries the watts the leaver returns.
        node.online = false;
        node.capWatts = 0.0;
    } else if (!lost && !node.online) {
        node.online = true;
        value = 0.0;
    }
    // Announce current state EVERY round, not just on transitions: the
    // rack applies announcements idempotently, so a dropped leave/join
    // converges at the next round instead of diverging forever.
    net::Message m;
    m.kind = node.online ? net::MsgKind::kNodeJoin
                         : net::MsgKind::kNodeLeave;
    m.seq = ++agent.memberSeqOut;
    m.rack = int32_t(rackIndex);
    m.node = int32_t(nodeIndex);
    m.timeSec = now_;
    m.valueWatts = value;
    transport_->send(nodeEndpoint(rackIndex, nodeIndex),
                     rackEndpoint(rackIndex), m, now_);
}

void
BudgetTree::nodeReport(size_t rackIndex, size_t nodeIndex)
{
    Node& node = *racks_[rackIndex]->nodes[nodeIndex];
    if (!node.online || node.failed)
        return;
    // The meter channel (readPower) is what a real cluster manager sees:
    // noisy and fault-prone, which is why the policy's implausible-reading
    // guard exists. Exactly one read per live node per period, in fixed
    // rack-major order, after the stepping barrier -- the cross-node half
    // of the determinism argument. The read happens even when hysteresis
    // then suppresses the send: the delta gate needs the sample, and a
    // full-stack meter's RNG stream must advance identically whether or
    // not the report goes out.
    NodeAgent& agent = nodeAgents_[rackIndex][nodeIndex];
    const double power = node.leaf->readPower();
    if (options_.hysteresisWatts > 0.0) {
        // Heartbeat at half the staleness horizon: suppression must never
        // age a live, quiescent node into the stale-report guard.
        const double refreshSec = 0.5 * options_.demandStaleSec;
        const bool heartbeatDue =
            agent.lastReportSec < 0.0 ||
            now_ - agent.lastReportSec >= refreshSec - 1e-9;
        if (!heartbeatDue &&
            std::abs(power - agent.lastReportWatts) <=
                options_.hysteresisWatts) {
            ++reportsSuppressed_;
            return;
        }
    }
    agent.lastReportWatts = power;
    agent.lastReportSec = now_;
    net::Message m;
    m.kind = net::MsgKind::kDemandReport;
    m.seq = ++agent.reportSeqOut;
    m.rack = int32_t(rackIndex);
    m.node = int32_t(nodeIndex);
    m.timeSec = now_;
    m.valueWatts = power;
    transport_->send(nodeEndpoint(rackIndex, nodeIndex),
                     rackEndpoint(rackIndex), m, now_);
}

// ---------------------------------------------------------------------------
// Rack-agent actions.
// ---------------------------------------------------------------------------

void
BudgetTree::fillRackPool(size_t rackIndex)
{
    // In-place pack of the agent's member view into its persistent SoA
    // pool: the same values rackAgentChildren() builds, without the
    // per-call ChildBudget allocation -- at 6400 racks every period, the
    // difference is the control plane's allocation rate.
    RackAgent& agent = rackAgents_[rackIndex];
    BudgetPool& pool = agent.pool;
    const size_t n = agent.memberOnline.size();
    for (size_t i = 0; i < n; ++i) {
        pool.capWatts[i] = agent.grantedCapWatts[i];
        pool.powerWatts[i] = 0.0;
        pool.maxCapWatts[i] = options_.nodeTdpWatts;
        pool.minShareWatts[i] = options_.minNodeCapWatts;
        pool.online[i] = agent.memberOnline[i] ? 1 : 0;
    }
}

void
BudgetTree::rackAnnounceUp(size_t rackIndex)
{
    RackAgent& agent = rackAgents_[rackIndex];
    net::Message m;
    m.kind = agent.onlineMembers > 0 ? net::MsgKind::kRackBright
                                     : net::MsgKind::kRackDark;
    m.seq = ++agent.upMemberSeqOut;
    m.rack = int32_t(rackIndex);
    m.timeSec = now_;
    m.valueWatts = double(agent.onlineMembers);
    transport_->send(rackEndpoint(rackIndex), kRootEndpoint, m, now_);
}

void
BudgetTree::rackRedivide(size_t rackIndex)
{
    // Re-divide the delivered grant: survivors keep relative shares,
    // rejoiners get an even share, floors and ceilings re-imposed.
    RackAgent& agent = rackAgents_[rackIndex];
    fillRackPool(rackIndex);
    reshareBudgets(agent.pool,
                   agent.haveGrant ? agent.grantViewWatts : 0.0,
                   agent.rejoined);
    for (size_t i = 0; i < agent.grantedCapWatts.size(); ++i)
        agent.grantedCapWatts[i] = agent.pool.capWatts[i];
    for (size_t i : agent.rejoined) {
        if (agent.memberOnline[i])
            trace::emit(trace_, now_, trace::EventKind::kNodeRejoin,
                        agent.grantedCapWatts[i], 0.0, int32_t(rackIndex),
                        int32_t(i));
    }
    agent.rejoined.clear();
    agent.popChanged = false;
    agent.grantChanged = false;
    agent.dirty = true;
}

void
BudgetTree::rackRebalanceLocal(size_t rackIndex)
{
    RackAgent& agent = rackAgents_[rackIndex];
    if (agent.onlineMembers == 0)
        return;
    fillRackPool(rackIndex);
    BudgetPool& pool = agent.pool;
    for (size_t i = 0; i < pool.size(); ++i) {
        if (pool.online[i])
            pool.powerWatts[i] =
                agedDemand(agent.demandWatts[i], agent.demandTimeSec[i]);
    }
    if (options_.hysteresisWatts > 0.0) {
        // Dirty-subtree gate: this rack's division is recomputed only
        // when some member's demand moved past the band since the
        // division the rack last acted on. Membership changes bypass the
        // gate entirely (they re-divide in settleRacks).
        double maxDelta = 0.0;
        for (size_t i = 0; i < pool.size(); ++i) {
            if (pool.online[i])
                maxDelta = std::max(
                    maxDelta,
                    std::abs(pool.powerWatts[i] - agent.lastActedDemand[i]));
        }
        if (maxDelta <= options_.hysteresisWatts) {
            ++rebalancesSuppressed_;
            return;
        }
        for (size_t i = 0; i < pool.size(); ++i)
            agent.lastActedDemand[i] =
                pool.online[i] ? pool.powerWatts[i] : 0.0;
    }
    const double moved = rebalanceBudgets(pool, policy());
    if (moved <= 0.0)
        return;
    for (size_t i = 0; i < agent.grantedCapWatts.size(); ++i)
        agent.grantedCapWatts[i] = pool.capWatts[i];
    agent.dirty = true;
    ++shifts_;
    metrics_.addCounter("cluster.rebalances");
    double rackPower = 0.0;
    for (size_t i = 0; i < pool.size(); ++i) {
        if (pool.online[i])
            rackPower += pool.powerWatts[i];
    }
    trace::emit(trace_, now_, trace::EventKind::kRackRebalance,
                agent.haveGrant ? agent.grantViewWatts : 0.0, rackPower,
                int32_t(rackIndex), int32_t(moved));
}

void
BudgetTree::rackReportUp(size_t rackIndex)
{
    RackAgent& agent = rackAgents_[rackIndex];
    if (agent.onlineMembers == 0)
        return;
    double sum = 0.0;
    for (size_t i = 0; i < agent.memberOnline.size(); ++i) {
        if (agent.memberOnline[i])
            sum += agedDemand(agent.demandWatts[i], agent.demandTimeSec[i]);
    }
    if (options_.hysteresisWatts > 0.0) {
        // Same delta-or-heartbeat gate as the node reports, one level up:
        // a quiescent rack subtree publishes nothing.
        const double refreshSec = 0.5 * options_.demandStaleSec;
        const bool heartbeatDue =
            agent.lastUpSec < 0.0 ||
            now_ - agent.lastUpSec >= refreshSec - 1e-9;
        if (!heartbeatDue &&
            std::abs(sum - agent.lastUpWatts) <= options_.hysteresisWatts) {
            ++reportsSuppressed_;
            return;
        }
        agent.lastUpWatts = sum;
        agent.lastUpSec = now_;
    }
    net::Message m;
    m.kind = net::MsgKind::kDemandReport;
    m.seq = ++agent.upReportSeqOut;
    m.rack = int32_t(rackIndex);
    m.timeSec = now_;
    m.valueWatts = sum;
    transport_->send(rackEndpoint(rackIndex), kRootEndpoint, m, now_);
}

void
BudgetTree::rackSendCaps(size_t rackIndex)
{
    // One batched round of grant messages per rack and per round, no
    // matter how many stages (membership re-divide, local rebalance, root
    // reshare) touched the division -- each member's governor sees at most
    // one cap change per period.
    RackAgent& agent = rackAgents_[rackIndex];
    for (size_t n = 0; n < agent.memberOnline.size(); ++n) {
        if (!agent.memberOnline[n])
            continue;
        net::Message m;
        m.kind = net::MsgKind::kCapGrant;
        m.seq = ++agent.grantSeqOut[n];
        m.rack = int32_t(rackIndex);
        m.node = int32_t(n);
        m.timeSec = now_;
        m.valueWatts = agent.grantedCapWatts[n];
        transport_->send(rackEndpoint(rackIndex), nodeEndpoint(rackIndex, n),
                         m, now_);
    }
    agent.dirty = false;
}

// ---------------------------------------------------------------------------
// Root-controller actions.
// ---------------------------------------------------------------------------

void
BudgetTree::fillRootPool()
{
    // In-place pack of the root's rack view into its persistent SoA pool
    // (the same values rootChildren() builds, allocation-free).
    BudgetPool& pool = root_.pool;
    for (size_t r = 0; r < racks_.size(); ++r) {
        const size_t pop = root_.onlinePop[r];
        pool.capWatts[r] = racks_[r]->grantWatts;
        pool.powerWatts[r] = 0.0;
        pool.maxCapWatts[r] = double(pop) * options_.nodeTdpWatts;
        pool.minShareWatts[r] = double(pop) * options_.minNodeCapWatts;
        pool.online[r] = (racks_[r]->online && pop > 0) ? 1 : 0;
    }
}

void
BudgetTree::rootMembershipAct()
{
    // A rack going dark or coming back moves watts *between* racks, so
    // the root reshares grants on announced liveness transitions. It also
    // reshares when the announced populations have drifted the
    // outstanding grants out of conservation -- a rack that shrank (but
    // stayed bright) can be holding watts its surviving ceilings cannot
    // absorb, and one that grew can absorb watts that were unplaceable
    // before; either way the proportional reshare re-pins sum(grants) to
    // what the surviving populations can actually take. In event-driven
    // mode this conservation trigger doubles as the safety net under the
    // suppressed paths: any stranded watts re-pin the grants here.
    fillRootPool();
    BudgetPool& pool = root_.pool;
    const double tol = 1e-7 * options_.globalBudgetWatts + 1e-9;
    if (!rootLivenessChanged_ &&
        conservationError(pool, options_.globalBudgetWatts) <= tol)
        return;
    rootLivenessChanged_ = false;
    reshareBudgets(pool, options_.globalBudgetWatts, rejoinedRacks_);
    rejoinedRacks_.clear();
    for (size_t r = 0; r < racks_.size(); ++r) {
        if (std::abs(pool.capWatts[r] - racks_[r]->grantWatts) <= 1e-12)
            continue;
        trace::emit(trace_, now_, trace::EventKind::kRackGrant,
                    pool.capWatts[r], racks_[r]->grantWatts, int32_t(r));
        racks_[r]->grantWatts = pool.capWatts[r];
        net::Message m;
        m.kind = net::MsgKind::kCapGrant;
        m.seq = ++root_.grantSeqOut[r];
        m.rack = int32_t(r);
        m.timeSec = now_;
        m.valueWatts = racks_[r]->grantWatts;
        transport_->send(kRootEndpoint, rackEndpoint(r), m, now_);
    }
}

void
BudgetTree::rootRebalance()
{
    // The same policy over racks, fed by the racks' aggregate reports.
    fillRootPool();
    BudgetPool& pool = root_.pool;
    for (size_t r = 0; r < racks_.size(); ++r) {
        if (pool.online[r])
            pool.powerWatts[r] =
                agedDemand(root_.demandWatts[r], root_.demandTimeSec[r]);
    }
    if (options_.hysteresisWatts > 0.0) {
        // The root recomputes the cross-rack division only when some rack
        // subtree is dirty -- its aggregate demand moved past the band
        // since the division the root last acted on. The rebalance itself
        // then spans all online racks: a newly hungry rack must be able
        // to pull watts from a quiescent donor's standing headroom.
        bool anyDirty = false;
        for (size_t r = 0; r < racks_.size(); ++r) {
            if (pool.online[r] &&
                std::abs(pool.powerWatts[r] - root_.lastActedDemand[r]) >
                    options_.hysteresisWatts) {
                anyDirty = true;
                break;
            }
        }
        if (!anyDirty) {
            ++rebalancesSuppressed_;
            return;
        }
        for (size_t r = 0; r < racks_.size(); ++r)
            root_.lastActedDemand[r] =
                pool.online[r] ? pool.powerWatts[r] : 0.0;
    }
    const double moved = rebalanceBudgets(pool, policy());
    if (moved <= 0.0)
        return;
    ++shifts_;
    metrics_.addCounter("cluster.rebalances");
    for (size_t r = 0; r < racks_.size(); ++r) {
        if (!racks_[r]->online ||
            std::abs(pool.capWatts[r] - racks_[r]->grantWatts) <= 1e-12)
            continue;
        trace::emit(trace_, now_, trace::EventKind::kRackGrant,
                    pool.capWatts[r], racks_[r]->grantWatts, int32_t(r));
        racks_[r]->grantWatts = pool.capWatts[r];
        net::Message m;
        m.kind = net::MsgKind::kCapGrant;
        m.seq = ++root_.grantSeqOut[r];
        m.rack = int32_t(r);
        m.timeSec = now_;
        m.valueWatts = racks_[r]->grantWatts;
        transport_->send(kRootEndpoint, rackEndpoint(r), m, now_);
    }
    rootRebalanced_ = true;
}

// ---------------------------------------------------------------------------
// Per-period phases.
// ---------------------------------------------------------------------------

void
BudgetTree::tracePartitions()
{
    if (plane_ == nullptr)
        return;
    for (size_t r = 0; r < racks_.size(); ++r) {
        const bool active = plane_->partitionActive(int32_t(r), now_);
        if (active == bool(rackPartitioned_[r]))
            continue;
        rackPartitioned_[r] = active;
        trace::emit(trace_, now_, trace::EventKind::kPartition, 0.0, 0.0,
                    int32_t(r), active ? 1 : 0);
        if (active)
            metrics_.addCounter("cluster.partitions");
    }
}

void
BudgetTree::settleRacks()
{
    // Fold pending membership/grant changes into node caps and send them.
    // One iteration suffices with faults off; delayed stragglers delivered
    // mid-settle can re-flag a rack, so loop (bounded) until quiescent --
    // this is what keeps the per-view conservation gate closed at the end
    // of every phase no matter what the network reordered.
    for (int round = 0; round < 4; ++round) {
        bool acted = false;
        for (size_t r = 0; r < racks_.size(); ++r) {
            RackAgent& agent = rackAgents_[r];
            if (!agent.popChanged && !agent.grantChanged)
                continue;
            if (agent.onlineMembers > 0) {
                rackRedivide(r);
                acted = true;
            } else {
                // Dark rack: nothing to divide; caps already zeroed as
                // the members left.
                agent.popChanged = false;
                agent.grantChanged = false;
                agent.rejoined.clear();
            }
        }
        for (size_t r = 0; r < racks_.size(); ++r) {
            if (rackAgents_[r].dirty) {
                rackSendCaps(r);
                acted = true;
            }
        }
        if (!acted)
            break;
        transport_->deliver(now_);
    }
}

void
BudgetTree::membershipPhase()
{
    tracePartitions();
    transport_->deliver(now_);  // delayed stragglers from prior rounds
    for (size_t r = 0; r < racks_.size(); ++r) {
        for (size_t n = 0; n < racks_[r]->nodes.size(); ++n)
            nodeAnnounce(r, n);
    }
    transport_->deliver(now_);  // racks fold announcements into members
    for (size_t r = 0; r < racks_.size(); ++r)
        rackAnnounceUp(r);
    transport_->deliver(now_);  // root folds rack liveness
    rootMembershipAct();
    transport_->deliver(now_);  // racks receive reshared grants
    settleRacks();
    assert(budgetErrorWatts() <
           1e-6 * options_.globalBudgetWatts + 1e-9);
}

void
BudgetTree::stepNodes()
{
    // Advance every live node platform to now_ on the bounded pool. Nodes
    // share no mutable state (each owns its platform, machine, governor,
    // and RNG streams), so serial and parallel stepping are byte-identical
    // -- the SweepRunner determinism argument at cluster scale. A node
    // whose platform throws is isolated (failed, removed at the next
    // membership round) instead of aborting the cluster.
    std::vector<Node*> live;
    live.reserve(totalNodes());
    for (auto& rack : racks_) {
        for (auto& node : rack->nodes) {
            if (node->online && !node->failed)
                live.push_back(node.get());
        }
    }
    const double target = now_;
    const double start = wallNow();
    const std::vector<std::string> errors = runner_.forEach(
        live.size(), [&](size_t i) { live[i]->leaf->stepTo(target); });
    stepWallSec_ += wallNow() - start;
    for (size_t i = 0; i < errors.size(); ++i) {
        if (errors[i].empty())
            continue;
        live[i]->failed = true;
        ++nodeFailures_;
        metrics_.addCounter("cluster.node_failures");
    }
}

void
BudgetTree::reportPhase()
{
    // Calibration first: each registered full-stack sample folds its
    // settled ground-truth response at its enforced cap into its
    // surrogate cell's table. Ground truth draws no RNG and the sources
    // run in registration order on the control thread, so calibration is
    // deterministic and digest-neutral for full-stack nodes.
    for (const CalibrationSource& src : calibration_) {
        const Node& node = *racks_[src.rack]->nodes[src.node];
        if (!node.online || node.failed || node.capWatts <= 0.0)
            continue;
        src.model->observe(node.capWatts, node.leaf->truePower(),
                           node.leaf->normalizedPerf());
    }
    for (size_t r = 0; r < racks_.size(); ++r) {
        for (size_t n = 0; n < racks_[r]->nodes.size(); ++n)
            nodeReport(r, n);
    }
    transport_->deliver(now_);  // racks record node demand
}

void
BudgetTree::rebalancePhase()
{
    // Leaf level first: each rack shifts watts among its own nodes under
    // its delivered grant, then reports its aggregate up.
    for (size_t r = 0; r < racks_.size(); ++r)
        rackRebalanceLocal(r);
    for (size_t r = 0; r < racks_.size(); ++r)
        rackReportUp(r);
    transport_->deliver(now_);  // root records rack demand
    rootRebalance();
    transport_->deliver(now_);  // racks receive shifted grants
    settleRacks();
    if (rootRebalanced_) {
        // Emitted after the settle so the totals reflect the re-divided,
        // applied caps (as they always have).
        rootRebalanced_ = false;
        trace::emit(trace_, now_, trace::EventKind::kRebalance,
                    totalCapWatts(), totalPowerWatts(), shifts_);
    }
    assert(budgetErrorWatts() <
           1e-6 * options_.globalBudgetWatts + 1e-9);
}

void
BudgetTree::refreshInvariant()
{
    const double error = budgetErrorWatts();
    metrics_.setGauge("cluster.budget_error", error);
    size_t racksOnline = 0;
    size_t nodesOnline = 0;
    for (const auto& rack : racks_) {
        if (rack->online)
            ++racksOnline;
        for (const auto& node : rack->nodes) {
            if (node->online)
                ++nodesOnline;
        }
    }
    metrics_.setGauge("cluster.racks", double(racksOnline));
    metrics_.setGauge("cluster.nodes_online", double(nodesOnline));
    metrics_.setGauge("cluster.msgs_sent", double(transport_->stats().sent));
    metrics_.setGauge("cluster.msgs_dropped",
                      double(transport_->stats().dropped));
    assert(error < 1e-6 * options_.globalBudgetWatts + 1e-9);
}

void
BudgetTree::run(double untilSec)
{
    if (schedule_ != nullptr) {
        std::vector<std::string> nodeNames;
        std::vector<std::string> rackNames;
        for (const auto& rack : racks_) {
            rackNames.push_back(rack->name);
            for (const auto& node : rack->nodes)
                nodeNames.push_back(node->name);
        }
        faults::validateClusterTargets(*schedule_, nodeNames, rackNames);
    }
    if (!started_) {
        started_ = true;
        root_.grantSeqOut.assign(racks_.size(), 0);
        root_.memberSeqSeen.assign(racks_.size(), 0);
        root_.reportSeqSeen.assign(racks_.size(), 0);
        root_.demandWatts.assign(racks_.size(), 0.0);
        root_.demandTimeSec.assign(racks_.size(), -1.0);
        root_.onlinePop.resize(racks_.size());
        root_.pool.resize(racks_.size());
        root_.lastActedDemand.assign(racks_.size(), 0.0);
        rackAgents_.assign(racks_.size(), RackAgent{});
        nodeAgents_.resize(racks_.size());
        for (size_t r = 0; r < racks_.size(); ++r) {
            const size_t n = racks_[r]->nodes.size();
            root_.onlinePop[r] = n;
            RackAgent& agent = rackAgents_[r];
            agent.onlineMembers = n;
            agent.memberOnline.assign(n, true);
            agent.grantedCapWatts.assign(n, 0.0);
            agent.grantSeqOut.assign(n, 0);
            agent.memberSeqSeen.assign(n, 0);
            agent.demandSeqSeen.assign(n, 0);
            agent.demandWatts.assign(n, 0.0);
            agent.demandTimeSec.assign(n, -1.0);
            agent.pool.resize(n);
            agent.lastActedDemand.assign(n, 0.0);
            nodeAgents_[r].assign(n, NodeAgent{});
        }
        rackPartitioned_.assign(racks_.size(), false);
        // The fault plane needs the topology names, so it is built here
        // rather than in the constructor. Message faults therefore require
        // the schedule to be attached before the first run().
        net::MessageFaultPlane::Topology topo;
        for (const auto& rack : racks_) {
            topo.rackNames.push_back(rack->name);
            topo.nodeNames.emplace_back();
            for (const auto& node : rack->nodes)
                topo.nodeNames.back().push_back(node->name);
        }
        plane_ = std::make_unique<net::MessageFaultPlane>(
            schedule_, options_.msgFaultSeed, std::move(topo));
        transport_->setFaultPlane(plane_.get());
        bindEndpoints();
        // Initial division: even shares root -> racks, then rack -> nodes
        // (the reshare in settleRacks over all-zero caps IS the even
        // split), delivered to every node's governor AND its RAPL firmware
        // before the first period -- no node runs uncapped waiting for the
        // first rebalance. If the network eats a first grant, the node
        // stays unprovisioned (capWatts 0) until a later grant lands.
        std::vector<ChildBudget> state = rootChildren();
        evenShares(state, options_.globalBudgetWatts);
        for (size_t r = 0; r < racks_.size(); ++r) {
            racks_[r]->grantWatts = state[r].capWatts;
            net::Message m;
            m.kind = net::MsgKind::kCapGrant;
            m.seq = ++root_.grantSeqOut[r];
            m.rack = int32_t(r);
            m.timeSec = now_;
            m.valueWatts = racks_[r]->grantWatts;
            transport_->send(kRootEndpoint, rackEndpoint(r), m, now_);
        }
        transport_->deliver(now_);
        settleRacks();
        refreshInvariant();
    }
    while (now_ < untilSec - 1e-9) {
        double mark = wallNow();
        membershipPhase();
        double control = wallNow() - mark;
        const double step = std::min(options_.periodSec, untilSec - now_);
        now_ += step;
        const double stepBefore = stepWallSec_;
        stepNodes();  // times itself into stepWallSec_
        mark = wallNow();
        reportPhase();
        rebalancePhase();
        refreshInvariant();
        ++periods_;
        control += wallNow() - mark;
        controlWallSec_ += control;
        // One sample per period, so steady state is separable from the
        // warm-up transient (bench/cluster_scale's median/p95 latency).
        controlWallPerPeriod_.push_back(control);
        stepWallPerPeriod_.push_back(stepWallSec_ - stepBefore);
    }
}

uint64_t
BudgetTree::stateDigest() const
{
    uint64_t hash = kFnvOffset;
    fnvMixDouble(hash, now_);
    fnvMix(hash, uint64_t(shifts_));
    fnvMix(hash, uint64_t(lossEvents_));
    fnvMix(hash, uint64_t(rejoinEvents_));
    fnvMix(hash, uint64_t(nodeFailures_));
    fnvMix(hash, uint64_t(periods_));
    for (const auto& rack : racks_) {
        fnvMixDouble(hash, rack->grantWatts);
        fnvMix(hash, rack->online ? 1 : 0);
        for (const auto& node : rack->nodes) {
            fnvMixDouble(hash, node->capWatts);
            fnvMix(hash, (node->online ? 1u : 0u) |
                             (node->failed ? 2u : 0u));
            // Each leaf mixes its own deterministic state: a full stack
            // mixes true power, per-app rates, and churn bookkeeping
            // (byte-compatible with the pre-seam digest); a surrogate
            // mixes its lagged response state.
            node->leaf->mixDigest(hash);
        }
    }
    return hash;
}

}  // namespace pupil::cluster
