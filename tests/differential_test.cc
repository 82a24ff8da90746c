/**
 * @file
 * Seeded randomized differential harness for the fault-campaign
 * evaluation spine.
 *
 * Each case draws one (platform, profile, pipeline, fault suite,
 * operating point) tuple from a fixed-seed generator and demands
 * exact agreement across all four evaluation paths:
 *
 *   1. the scalar per-mission reference (runReference),
 *   2. the batched outcome-table path (run),
 *   3. both of the above with the SIMD kernels forced to the
 *      width-1 scalar backend (the in-process equivalent of
 *      UAVF1_SIMD=scalar),
 *
 * including which sample's ModelError throws first: a path that
 * throws must be matched by every other path throwing the same
 * message, so the batch kernels' rescan-on-failure contract is
 * pinned along with the happy path.
 *
 * Adding a case: extend one of the pools below (platforms, suites,
 * sample-count spreads) — every tuple is derived from the master
 * seed, so a pool change reshuffles later draws but keeps the run
 * reproducible. See ROADMAP.md, "Fault model & degraded-mode
 * contract".
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "components/catalog.hh"
#include "exec/thread_pool.hh"
#include "fault/campaign.hh"
#include "fault/fault_spec.hh"
#include "pipeline/redundancy.hh"
#include "simd/simd.hh"
#include "studies/presets.hh"
#include "support/errors.hh"
#include "support/rng.hh"
#include "workload/algorithm.hh"
#include "workload/spa_pipeline.hh"
#include "workload/throughput.hh"

namespace {

using namespace uavf1;
using namespace uavf1::fault;

/** Restore the ambient SIMD mode when a test scope exits. */
struct ModeGuard
{
    simd::Mode saved = simd::activeMode();
    ~ModeGuard() { simd::setMode(saved); }
};

/** One evaluation path's outcome: a result or the first error. */
struct PathOutcome
{
    bool threw = false;
    std::string error;
    CampaignResult result;
};

PathOutcome
runPath(const FaultCampaign &campaign, bool batched,
        std::size_t count, std::uint64_t seed,
        const exec::ParallelOptions &parallel)
{
    PathOutcome out;
    try {
        out.result = batched
                         ? campaign.run(count, seed, parallel)
                         : campaign.runReference(count, seed,
                                                 parallel);
    } catch (const ModelError &e) {
        out.threw = true;
        out.error = e.what();
    }
    return out;
}

/** Exact equality across every field of a CampaignResult. */
void
expectBitIdentical(const CampaignResult &a, const CampaignResult &b,
                   const std::string &label)
{
    EXPECT_EQ(a.safeVelocity.mean, b.safeVelocity.mean) << label;
    EXPECT_EQ(a.safeVelocity.stddev, b.safeVelocity.stddev) << label;
    EXPECT_EQ(a.safeVelocity.p5, b.safeVelocity.p5) << label;
    EXPECT_EQ(a.safeVelocity.p50, b.safeVelocity.p50) << label;
    EXPECT_EQ(a.safeVelocity.p95, b.safeVelocity.p95) << label;
    EXPECT_EQ(a.abortProbability, b.abortProbability) << label;
    ASSERT_EQ(a.faultActivationRate.size(),
              b.faultActivationRate.size())
        << label;
    for (std::size_t j = 0; j < a.faultActivationRate.size(); ++j)
        EXPECT_EQ(a.faultActivationRate[j],
                  b.faultActivationRate[j])
            << label;
    ASSERT_EQ(a.probComputeCeilingBinds.size(),
              b.probComputeCeilingBinds.size())
        << label;
    for (std::size_t k = 0; k < a.probComputeCeilingBinds.size();
         ++k)
        EXPECT_EQ(a.probComputeCeilingBinds[k],
                  b.probComputeCeilingBinds[k])
            << label;
    ASSERT_EQ(a.probMemoryCeilingBinds.size(),
              b.probMemoryCeilingBinds.size())
        << label;
    for (std::size_t k = 0; k < a.probMemoryCeilingBinds.size();
         ++k)
        EXPECT_EQ(a.probMemoryCeilingBinds[k],
                  b.probMemoryCeilingBinds[k])
            << label;
    ASSERT_EQ(a.stageBindings.size(), b.stageBindings.size())
        << label;
    for (std::size_t s = 0; s < a.stageBindings.size(); ++s) {
        EXPECT_EQ(a.stageBindings[s].stage,
                  b.stageBindings[s].stage)
            << label;
        EXPECT_EQ(a.stageBindings[s].probComputeBound,
                  b.stageBindings[s].probComputeBound)
            << label;
        EXPECT_EQ(a.stageBindings[s].probMemoryBound,
                  b.stageBindings[s].probMemoryBound)
            << label;
        EXPECT_EQ(a.stageBindings[s].probMeasured,
                  b.stageBindings[s].probMeasured)
            << label;
    }
    EXPECT_EQ(a.samples, b.samples) << label;
}

void
expectSameOutcome(const PathOutcome &a, const PathOutcome &b,
                  const std::string &label)
{
    ASSERT_EQ(a.threw, b.threw)
        << label << ": one path threw ('" << a.error << "' vs '"
        << b.error << "')";
    if (a.threw)
        EXPECT_EQ(a.error, b.error) << label;
    else
        expectBitIdentical(a.result, b.result, label);
}

/** Pick an element of `pool` from the tuple generator. */
template <typename T>
const T &
pick(Rng &rng, const std::vector<T> &pool)
{
    const auto index = static_cast<std::size_t>(
        rng.uniform() * static_cast<double>(pool.size()));
    return pool[index < pool.size() ? index : pool.size() - 1];
}

TEST(Differential, TwoHundredRandomTuplesAgreeAcrossAllFourPaths)
{
    ModeGuard guard;
    const auto catalog = components::Catalog::standard();
    const auto algorithms = workload::annotatedAlgorithms();
    const std::vector<std::string> platform_names = {
        "Nvidia TX2", "TX2-CPU + Navion"};
    const std::vector<std::string> algorithm_names =
        algorithms.names();
    std::vector<std::string> suite_names;
    for (const FaultSuite &suite : standardFaultSuites())
        suite_names.push_back(suite.name);
    const workload::SpaPipeline mavbench =
        workload::SpaPipeline::mavbenchPackageDeliveryTx2();

    // A small worker pool shared by every case: block decomposition
    // guarantees thread-count invariance, which the fault tests pin
    // separately; here the pool just keeps the harness fast.
    exec::ThreadPool pool(4);
    exec::ParallelOptions parallel;
    parallel.pool = &pool;

    Rng master(0x5eedD1FFull);
    const int cases = 200;
    int compared = 0;
    for (int c = 0; c < cases; ++c) {
        const std::string &platform_name =
            pick(master, platform_names);
        const std::string &algorithm_name =
            pick(master, algorithm_names);
        const std::string &suite_name = pick(master, suite_names);
        const platform::RooflinePlatform &machine =
            catalog.rooflines().byName(platform_name);
        const auto &algorithm = algorithms.byName(algorithm_name);
        const FaultSuite &suite = findFaultSuite(suite_name);

        bool needs_pipeline = false;
        for (const FaultSpec &fault : suite.faults) {
            needs_pipeline =
                needs_pipeline ||
                fault.kind == FaultKind::StageFailure ||
                fault.kind == FaultKind::StageLatencyInflation ||
                fault.kind == FaultKind::StageCeilingDerate ||
                fault.kind == FaultKind::StageTrafficInflation;
        }

        CampaignSpec spec;
        spec.nominal = studies::pelicanInputs(
            units::Hertz(5.0 + master.uniform() * 50.0));
        spec.platform = machine;
        spec.profile =
            workload::workloadProfile(algorithm, machine);
        spec.workPerFrameGop = algorithm.workPerFrameGop();
        spec.opIndex = static_cast<std::size_t>(
            master.uniform() *
            static_cast<double>(machine.operatingPoints().size()));
        if (spec.opIndex >= machine.operatingPoints().size())
            spec.opIndex = 0;
        if (needs_pipeline || master.uniform() < 0.5)
            spec.pipeline = mavbench;
        if (spec.pipeline && master.uniform() < 0.5)
            spec.redundancy = pipeline::RedundancyScheme::Dual;
        spec.faults = suite.faults;
        spec.probabilityScale =
            master.uniform() < 0.25 ? 1.0 : master.uniform();

        // Odd counts exercise partial kernel sub-blocks; the wide
        // spread also crosses the 2048-sample RNG block boundary.
        const std::size_t count =
            51 + static_cast<std::size_t>(master.uniform() * 2400.0);
        const auto seed =
            static_cast<std::uint64_t>(master.uniform() * 1e9);

        const std::string label =
            "case " + std::to_string(c) + ": " + platform_name +
            " / " + algorithm_name + " / " + suite_name + " / op " +
            std::to_string(spec.opIndex) + " / " +
            std::to_string(count) + " samples, seed " +
            std::to_string(seed);

        // A tuple the campaign itself rejects (e.g. a profile the
        // platform does not admit at this operating point) is
        // rejected identically regardless of evaluation path — the
        // constructor runs before any sampling — so it carries no
        // differential signal.
        std::optional<FaultCampaign> constructed;
        try {
            constructed.emplace(std::move(spec));
        } catch (const ModelError &) {
            continue;
        }
        const FaultCampaign &campaign = *constructed;

        simd::setMode(simd::Mode::Native);
        const PathOutcome reference =
            runPath(campaign, false, count, seed, parallel);
        const PathOutcome batched =
            runPath(campaign, true, count, seed, parallel);
        simd::setMode(simd::Mode::Scalar);
        const PathOutcome reference_scalar =
            runPath(campaign, false, count, seed, parallel);
        const PathOutcome batched_scalar =
            runPath(campaign, true, count, seed, parallel);
        simd::setMode(guard.saved);

        expectSameOutcome(reference, batched, label + " [batch]");
        expectSameOutcome(reference, reference_scalar,
                          label + " [scalar-mode reference]");
        expectSameOutcome(reference, batched_scalar,
                          label + " [scalar-mode batch]");
        ++compared;
        if (HasFatalFailure())
            return; // The label above names the failing tuple.
    }
    // The constructor-rejection escape hatch above must stay an
    // exception, not the rule: with the current pools every tuple
    // constructs, and a pool change that silently discards most of
    // the space would hollow the harness out.
    EXPECT_GE(compared, 150) << "too many tuples skipped";
}

TEST(Differential, FirstThrownErrorMatchesAcrossPaths)
{
    // A campaign that fails validation *inside* the sampling loop
    // is impossible by construction (specs validate up front), so
    // pin the error contract on the shape checks instead: every
    // path must reject a too-small count with the same message.
    ModeGuard guard;
    const FaultCampaign campaign([] {
        const auto catalog = components::Catalog::standard();
        const auto algorithms = workload::annotatedAlgorithms();
        const auto &dronet = algorithms.byName("DroNet");
        const auto &tx2 = catalog.rooflines().byName("Nvidia TX2");
        CampaignSpec spec;
        spec.nominal = studies::pelicanInputs(units::Hertz(20.0));
        spec.platform = tx2;
        spec.profile = workload::workloadProfile(dronet, tx2);
        spec.workPerFrameGop = dronet.workPerFrameGop();
        spec.faults = findFaultSuite("mixed").faults;
        return spec;
    }());

    exec::ParallelOptions parallel;
    for (const simd::Mode mode :
         {simd::Mode::Native, simd::Mode::Scalar}) {
        simd::setMode(mode);
        const PathOutcome reference =
            runPath(campaign, false, 5, 1, parallel);
        const PathOutcome batched =
            runPath(campaign, true, 5, 1, parallel);
        ASSERT_TRUE(reference.threw);
        ASSERT_TRUE(batched.threw);
        EXPECT_EQ(reference.error, batched.error);
    }
}

} // namespace
