/**
 * @file
 * The benchmark's workloads. Each is a closed loop with one client:
 * a pass is one operation — the library entry-point calls a user
 * makes — and the next pass starts when the previous one returns.
 *
 *  - paper-suite:    one ScenarioRunner::runAll over every registered
 *                    study, artifacts written (`skyline_cli run-all`).
 *  - fault-campaign: the `faults` study twice through
 *                    ScenarioRunner::run at 2M samples and 9 levels.
 *  - uncertainty:    two MonteCarloAnalyzer::run calls of 2M samples
 *                    (SPA pipeline path and flat-platform path).
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <memory>
#include <string>
#include <vector>

#include "common.hh"
#include "exec/thread_pool.hh"
#include "trace.hh"

namespace perfbench {

/** What one pass produced. */
struct PassResult
{
    double seconds = 0.0;   ///< Wall time of the library calls alone.
    bool ok = true;         ///< Every call ended ok.
    std::string error;      ///< First failure, when !ok.
    std::uint64_t digest = 0; ///< Over artifact bytes / result fields.
    Counts counts;          ///< Exact work done.
};

/** True when `pass` ended ok with the reference's digest and counts. */
bool reproduces(const PassResult &pass, const PassResult &reference);

class Workload
{
  public:
    virtual ~Workload() = default;

    /** The throughput unit: "studies", "missions" or "samples". */
    virtual const char *itemName() const = 0;

    /** Throughput items a pass with these counts completed. */
    virtual std::uint64_t items(const Counts &counts) const = 0;

    /** Run one pass on `pool`, with a span around each library call. */
    virtual PassResult pass(uavf1::exec::ThreadPool &pool,
                            Tracer &tracer) = 0;

    /**
     * Once-per-run output checks: a pass at 1 thread reproduces
     * `reference` (a pass at N threads), and the batched samplers
     * equal their scalar runReference() oracles at a reduced sample
     * count with the run's seed.
     */
    virtual void checkOnce(uavf1::exec::ThreadPool &pool,
                           const PassResult &reference, Tracer &tracer,
                           Ledger &ledger) = 0;

    /** Notes on the last pass's outputs for the text report. */
    virtual std::string describe() const { return {}; }
};

/** Workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/**
 * Build a workload and everything it keeps across passes.
 *
 * @throws std::invalid_argument for an unknown name
 */
std::unique_ptr<Workload> makeWorkload(const Env &env);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
