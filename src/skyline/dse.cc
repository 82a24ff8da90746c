/**
 * @file
 * DesignSpaceExplorer implementation.
 */

#include "skyline/dse.hh"

#include <algorithm>
#include <limits>

#include "exec/parallel.hh"
#include "support/errors.hh"

namespace uavf1::skyline {

DesignSpaceExplorer::DesignSpaceExplorer(
    core::UavConfig::Builder prototype)
    : _prototype(std::move(prototype))
{
}

std::vector<DesignPoint>
DesignSpaceExplorer::sweep(
    const std::vector<components::ComputePlatform> &computes,
    const std::vector<workload::AutonomyAlgorithm> &algorithms,
    const exec::ParallelOptions &parallel) const
{
    // Flattened (platform, algorithm) grid evaluated on the sweep
    // engine; each design writes only its own slot, so the output
    // is identical to the serial double loop at any thread count.
    // Each point builds its config and runs analyzeInto(). An
    // infeasible design (f1Inputs() rejects T/W <= 1) is recorded;
    // any other error propagates.
    const std::size_t n = computes.size() * algorithms.size();
    std::vector<DesignPoint> points(n);

    exec::ParallelOptions options = parallel;
    if (options.grain <= 1) {
        // Building a config dominates a point's cost (~2 us); size
        // chunks to amortize dispatch.
        options.grain = exec::suggestedGrain(n, 2000.0);
    }

    exec::parallelFor(
        n, [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) {
                const auto &platform = computes[i / algorithms.size()];
                const auto &algorithm =
                    algorithms[i % algorithms.size()];
                DesignPoint &point = points[i];
                point.compute = platform.name();
                point.algorithm = algorithm.name();
                try {
                    core::UavConfig::Builder builder = _prototype;
                    const core::UavConfig config = builder
                        .compute(platform)
                        .algorithm(algorithm)
                        .build();
                    core::F1Model::analyzeInto(config.f1Inputs(),
                                               point.analysis);
                    point.safeVelocity =
                        point.analysis.safeVelocity.value();
                    point.feasible = true;
                    point.computePower = config.computePower().value();
                    point.computeMass =
                        config.redundancy()
                            .payloadMass(platform,
                                         config.heatsinkModel())
                            .value();
                    point.throughputSource =
                        config.computeRateSource();
                } catch (const InfeasibleError &e) {
                    point.feasible = false;
                    point.infeasibleReason = e.what();
                }
            }
        },
        options);
    return points;
}

namespace {

/**
 * Staircase of non-dominated (power, mass) pairs from already
 * processed (strictly faster) designs: power strictly increases,
 * mass strictly decreases. Supports "is there a point with
 * power <= p and mass <= m?" in O(log n).
 */
class PowerMassStaircase
{
  public:
    /** Minimum mass over entries with power <= p (inf if none). */
    double minMassAtOrBelow(double p) const
    {
        // Entries are power-ascending / mass-descending, so the
        // last affordable entry has the smallest mass.
        auto it = std::upper_bound(
            _steps.begin(), _steps.end(), p,
            [](double lhs, const Step &s) { return lhs < s.power; });
        if (it == _steps.begin())
            return std::numeric_limits<double>::infinity();
        return std::prev(it)->mass;
    }

    /** Insert (p, m), dropping entries it renders redundant. */
    void insert(double p, double m)
    {
        if (minMassAtOrBelow(p) <= m)
            return; // Covered by an existing step.
        auto it = std::lower_bound(
            _steps.begin(), _steps.end(), p,
            [](const Step &s, double rhs) { return s.power < rhs; });
        auto last = it;
        while (last != _steps.end() && last->mass >= m)
            ++last;
        it = _steps.erase(it, last);
        _steps.insert(it, {p, m});
    }

  private:
    struct Step
    {
        double power;
        double mass;
    };
    std::vector<Step> _steps;
};

} // namespace

std::vector<DesignPoint>
DesignSpaceExplorer::paretoFront(const std::vector<DesignPoint> &points)
{
    // Sort-then-sweep over (velocity desc, power asc, mass asc):
    // every potential dominator of a point precedes it, so one pass
    // with a power/mass staircase replaces the O(n^2) all-pairs
    // dominance scan. Points with equal velocity are compared within
    // their group (strictness then lives in power/mass); identical
    // triples never dominate each other, matching the all-pairs
    // definition.
    std::vector<std::size_t> order;
    order.reserve(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (points[i].feasible)
            order.push_back(i);
    }
    std::sort(order.begin(), order.end(),
              [&](std::size_t ia, std::size_t ib) {
                  const DesignPoint &a = points[ia];
                  const DesignPoint &b = points[ib];
                  if (a.safeVelocity != b.safeVelocity)
                      return a.safeVelocity > b.safeVelocity;
                  if (a.computePower != b.computePower)
                      return a.computePower < b.computePower;
                  if (a.computeMass != b.computeMass)
                      return a.computeMass < b.computeMass;
                  return ia < ib;
              });

    PowerMassStaircase stairs;
    std::vector<std::size_t> front_indices;
    std::size_t group_begin = 0;
    while (group_begin < order.size()) {
        std::size_t group_end = group_begin;
        const double v = points[order[group_begin]].safeVelocity;
        while (group_end < order.size() &&
               points[order[group_end]].safeVelocity == v)
            ++group_end;

        // Pass 1: against strictly faster points (the staircase),
        // where power <= and mass <= suffice for dominance.
        // Pass 2 (inline): within the equal-velocity group, where a
        // strict improvement in power or mass is required. The
        // group is (power asc, mass asc)-sorted, so the running
        // minimum mass of earlier runs plus the head of the current
        // equal-power run decide it.
        double prev_run_min_mass =
            std::numeric_limits<double>::infinity();
        std::size_t run_begin = group_begin;
        for (std::size_t k = group_begin; k < group_end; ++k) {
            const DesignPoint &p = points[order[k]];
            if (points[order[run_begin]].computePower !=
                p.computePower) {
                prev_run_min_mass = std::min(
                    prev_run_min_mass,
                    points[order[run_begin]].computeMass);
                run_begin = k;
            }
            const bool dominated_above =
                stairs.minMassAtOrBelow(p.computePower) <=
                p.computeMass;
            const bool dominated_in_group =
                prev_run_min_mass <= p.computeMass ||
                points[order[run_begin]].computeMass < p.computeMass;
            if (!dominated_above && !dominated_in_group)
                front_indices.push_back(order[k]);
        }
        for (std::size_t k = group_begin; k < group_end; ++k) {
            const DesignPoint &p = points[order[k]];
            stairs.insert(p.computePower, p.computeMass);
        }
        group_begin = group_end;
    }

    // Present fastest-first; ties keep their input order so the
    // result is stable and deterministic.
    std::sort(front_indices.begin(), front_indices.end());
    std::stable_sort(front_indices.begin(), front_indices.end(),
                     [&](std::size_t ia, std::size_t ib) {
                         return points[ia].safeVelocity >
                                points[ib].safeVelocity;
                     });
    std::vector<DesignPoint> front;
    front.reserve(front_indices.size());
    for (std::size_t i : front_indices)
        front.push_back(points[i]);
    return front;
}

const DesignPoint &
DesignSpaceExplorer::best(const std::vector<DesignPoint> &points)
{
    const DesignPoint *best = nullptr;
    for (const auto &point : points) {
        if (!point.feasible)
            continue;
        if (!best || point.safeVelocity > best->safeVelocity ||
            (point.safeVelocity == best->safeVelocity &&
             point.computePower < best->computePower)) {
            best = &point;
        }
    }
    if (!best)
        throw ModelError("design space contains no feasible point");
    return *best;
}

} // namespace uavf1::skyline
