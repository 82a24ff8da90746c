/**
 * @file
 * Ablation: input-uncertainty propagation through the F-1 model.
 *
 * The paper's rooflines are single lines; early-phase inputs are
 * not. This bench puts error bars on the two flagship case studies
 * (Pelican+DroNet, nano+PULP) with 1-sigma input uncertainties of
 * 10% on a_max and f_compute and 5% on sensing range, and reports
 * how *certain* the bound classification actually is.
 */

#include <cstdio>

#include "bench_common.hh"
#include "sim/monte_carlo.hh"
#include "studies/presets.hh"
#include "support/strings.hh"
#include "support/table.hh"

namespace {

using namespace uavf1;
using namespace uavf1::sim;

void
printRow(TextTable &table, const char *label,
         const UncertaintyResult &result)
{
    table.addRow(
        {label,
         strFormat("%.2f +/- %.2f", result.safeVelocity.mean,
                   result.safeVelocity.stddev),
         strFormat("[%.2f, %.2f]", result.safeVelocity.p5,
                   result.safeVelocity.p95),
         strFormat("%.1f +/- %.1f", result.kneeThroughput.mean,
                   result.kneeThroughput.stddev),
         strFormat("%.0f%%", 100.0 * result.probComputeBound),
         strFormat("%.0f%%", 100.0 * result.probPhysicsBound)});
}

void
printAblation()
{
    bench::banner("Ablation", "Monte-Carlo uncertainty on the F-1 "
                              "model (10%/10%/5% input sigmas)");

    TextTable table({"Configuration", "v_safe (m/s)",
                     "v_safe 90% CI", "knee (Hz)",
                     "P(compute-bound)", "P(physics-bound)"});

    // Pelican + DroNet: robustly physics-bound.
    UncertaintySpec pelican;
    pelican.nominal = studies::pelicanInputs(units::Hertz(178.0));
    printRow(table, "Pelican + DroNet (178 Hz)",
             MonteCarloAnalyzer(pelican).run(20000, 11));

    // Pelican + TrailNet: only 1.27x past the knee -> the
    // classification is genuinely uncertain under input noise.
    UncertaintySpec trailnet;
    trailnet.nominal = studies::pelicanInputs(units::Hertz(55.0));
    printRow(table, "Pelican + TrailNet (55 Hz)",
             MonteCarloAnalyzer(trailnet).run(20000, 12));

    // Nano + PULP: robustly compute-bound.
    UncertaintySpec nano;
    nano.nominal = studies::nanoInputs(units::Hertz(6.0));
    printRow(table, "Nano + PULP-DroNet (6 Hz)",
             MonteCarloAnalyzer(nano).run(20000, 13));

    std::printf("%s\n", table.render().c_str());
    bench::note("designs far from the knee keep their paper "
                "classification with near certainty; TrailNet's "
                "1.27x margin is fragile -- a sizeable fraction of "
                "plausible builds are actually compute-bound, "
                "which the deterministic model cannot express");
}

} // namespace

int
main()
{
    printAblation();
    return 0;
}
