/**
 * @file
 * Ablation: sensitivity of the headline factors to the knee
 * criterion k (the fraction of the physics roof at which the knee
 * is declared).
 *
 * The paper never states its knee convention; our default k = 0.98
 * was recovered from its quoted knees (43/30/26 Hz). This bench
 * shows how the knee frequency and the derived over/under-
 * provisioning factors move as k varies — i.e. how much of the
 * paper's quantitative story depends on that convention.
 */

#include <cstdio>

#include "bench_common.hh"
#include "core/f1_model.hh"
#include "studies/presets.hh"
#include "support/strings.hh"
#include "support/table.hh"

namespace {

using namespace uavf1;

void
printAblation()
{
    bench::banner("Ablation", "Knee-criterion sensitivity "
                              "(Pelican configuration)");

    TextTable table({"k (fraction of roof)", "knee (Hz)",
                     "SPA needed speedup (x)",
                     "TrailNet factor (x)", "DroNet factor (x)"});
    for (double k : {0.90, 0.95, 0.98, 0.99, 0.995}) {
        core::F1Inputs inputs =
            studies::pelicanInputs(units::Hertz(1.1));
        inputs.kneeFraction = k;
        const double knee = core::F1Model(inputs)
                                .analyze()
                                .kneeThroughput.value();
        table.addRow({trimmedNumber(k, 3), trimmedNumber(knee, 1),
                      trimmedNumber(knee / 1.1, 1),
                      trimmedNumber(55.0 / knee, 2),
                      trimmedNumber(178.0 / knee, 2)});
    }
    std::printf("%s\n", table.render().c_str());
    bench::note("k = 0.98 reproduces the paper's 43 Hz knee, 39x "
                "SPA gap, 1.27x TrailNet and 4.13x DroNet factors "
                "simultaneously; the qualitative classification "
                "(SPA compute-bound, E2E physics-bound) is stable "
                "across the whole k range");

    // Show the classification stability explicitly.
    TextTable bounds({"k", "SPA bound", "TrailNet bound",
                      "DroNet bound"});
    for (double k : {0.90, 0.95, 0.98, 0.99, 0.995}) {
        std::vector<std::string> row = {trimmedNumber(k, 3)};
        for (double f : {1.1, 55.0, 178.0}) {
            core::F1Inputs inputs =
                studies::pelicanInputs(units::Hertz(f));
            inputs.kneeFraction = k;
            row.push_back(core::toString(
                core::F1Model(inputs).analyze().bound));
        }
        bounds.addRow(row);
    }
    std::printf("%s\n", bounds.render().c_str());
}

} // namespace

int
main()
{
    printAblation();
    return 0;
}
