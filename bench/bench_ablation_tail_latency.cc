/**
 * @file
 * Ablation: tail-latency-aware F-1.
 *
 * The paper summarizes each algorithm by one throughput number. A
 * *safety* model, however, should size for the latency tail: the
 * obstacle does not wait for the fast frames. This bench
 * synthesizes a heavy-tailed planner latency trace (MAVBench-like)
 * with the same mean throughput as the paper's SPA measurement and
 * quantifies how much safe velocity a mean-based analysis
 * overstates relative to p95/p99/worst-case sizing.
 */

#include <cstdio>

#include "bench_common.hh"
#include "core/f1_model.hh"
#include "studies/presets.hh"
#include "support/strings.hh"
#include "support/table.hh"
#include "workload/latency_trace.hh"

namespace {

using namespace uavf1;
using workload::LatencyTrace;

void
printAblation()
{
    bench::banner("Ablation", "Tail-latency-aware F-1 (Pelican, "
                              "MAVBench-like SPA planner)");

    // Same mean rate as the paper's SPA measurement (1.1 Hz), with
    // a realistic heavy tail (cv = 0.6) and a well-behaved E2E
    // network (cv = 0.08) for contrast.
    const auto spa = LatencyTrace::synthesize(
        "SPA planner", units::Seconds(1.0 / 1.1), 0.6, 4096, 7);
    const auto dronet = LatencyTrace::synthesize(
        "DroNet", units::Seconds(1.0 / 178.0), 0.08, 4096, 7);

    TextTable table({"Trace", "Sizing", "f_compute (Hz)",
                     "v_safe (m/s)", "vs mean sizing"});
    for (const auto *trace : {&spa, &dronet}) {
        const double v_mean =
            core::F1Model(studies::pelicanInputs(
                              trace->meanThroughput()))
                .analyze()
                .safeVelocity.value();
        const struct
        {
            const char *label;
            units::Hertz rate;
        } sizings[] = {
            {"mean", trace->meanThroughput()},
            {"p95", trace->percentileThroughput(95.0)},
            {"p99", trace->percentileThroughput(99.0)},
            {"worst", units::rate(trace->worst())},
        };
        for (const auto &sizing : sizings) {
            const double v =
                core::F1Model(studies::pelicanInputs(sizing.rate))
                    .analyze()
                    .safeVelocity.value();
            table.addRow(
                {trace->name(), sizing.label,
                 trimmedNumber(sizing.rate.value(), 3),
                 trimmedNumber(v, 3),
                 strFormat("%+.1f%%", 100.0 * (v / v_mean - 1.0))});
        }
    }
    std::printf("%s\n", table.render().c_str());
    bench::note("for the heavy-tailed SPA planner, sizing by the "
                "mean overstates the safe velocity by a double-"
                "digit percentage vs p99 sizing; for the tight E2E "
                "distribution the gap is negligible -- a "
                "refinement the single-number F-1 model hides");
}

} // namespace

int
main()
{
    printAblation();
    return 0;
}
