/**
 * @file
 * Shared print helpers for the ablation binaries.
 *
 * Each bench_ablation_* binary prints one ablation table under a
 * banner, followed by a note on what it shows, and exits 0.
 *
 * The paper's quoted values live on the study metrics they check
 * (scenario::PaperReference), asserted by tests/fidelity_test.cc.
 */

#ifndef UAVF1_BENCH_BENCH_COMMON_HH
#define UAVF1_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <string>

namespace uavf1::bench {

/** Print the figure banner. */
inline void
banner(const std::string &id, const std::string &title)
{
    std::printf("\n=== %s: %s ===\n\n", id.c_str(), title.c_str());
}

/** Print a note line. */
inline void
note(const std::string &text)
{
    std::printf("  note: %s\n", text.c_str());
}

} // namespace uavf1::bench

#endif // UAVF1_BENCH_BENCH_COMMON_HH
