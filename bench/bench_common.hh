/**
 * @file
 * Shared helpers for the ablation and perf bench harnesses.
 *
 * Every bench binary follows the same contract:
 *  1. print its ablation table or timing summary under a banner;
 *  2. write any artifact (a perf bench's BENCH_*.json) into its own
 *     ./artifacts/<binary>/ directory;
 *  3. run google-benchmark timers for the underlying model code.
 *
 * The paper's quoted values live on the study metrics they check
 * (scenario::PaperReference), asserted by tests/fidelity_test.cc.
 */

#ifndef UAVF1_BENCH_BENCH_COMMON_HH
#define UAVF1_BENCH_BENCH_COMMON_HH

#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <string>

namespace uavf1::bench {

/**
 * Ensure the artifacts directory exists and return its path.
 *
 * Each binary writes into its own ./artifacts/<binary> subdirectory
 * so that parallel `ctest -j` jobs never race on the same files.
 * The binary name comes from glibc's program_invocation_short_name;
 * on non-glibc platforms there is no portable argv[0] hook here, so
 * everything falls back to the shared ./artifacts directory (and
 * `ctest -j` isolation is not guaranteed).
 */
inline std::string
artifactsDir()
{
#ifdef __GLIBC__
    const std::string dir =
        std::string("artifacts/") + program_invocation_short_name;
#else
    const std::string dir = "artifacts";
#endif
    std::filesystem::create_directories(dir);
    return dir;
}

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
