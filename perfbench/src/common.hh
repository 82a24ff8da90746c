/**
 * @file
 * Shared plumbing of the layered benchmark: run environment, timing,
 * result digests, exact work counters, the metric set and the
 * output-check ledger.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since `start`. */
inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Median of a non-empty sample. */
double median(std::vector<double> values);

/** What one benchmark process runs. */
struct Env
{
    std::string workload;
    std::uint64_t seed = 1;  ///< The --seed argument.
    /** Seed handed to the library (derived from `seed`, < 2^31 so
     * it survives the studies' numeric parameter parsing). */
    std::uint64_t inputSeed = 1;
    double seconds = 10.0;   ///< Measured window of one run.
    bool trace = false;      ///< Traced per-layer run.
    bool tiny = false;       ///< Smoke-test sizes.
    std::size_t threads = 1; ///< Pool size (hardware threads).
    std::string workDir;     ///< Scratch directory for artifacts.

    /** Monte-Carlo / campaign samples per library call. */
    std::size_t samples() const { return tiny ? 20000 : 2000000; }
    /** Samples of the scalar-oracle comparisons and timings. */
    std::size_t referenceSamples() const
    {
        return tiny ? 5000 : 200000;
    }
    /** Repetitions of a traced layer probe. */
    std::size_t reps() const { return tiny ? 1 : 3; }
};

/** FNV-1a over the bytes of every value added, in order. */
class Digest
{
  public:
    void addBytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            _h ^= p[i];
            _h *= 0x100000001b3ull;
        }
    }
    void add(double v) { addBytes(&v, sizeof v); }
    void add(std::uint64_t v) { addBytes(&v, sizeof v); }
    void add(const std::string &s)
    {
        add(static_cast<std::uint64_t>(s.size()));
        addBytes(s.data(), s.size());
    }
    template <typename T>
    void add(const std::vector<T> &values)
    {
        add(static_cast<std::uint64_t>(values.size()));
        for (const T &v : values)
            add(v);
    }
    std::uint64_t value() const { return _h; }

  private:
    std::uint64_t _h = 0xcbf29ce484222325ull;
};

/**
 * Exact work one pass (one closed-loop operation) performs. Every
 * field repeats exactly between passes and between runs of one
 * workload at one size; the benchmark fails its own check otherwise.
 */
struct Counts
{
    std::uint64_t ops = 0;       ///< Library entry-point calls.
    std::uint64_t studies = 0;   ///< Scenarios run.
    std::uint64_t missions = 0;  ///< Fault-campaign missions sampled.
    std::uint64_t mcSamples = 0; ///< Monte-Carlo samples drawn.
    /** 64-sample kernel calls of the campaign and Monte-Carlo
     * samplers, computed from their sample counts. */
    std::uint64_t kernelBlocks = 0;

    bool operator==(const Counts &) const = default;
};

/** Named metrics with units, kept in insertion order. */
class Metrics
{
  public:
    struct Entry
    {
        std::string name;
        double value = 0.0;
        std::string unit;
    };

    /** Append one metric; names are set once. */
    void set(const std::string &name, double value,
             const std::string &unit);

    const std::vector<Entry> &entries() const { return _entries; }

  private:
    std::vector<Entry> _entries;
};

/**
 * Every operation the benchmark attempts and every one that failed:
 * threw, returned a non-ok status, or produced outputs that failed a
 * check. Failures are reported on stderr as they happen.
 */
class Ledger
{
  public:
    /** Count one operation; a false `ok` counts it as failed. */
    bool record(bool ok, const std::string &what);

    /**
     * Run `fn` as one operation: it fails when it throws or returns
     * false.
     */
    template <typename Fn>
    bool guard(const std::string &what, Fn &&fn)
    {
        try {
            return record(fn(), what);
        } catch (const std::exception &e) {
            return record(false, what + ": " + e.what());
        }
    }

    std::uint64_t attempted() const { return _attempted; }
    std::uint64_t failed() const { return _failed; }

  private:
    std::uint64_t _attempted = 0;
    std::uint64_t _failed = 0;
};

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
