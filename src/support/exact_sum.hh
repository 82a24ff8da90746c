/**
 * @file
 * Exactly rounded, order-independent summation of doubles.
 *
 * A naive `sum += x` loop rounds after every term, so its result
 * depends on the order of the terms; a parallel reduction would then
 * depend on which thread saw which chunk. ExactSum instead keeps the
 * sum as an exact fixed-point integer in units of 2^-1074 (the least
 * subnormal), wide enough for any sum of up to 2^64 counted doubles,
 * and rounds it once, to nearest-even, when asked. Any two
 * accumulators merge exactly, so the result is the same for every
 * order of terms and every grouping of them — the small/large
 * superaccumulator idea of R. Neal, "Fast exact summation using
 * small and large superaccumulators" (arXiv 1505.05571).
 *
 * Adding one term to the wide integer costs a few word operations,
 * so the span overload carries the bulk of the work: per block of at
 * most 1024 terms it splits each term, without error, into two
 * pieces on fixed grids chosen from the block's largest magnitude
 * (Rump-Ogita-Oishi ExtractScalar). Pieces on one grid add exactly
 * in double at SIMD width, and only the two per-block sums — plus
 * the rare term too small for the grids — reach the wide integer.
 */

#ifndef UAVF1_SUPPORT_EXACT_SUM_HH
#define UAVF1_SUPPORT_EXACT_SUM_HH

#include <array>
#include <cstdint>
#include <limits>
#include <span>

namespace uavf1 {

/**
 * Exact sum of doubles and of (count x double) products, rounded
 * once to nearest-even.
 *
 * Special values follow IEEE addition of the same terms: a NaN term,
 * or +inf and -inf terms together, make the sum NaN; otherwise an
 * infinite term makes it that infinity; a finite sum that rounds
 * past DBL_MAX is +-inf. An exact zero rounds to +0, as a naive sum
 * started at +0.0 does.
 */
class ExactSum
{
  public:
    /** Add one term. */
    void add(double term);

    /** Add `count` copies of `term`, as the exact product; a zero
     * count adds nothing. */
    void add(std::uint64_t count, double term);

    /** Least and greatest of a run of terms. */
    struct Range
    {
        double lo = std::numeric_limits<double>::infinity();
        double hi = -std::numeric_limits<double>::infinity();

        /** Widen to cover `other` too. */
        void merge(const Range &other)
        {
            lo = other.lo < lo ? other.lo : lo;
            hi = hi < other.hi ? other.hi : hi;
        }
    };

    /**
     * Add every term of `terms` (the fast path for long runs), and
     * return their least and greatest values, which the split finds
     * anyway. NaN terms are left out of the range (a span of only
     * NaNs returns the empty range, +inf > -inf).
     */
    Range add(std::span<const double> terms);

    /** Add everything `other` has accumulated. */
    void add(const ExactSum &other);

    /** The sum, rounded to the nearest double (ties to even). */
    double round() const;

  private:
    /** Words of the two's-complement fixed-point integer. Doubles
     * whose counts total at most 2^64 sum to below 2^64 * 2^1024 =
     * 2^2162 units, so 2163 bits with the sign; 35 words (2240 bits)
     * leave headroom above. */
    static constexpr std::size_t kWords = 35;

    /** Add (or subtract, when `negative`) the 128-bit magnitude
     * (hi:lo) * 2^shift units. */
    void addMagnitude(std::uint64_t lo, std::uint64_t hi,
                      unsigned shift, bool negative);

    /** Add one block of at most 1024 terms through the split. */
    Range addBlock(const double *terms, std::size_t n);

    std::array<std::uint64_t, kWords> _words{};
    bool _positiveInf = false;
    bool _negativeInf = false;
    bool _nan = false;
};

} // namespace uavf1

#endif // UAVF1_SUPPORT_EXACT_SUM_HH
