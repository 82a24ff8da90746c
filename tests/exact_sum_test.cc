/**
 * @file
 * ExactSum against an independent exact oracle.
 *
 * The oracle is a sign-magnitude big integer in units of 2^-1074
 * (32-bit limbs, schoolbook add and subtract) that decomposes terms
 * with frexp and rounds through the hardware's own uint64 -> double
 * conversion, so it shares no code or representation with ExactSum.
 * Every comparison is on bit patterns.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "support/exact_sum.hh"
#include "support/rng.hh"

namespace {

using namespace uavf1;

constexpr double inf = std::numeric_limits<double>::infinity();
constexpr double nan = std::numeric_limits<double>::quiet_NaN();

std::uint64_t
bits(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

/** The exact sum by definition, kept as sign and magnitude. */
class OracleSum
{
  public:
    void add(double term, std::uint64_t count = 1)
    {
        if (count == 0)
            return;
        if (std::isnan(term)) {
            _nan = true;
            return;
        }
        if (std::isinf(term)) {
            (term > 0 ? _posInf : _negInf) = true;
            return;
        }
        if (term == 0.0)
            return;
        // |term| = f * 2^e with f in [0.5, 1): a 53-bit integer times
        // 2^(e - 53), i.e. 2^(e - 53 + 1074) units; a subnormal's low
        // bits are zero, so a negative shift drops nothing.
        int e = 0;
        const double f = std::frexp(std::fabs(term), &e);
        const auto m = static_cast<std::uint64_t>(std::ldexp(f, 53));
        const int shift = e - 53 + 1074;
        const unsigned __int128 product =
            static_cast<unsigned __int128>(m) * count;
        std::vector<std::uint32_t> addend(kLimbs, 0);
        for (int limb = 0; limb < 4; ++limb) {
            const auto part =
                static_cast<std::uint32_t>(product >> (32 * limb));
            for (int b = 0; b < 32; ++b) {
                if (((part >> b) & 1) == 0)
                    continue;
                const int at = 32 * limb + b + shift;
                if (at >= 0)
                    addend[at / 32] |= std::uint32_t{1} << (at % 32);
            }
        }
        accumulate(addend, term < 0);
    }

    double round() const
    {
        if (_nan || (_posInf && _negInf))
            return nan;
        if (_posInf)
            return inf;
        if (_negInf)
            return -inf;
        int top = -1;
        for (int i = kLimbs * 32 - 1; i >= 0 && top < 0; --i)
            if (bit(i))
                top = i;
        if (top < 0)
            return 0.0;
        // Up to 64 leading bits, everything below folded into the
        // lowest one (sticky), then one hardware rounding.
        const int low = std::max(0, top - 63);
        std::uint64_t head = 0;
        for (int i = top; i >= low; --i)
            head = (head << 1) | static_cast<std::uint64_t>(bit(i));
        bool sticky = false;
        for (int i = 0; i < low; ++i)
            sticky = sticky || bit(i);
        head |= static_cast<std::uint64_t>(sticky);
        const double value =
            std::ldexp(static_cast<double>(head), low - 1074);
        return _negative ? -value : value;
    }

  private:
    static constexpr int kLimbs = 80;

    bool bit(int i) const { return ((_mag[i / 32] >> (i % 32)) & 1) != 0; }

    void accumulate(const std::vector<std::uint32_t> &addend, bool negative)
    {
        if (negative == _negative) {
            std::uint64_t carry = 0;
            for (int i = 0; i < kLimbs; ++i) {
                const std::uint64_t s =
                    std::uint64_t{_mag[i]} + addend[i] + carry;
                _mag[i] = static_cast<std::uint32_t>(s);
                carry = s >> 32;
            }
            return;
        }
        // Opposite signs: subtract the smaller magnitude from the
        // larger; the result takes the larger one's sign.
        int cmp = 0;
        for (int i = kLimbs - 1; i >= 0 && cmp == 0; --i)
            cmp = _mag[i] < addend[i] ? -1 : (_mag[i] > addend[i] ? 1 : 0);
        const std::vector<std::uint32_t> &big = cmp >= 0 ? _mag : addend;
        const std::vector<std::uint32_t> &small = cmp >= 0 ? addend : _mag;
        std::vector<std::uint32_t> out(kLimbs, 0);
        std::int64_t borrow = 0;
        for (int i = 0; i < kLimbs; ++i) {
            std::int64_t d = std::int64_t{big[i]} - small[i] - borrow;
            borrow = d < 0;
            if (d < 0)
                d += std::int64_t{1} << 32;
            out[i] = static_cast<std::uint32_t>(d);
        }
        if (cmp < 0)
            _negative = negative;
        _mag = out;
        if (std::all_of(_mag.begin(), _mag.end(),
                        [](std::uint32_t limb) { return limb == 0; }))
            _negative = false;
    }

    std::vector<std::uint32_t> _mag = std::vector<std::uint32_t>(kLimbs, 0);
    bool _negative = false;
    bool _nan = false;
    bool _posInf = false;
    bool _negInf = false;
};

double
exactOf(const std::vector<double> &terms)
{
    ExactSum sum;
    for (const double t : terms)
        sum.add(t);
    return sum.round();
}

double
oracleOf(const std::vector<double> &terms)
{
    OracleSum sum;
    for (const double t : terms)
        sum.add(t);
    return sum.round();
}

double
spanOf(const std::vector<double> &terms)
{
    ExactSum sum;
    sum.add(std::span<const double>(terms));
    return sum.round();
}

/** Every order of `terms` (they are few), per term and as a span,
 * must round to `want`. */
void
expectSum(std::vector<double> terms, double want, const std::string &what)
{
    EXPECT_EQ(bits(oracleOf(terms)), bits(want)) << what << " (oracle)";
    std::sort(terms.begin(), terms.end(),
              [](double a, double b) { return bits(a) < bits(b); });
    do {
        EXPECT_EQ(bits(exactOf(terms)), bits(want)) << what;
        EXPECT_EQ(bits(spanOf(terms)), bits(want)) << what << " (span)";
    } while (std::next_permutation(
        terms.begin(), terms.end(),
        [](double a, double b) { return bits(a) < bits(b); }));
}

TEST(ExactSum, HeavyCancellation)
{
    expectSum({1e308, 1.0, -1e308}, 1.0, "1e308 + 1 - 1e308");
    expectSum({1e308, 1e308, -1e308}, 1e308, "past DBL_MAX and back");
    // The three doubles nearest 0.1, 0.2 and 0.3 differ by 2^-55.
    expectSum({0.1, 0.2, -0.3}, 0x1p-55, "0.1 + 0.2 - 0.3");
    expectSum({1.0, 0x1p-60, -1.0}, 0x1p-60, "a small term survives");
    expectSum({DBL_MAX, -DBL_MAX, 0x1p-1074}, 0x1p-1074,
              "the whole range");
}

TEST(ExactSum, SignedZerosAndSubnormals)
{
    EXPECT_EQ(bits(ExactSum().round()), bits(0.0)) << "empty";
    expectSum({-0.0}, 0.0, "-0 rounds to +0");
    expectSum({-0.0, -0.0}, 0.0, "-0 + -0");
    expectSum({1.0, -1.0}, 0.0, "exact cancellation");
    expectSum({-1.5, 1.5, -0.0}, 0.0, "cancellation and -0");
    expectSum({0x1p-1074, 0x1p-1074, 0x1p-1074}, 0x3p-1074,
              "three least subnormals");
    expectSum({0x1p-1022, -0x1p-1074}, 0x1p-1022 - 0x1p-1074,
              "down into the subnormals");
    expectSum({-4e-310, -1e-310}, -5e-310, "negative subnormals");
    expectSum({0x0.fffffffffffffp-1022, 0x1p-1074}, 0x1p-1022,
              "subnormal carry to the least normal");
}

TEST(ExactSum, RoundsPastDblMaxToInfinity)
{
    const double ulp = 0x1p971; // ulp(DBL_MAX)
    expectSum({DBL_MAX, DBL_MAX}, inf, "2 DBL_MAX");
    expectSum({-DBL_MAX, -DBL_MAX}, -inf, "-2 DBL_MAX");
    // DBL_MAX has an odd mantissa, so half an ulp above it ties
    // away to the even 2^1024: infinity.
    expectSum({DBL_MAX, ulp / 2}, inf, "DBL_MAX + half ulp");
    expectSum({DBL_MAX, ulp / 4}, DBL_MAX, "DBL_MAX + quarter ulp");
    expectSum({DBL_MAX, ulp / 2, -0x1p-1074}, DBL_MAX,
              "just below the overflow tie");
}

TEST(ExactSum, TiesRoundToEven)
{
    const double half_ulp = 0x1p-53; // of 1.0
    expectSum({1.0, half_ulp}, 1.0, "tie to even below");
    expectSum({1.0 + 0x1p-52, half_ulp}, 1.0 + 0x1p-51,
              "tie to even above");
    expectSum({1.0, half_ulp, 0x1p-1074}, 1.0 + 0x1p-52,
              "just above the tie");
    expectSum({1.0, half_ulp, -0x1p-1074}, 1.0, "just below the tie");
    expectSum({-1.0, -half_ulp}, -1.0, "negative tie");
    // ulp(2^60) is 256: two 64s make a tie, a tiny term breaks it.
    expectSum({0x1p60, 64.0, 64.0}, 0x1p60, "a tie built from terms");
    expectSum({0x1p60, 64.0, 64.0, 0x1p-40}, 0x1p60 + 0x1p8,
              "a tie built from terms, then broken");
}

TEST(ExactSum, InfinitiesAndNaN)
{
    expectSum({inf, 1.0}, inf, "inf + 1");
    expectSum({-inf, 1e308, 1e308}, -inf, "-inf + finite overflow");
    expectSum({inf, -inf}, nan, "inf - inf");
    expectSum({nan, 1.0}, nan, "NaN + 1");
    expectSum({nan, inf}, nan, "NaN + inf");
    ExactSum counted;
    counted.add(3, inf);
    EXPECT_EQ(bits(counted.round()), bits(inf));
    counted.add(0, -inf); // A zero count adds nothing.
    EXPECT_EQ(bits(counted.round()), bits(inf));
    counted.add(1, -inf);
    EXPECT_TRUE(std::isnan(counted.round()));
}

TEST(ExactSum, CountedProductsMatchTheOracle)
{
    const std::uint64_t two53 = std::uint64_t{1} << 53;
    const std::vector<std::uint64_t> counts = {
        1, 2, 3, 1000003, two53 - 1, two53, two53 + 1,
        std::numeric_limits<std::uint64_t>::max()};
    const std::vector<double> terms = {
        0.1, -0.1, 1.0, 3.0, 9.81, DBL_MAX, -DBL_MAX, 0x1p-1074,
        -4e-310, 0x1p-1022, 1e308, 2.5e-300, -7.75};
    for (const std::uint64_t c : counts) {
        for (const double t : terms) {
            ExactSum sum;
            sum.add(c, t);
            OracleSum oracle;
            oracle.add(t, c);
            EXPECT_EQ(bits(sum.round()), bits(oracle.round()))
                << c << " x " << t;
        }
    }
    // Mixed products that cancel down to a small remainder.
    ExactSum sum;
    OracleSum oracle;
    for (const auto &[c, t] :
         std::vector<std::pair<std::uint64_t, double>>{
             {two53, 0.1}, {two53 - 1, -0.1}, {3, 1e-300},
             {two53, -1e-17}, {12345, 6.25}}) {
        sum.add(c, t);
        oracle.add(t, c);
    }
    EXPECT_EQ(bits(sum.round()), bits(oracle.round()));
    // 2^53 x 1.0 is exact; one more unit is a tie that stays even.
    ExactSum big;
    big.add(two53, 1.0);
    big.add(1.0);
    EXPECT_EQ(bits(big.round()), bits(0x1p53));
}

/** A random term drawn to stress one path of the accumulator. */
double
randomTerm(Rng &rng, int family)
{
    const double sign = rng.uniform() < 0.5 ? -1.0 : 1.0;
    switch (family) {
      case 0: // One binade-ish: the block split's fast case.
        return sign * (1.0 + rng.uniform());
      case 1: // Wide but within 2^32: still split exactly.
        return sign * std::ldexp(1.0 + rng.uniform(),
                                 static_cast<int>(rng.uniform() * 30));
      case 2: // Far below the block bound: exact residues.
        return sign * std::ldexp(1.0 + rng.uniform(),
                                 static_cast<int>(rng.uniform() * 200) - 100);
      case 3: // Subnormals and the least normals.
        return sign * std::ldexp(rng.uniform(), -1022 -
                                 static_cast<int>(rng.uniform() * 52));
      case 4: // Near DBL_MAX: too large for the grids.
        return sign * std::ldexp(1.0 + rng.uniform(), 1015 +
                                 static_cast<int>(rng.uniform() * 8));
      default: // Everything, every exponent.
        return sign * std::ldexp(1.0 + rng.uniform(),
                                 static_cast<int>(rng.uniform() * 2046) - 1022);
    }
}

/** n random terms of one family. Family 6 interleaves big terms that
 * cancel in pairs with small ones far below them, so the sum is made
 * of the small terms' bits alone. */
std::vector<double>
randomTerms(Rng &rng, int family, std::size_t n)
{
    std::vector<double> terms(n);
    double big = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        if (family != 6)
            terms[i] = randomTerm(rng, family);
        else if (i % 3 == 1 && i + 1 < n)
            terms[i] = big = randomTerm(rng, 0) * 0x1p70;
        else if (i % 3 == 2)
            terms[i] = -big;
        else
            terms[i] = randomTerm(rng, 1) * 0x1p-40;
    }
    return terms;
}

TEST(ExactSum, SpansAndShuffledMergesMatchTheOracle)
{
    // Long runs through the block split, split into groups that are
    // summed per term or as spans and merged in shuffled orders.
    for (int family = 0; family <= 6; ++family) {
        for (const std::size_t n : {1u, 7u, 1024u, 1025u, 5000u}) {
            Rng rng(1000 * static_cast<std::uint64_t>(family) + n);
            const std::vector<double> terms = randomTerms(rng, family, n);
            OracleSum oracle;
            for (const double t : terms)
                oracle.add(t);
            const double want = oracle.round();
            const std::string where =
                "family " + std::to_string(family) + ", n=" + std::to_string(n);
            EXPECT_EQ(bits(spanOf(terms)), bits(want)) << where;

            std::vector<ExactSum> groups(5);
            for (std::size_t i = 0; i < n;) {
                const auto len = std::min<std::size_t>(
                    n - i, 1 + static_cast<std::size_t>(rng.uniform() * 1500));
                ExactSum &group =
                    groups[static_cast<std::size_t>(rng.uniform() * 5)];
                if (rng.uniform() < 0.5) {
                    group.add(std::span<const double>(terms).subspan(i, len));
                } else {
                    for (std::size_t k = i; k < i + len; ++k)
                        group.add(terms[k]);
                }
                i += len;
            }
            for (int shuffle = 0; shuffle < 4; ++shuffle) {
                std::vector<std::size_t> order = {0, 1, 2, 3, 4};
                for (std::size_t k = order.size(); k > 1; --k)
                    std::swap(order[k - 1],
                              order[static_cast<std::size_t>(
                                  rng.uniform() * static_cast<double>(k))]);
                ExactSum merged;
                for (const std::size_t g : order)
                    merged.add(groups[g]);
                EXPECT_EQ(bits(merged.round()), bits(want))
                    << where << ", shuffle " << shuffle;
            }
        }
    }
}

TEST(ExactSum, SpanReturnsItsExtremes)
{
    // The span add reports the least and greatest term, skipping
    // NaNs, whichever block and lane they fall in.
    for (const std::size_t n : {1u, 9u, 1024u, 3000u}) {
        Rng rng(n);
        std::vector<double> terms(n);
        for (double &t : terms)
            t = randomTerm(rng, 5);
        terms[n / 2] = nan;
        double lo = inf;
        double hi = -inf;
        for (const double t : terms) {
            lo = t < lo ? t : lo;
            hi = hi < t ? t : hi;
        }
        ExactSum sum;
        const ExactSum::Range range = sum.add(std::span<const double>(terms));
        EXPECT_EQ(bits(range.lo), bits(lo)) << n;
        EXPECT_EQ(bits(range.hi), bits(hi)) << n;
    }
    const ExactSum::Range empty = ExactSum().add(std::span<const double>());
    EXPECT_EQ(empty.lo, inf);
    EXPECT_EQ(empty.hi, -inf);
}

TEST(ExactSum, SpanRecordsSpecialValues)
{
    // A special value anywhere in a long span reaches the result,
    // whichever block and lane it falls in.
    for (const std::size_t at : {0u, 5u, 1023u, 1024u, 2047u}) {
        std::vector<double> terms(2048, 1.5);
        terms[at] = nan;
        EXPECT_TRUE(std::isnan(spanOf(terms))) << at;
        terms[at] = -inf;
        EXPECT_EQ(bits(spanOf(terms)), bits(-inf)) << at;
        terms[(at + 1) % terms.size()] = inf;
        EXPECT_TRUE(std::isnan(spanOf(terms))) << at;
    }
}

} // namespace
