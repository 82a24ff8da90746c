/**
 * @file
 * ExactSum implementation.
 *
 * The block split (addBlock) rests on one error-free transformation:
 * for sigma = 2^k and |x| <= sigma / 2, q = (sigma + x) - sigma is
 * computed exactly, is a multiple of 2^(k-53), and r = x - q is exact
 * with |r| <= 2^(k-53). With the block bound |x| <= 2^E and at most
 * 2^K terms, sigma1 = 2^(E+K+1) puts every q1 on the grid 2^(E+K-52)
 * with every partial sum of them below sigma1 = 2^53 grid steps, so
 * the q1 add exactly in double in any order. The residues r1 split
 * the same way against sigma2 = 2^(E+2K-51), and what is left, r2,
 * is zero for every term within 2^32 of the bound (K = 10). A term
 * further below leaves its exact r2, which goes to the wide integer
 * on its own.
 */

#include "support/exact_sum.hh"

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <limits>

#include "simd/pack.hh"

namespace uavf1 {

namespace {

/** Terms per split block: 2^kBlockBits. */
constexpr int kBlockBits = 10;
constexpr std::size_t kBlock = std::size_t{1} << kBlockBits;

/** Block bounds 2^E the split handles: sigma1 = 2^(E+K+1) stays
 * below 2^1023, so sigma1 + x cannot overflow, and sigma2 =
 * 2^(E+2K-51) stays at least 2^-1021, so its grid is no finer than
 * the least subnormal. Blocks outside take the per-term path. */
constexpr int kMaxExponent = 1022 - kBlockBits - 1;
constexpr int kMinExponent = -1021 + 51 - 2 * kBlockBits;

constexpr std::uint64_t kFractionMask = (std::uint64_t{1} << 52) - 1;

} // namespace

void
ExactSum::add(double term)
{
    add(1, term);
}

void
ExactSum::add(std::uint64_t count, double term)
{
    if (count == 0)
        return;
    const auto bits = std::bit_cast<std::uint64_t>(term);
    const bool negative = (bits >> 63) != 0;
    const auto exponent = static_cast<unsigned>((bits >> 52) & 0x7ff);
    const std::uint64_t fraction = bits & kFractionMask;
    if (exponent == 0x7ff) {
        if (fraction != 0)
            _nan = true;
        else if (negative)
            _negativeInf = true;
        else
            _positiveInf = true;
        return;
    }
    if (exponent == 0 && fraction == 0)
        return;
    // term = mantissa * 2^(shift - 1074); subnormals have shift 0.
    const std::uint64_t mantissa =
        exponent != 0 ? fraction | (std::uint64_t{1} << 52) : fraction;
    const unsigned shift = exponent != 0 ? exponent - 1 : 0;
    const unsigned __int128 product =
        static_cast<unsigned __int128>(count) * mantissa;
    addMagnitude(static_cast<std::uint64_t>(product),
                 static_cast<std::uint64_t>(product >> 64), shift,
                 negative);
}

void
ExactSum::addMagnitude(std::uint64_t lo, std::uint64_t hi,
                       unsigned shift, bool negative)
{
    // The 128-bit magnitude lands on (at most) three words from w up.
    const std::size_t w = shift / 64;
    const unsigned s = shift % 64;
    const std::uint64_t pieces[3] = {
        lo << s, s != 0 ? (lo >> (64 - s)) | (hi << s) : hi,
        s != 0 ? hi >> (64 - s) : 0};
    std::uint64_t carry = 0;
    if (!negative) {
        for (std::size_t k = 0; k < 3; ++k) {
            std::uint64_t &word = _words[w + k];
            std::uint64_t sum = word + pieces[k];
            std::uint64_t out = sum < pieces[k];
            sum += carry;
            out |= sum < carry;
            word = sum;
            carry = out;
        }
        for (std::size_t i = w + 3; carry != 0 && i < kWords; ++i)
            carry = ++_words[i] == 0;
    } else {
        for (std::size_t k = 0; k < 3; ++k) {
            std::uint64_t &word = _words[w + k];
            const std::uint64_t diff = word - pieces[k];
            std::uint64_t out = word < pieces[k];
            out |= diff < carry;
            word = diff - carry;
            carry = out;
        }
        for (std::size_t i = w + 3; carry != 0 && i < kWords; ++i)
            carry = _words[i]-- == 0;
    }
}

ExactSum::Range
ExactSum::add(std::span<const double> terms)
{
    Range range;
    for (std::size_t i = 0; i < terms.size(); i += kBlock)
        range.merge(addBlock(terms.data() + i,
                             std::min(kBlock, terms.size() - i)));
    return range;
}

ExactSum::Range
ExactSum::addBlock(const double *x, std::size_t n)
{
    constexpr std::size_t W = simd::nativeWidth;
    constexpr std::size_t kUnroll = 4;
    using P = simd::Pack<double, W>;
    const P zero = P::broadcast(0.0);

    // The block's extremes, and from them its bound. min() and max()
    // keep their accumulator when the other operand is NaN, so a NaN
    // term is skipped here; the sums below carry it.
    P lows[kUnroll];
    P highs[kUnroll];
    for (std::size_t u = 0; u < kUnroll; ++u) {
        lows[u] = P::broadcast(std::numeric_limits<double>::infinity());
        highs[u] = P::broadcast(-std::numeric_limits<double>::infinity());
    }
    std::size_t i = 0;
    for (; i + kUnroll * W <= n; i += kUnroll * W) {
        for (std::size_t u = 0; u < kUnroll; ++u) {
            const P v = P::load(x + i + u * W);
            lows[u] = min(lows[u], v);
            highs[u] = max(highs[u], v);
        }
    }
    Range range;
    double lanes[W];
    for (std::size_t u = 0; u < kUnroll; ++u) {
        lows[u].store(lanes);
        for (std::size_t l = 0; l < W; ++l)
            range.lo = lanes[l] < range.lo ? lanes[l] : range.lo;
        highs[u].store(lanes);
        for (std::size_t l = 0; l < W; ++l)
            range.hi = range.hi < lanes[l] ? lanes[l] : range.hi;
    }
    for (; i < n; ++i) {
        range.lo = x[i] < range.lo ? x[i] : range.lo;
        range.hi = range.hi < x[i] ? x[i] : range.hi;
    }
    const double bound = std::max({0.0, range.hi, -range.lo});
    int exponent = 0;
    if (bound <= DBL_MAX)
        std::frexp(bound, &exponent);
    if (!(bound <= DBL_MAX) || exponent > kMaxExponent ||
        (bound != 0.0 && exponent < kMinExponent)) {
        // An infinity, or a bound the grids cannot reach.
        for (std::size_t k = 0; k < n; ++k)
            add(x[k]);
        return range;
    }

    const double sigma1 = std::ldexp(1.0, exponent + kBlockBits + 1);
    const double sigma2 = std::ldexp(1.0, exponent + 2 * kBlockBits - 51);
    const P s1 = P::broadcast(sigma1);
    const P s2 = P::broadcast(sigma2);
    P high[kUnroll];
    P low[kUnroll];
    for (std::size_t u = 0; u < kUnroll; ++u)
        high[u] = low[u] = zero;
    auto exact = zero == zero;
    i = 0;
    for (; i + kUnroll * W <= n; i += kUnroll * W) {
        for (std::size_t u = 0; u < kUnroll; ++u) {
            const P v = P::load(x + i + u * W);
            const P q1 = (s1 + v) - s1;
            const P r1 = v - q1;
            const P q2 = (s2 + r1) - s2;
            high[u] = high[u] + q1;
            low[u] = low[u] + q2;
            exact = exact & ((r1 - q2) == zero);
        }
    }
    const std::size_t split_end = i;
    double high_sum = 0.0;
    double low_sum = 0.0;
    for (; i < n; ++i) {
        const double q1 = (sigma1 + x[i]) - sigma1;
        const double r1 = x[i] - q1;
        high_sum += q1;
        low_sum += (sigma2 + r1) - sigma2;
    }
    // Every partial sum of the q1 (and of the q2) is exact, so the
    // lanes fold in any order.
    for (std::size_t u = 0; u < kUnroll; ++u) {
        high[u].store(lanes);
        for (std::size_t l = 0; l < W; ++l)
            high_sum += lanes[l];
        low[u].store(lanes);
        for (std::size_t l = 0; l < W; ++l)
            low_sum += lanes[l];
    }
    // A NaN term makes these sums NaN, which records it.
    add(high_sum);
    add(low_sum);

    // Residues of terms too small for the grids, exact as doubles.
    const std::size_t residue_from = allTrue(exact) ? split_end : 0;
    for (std::size_t k = residue_from; k < n; ++k) {
        const double q1 = (sigma1 + x[k]) - sigma1;
        const double r1 = x[k] - q1;
        const double r2 = r1 - ((sigma2 + r1) - sigma2);
        if (r2 != 0.0)
            add(r2);
    }
    return range;
}

void
ExactSum::add(const ExactSum &other)
{
    std::uint64_t carry = 0;
    for (std::size_t i = 0; i < kWords; ++i) {
        std::uint64_t sum = _words[i] + other._words[i];
        std::uint64_t out = sum < other._words[i];
        sum += carry;
        out |= sum < carry;
        _words[i] = sum;
        carry = out;
    }
    _positiveInf = _positiveInf || other._positiveInf;
    _negativeInf = _negativeInf || other._negativeInf;
    _nan = _nan || other._nan;
}

double
ExactSum::round() const
{
    if (_nan || (_positiveInf && _negativeInf))
        return std::numeric_limits<double>::quiet_NaN();
    if (_positiveInf)
        return std::numeric_limits<double>::infinity();
    if (_negativeInf)
        return -std::numeric_limits<double>::infinity();

    // Sign and magnitude of the two's-complement integer.
    const bool negative = (_words[kWords - 1] >> 63) != 0;
    std::array<std::uint64_t, kWords> magnitude = _words;
    if (negative) {
        std::uint64_t carry = 1;
        for (std::uint64_t &word : magnitude) {
            word = ~word + carry;
            carry = carry != 0 && word == 0;
        }
    }
    std::size_t top_word = kWords;
    while (top_word > 0 && magnitude[top_word - 1] == 0)
        --top_word;
    if (top_word == 0)
        return 0.0;
    --top_word;
    // Bit index of the leading one, in units of 2^-1074.
    const std::size_t top =
        top_word * 64 + 63 -
        static_cast<std::size_t>(std::countl_zero(magnitude[top_word]));
    const double sign = negative ? -1.0 : 1.0;
    if (top < 53) {
        // Below 2^-1021: the integer itself is exact in double.
        return sign *
               std::ldexp(static_cast<double>(magnitude[0]), -1074);
    }

    // The 64 bits from the leading one down, then whether anything
    // below them is set.
    const auto bits_from = [&](std::size_t position) {
        const std::size_t word = position / 64;
        const unsigned s = position % 64;
        std::uint64_t out = magnitude[word] >> s;
        if (s != 0 && word + 1 < kWords)
            out |= magnitude[word + 1] << (64 - s);
        return out;
    };
    std::uint64_t head = 0;
    bool sticky = false;
    if (top >= 63) {
        const std::size_t low = top - 63;
        head = bits_from(low);
        for (std::size_t word = 0; word < low / 64 && !sticky; ++word)
            sticky = magnitude[word] != 0;
        if (low % 64 != 0)
            sticky = sticky || (magnitude[low / 64] &
                                ((std::uint64_t{1} << (low % 64)) - 1)) != 0;
    } else {
        head = magnitude[0] << (63 - top);
    }

    // 53 kept bits, a round bit, and everything below it as sticky.
    std::uint64_t mantissa = head >> 11;
    const bool round_bit = ((head >> 10) & 1) != 0;
    sticky = sticky || (head & 0x3ff) != 0;
    std::size_t exponent = top;
    if (round_bit && (sticky || (mantissa & 1) != 0)) {
        ++mantissa;
        if (mantissa == std::uint64_t{1} << 53) {
            mantissa >>= 1;
            ++exponent;
        }
    }
    // mantissa * 2^(exponent - 52 - 1074); ldexp is exact for normal
    // results and returns inf past DBL_MAX.
    return sign * std::ldexp(static_cast<double>(mantissa),
                             static_cast<int>(exponent) - 52 - 1074);
}

} // namespace uavf1
