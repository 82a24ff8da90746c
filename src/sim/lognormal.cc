/**
 * @file
 * LognormalDraw implementation.
 *
 * drawBlock() runs two passes per 64-sample chunk: the chunk's
 * Box-Muller pairs (drawNormalPairs, sim/normals.hh), then one exp
 * pass per factor column. Both are Pack kernels dispatched like the
 * batch kernels (native-width strides, W = 1 tail); drawSample()
 * runs the same kernels at W = 1, one pair at a time, so the two
 * agree bit for bit.
 */

#include "sim/lognormal.hh"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <string>

#include "sim/normals.hh"
#include "support/errors.hh"

namespace uavf1::sim {

namespace {

/** Samples per internal pass. Even, so a full pass holds an even
 * number of normals at any factor count and never splits a pair. */
constexpr std::size_t kChunk = 64;
constexpr std::size_t kMaxPairs = kChunk * LognormalDraw::maxFactors / 2;

/** column[i] = exp(mu + sigma column[i]) over [begin, end). */
template <std::size_t W>
void
shape(double mu, double sigma, double *column, std::size_t begin,
      std::size_t end)
{
    using P = simd::Pack<double, W>;
    for (std::size_t i = begin; i < end; i += W)
        simd::exp(P::broadcast(mu) +
                  P::broadcast(sigma) * P::load(column + i))
            .store(column + i);
}

} // namespace

void
requireSpread(double rel_std, std::string_view name)
{
    if (!(rel_std >= 0.0 && rel_std * rel_std <= DBL_MAX)) {
        char value[32];
        std::snprintf(value, sizeof value, "%g", rel_std);
        throw ModelError(std::string(name) +
                         " must be a relative spread in [0, 1.34e154] "
                         "(so log(1 + s^2) is finite), got " +
                         value);
    }
}

LognormalDraw::LognormalDraw(std::span<const double> rel_stds)
    : _factors(rel_stds.size())
{
    if (_factors > maxFactors) {
        throw ModelError("a lognormal draw shapes at most " +
                         std::to_string(maxFactors) + " factors, got " +
                         std::to_string(_factors));
    }
    for (std::size_t f = 0; f < _factors; ++f) {
        const double s = rel_stds[f];
        requireSpread(s, "lognormal spread " + std::to_string(f));
        if (s == 0.0)
            continue;
        const double sigma2 =
            simd::log(simd::Pack<double, 1>::broadcast(1.0 + s * s))
                .lane[0];
        _factor[f] = {true, -sigma2 / 2.0, std::sqrt(sigma2)};
        ++_active;
    }
}

void
LognormalDraw::drawBlock(Rng &rng, std::size_t count,
                         double *const *columns) const
{
    double normals[2][kMaxPairs]; // Each pair's cosine, then sine.
    for (std::size_t base = 0; base < count; base += kChunk) {
        const std::size_t m = std::min(count - base, kChunk);
        const std::size_t pairs = (m * _active + 1) / 2;
        drawNormalPairs(rng, pairs, normals[0], normals[1]);

        // Normal j = i * _active + (active factors before f) is
        // factor f of sample i.
        std::size_t slot = 0;
        for (std::size_t f = 0; f < _factors; ++f) {
            double *column = columns[f] + base;
            const Factor &factor = _factor[f];
            if (!factor.active) {
                std::fill_n(column, m, 1.0);
                continue;
            }
            for (std::size_t i = 0; i < m; ++i) {
                const std::size_t j = i * _active + slot;
                column[i] = normals[j & 1][j >> 1];
            }
            ++slot;
            dispatchWidth(m, [&](auto w, std::size_t begin,
                                 std::size_t end) {
                shape<decltype(w)::value>(factor.mu, factor.sigma, column,
                                          begin, end);
            });
        }
    }
}

void
LognormalDraw::drawSample(Rng &rng, Carry &carry, double *factors) const
{
    for (std::size_t f = 0; f < _factors; ++f) {
        const Factor &factor = _factor[f];
        if (!factor.active) {
            factors[f] = 1.0;
            continue;
        }
        double z = carry.normal;
        if (!carry.pending) {
            double u[2];
            rng.uniformBlock(u, 2);
            simd::boxMuller<1>(u, u + 1, 0, 1, &z, &carry.normal);
        }
        carry.pending = !carry.pending;
        shape<1>(factor.mu, factor.sigma, &z, 0, 1);
        factors[f] = z;
    }
}

} // namespace uavf1::sim
