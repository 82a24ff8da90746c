/**
 * @file
 * drawNormalPairs implementation.
 */

#include "sim/normals.hh"

#include <algorithm>

namespace uavf1::sim {

void
drawNormalPairs(Rng &rng, std::size_t pairs, double *cosines,
                double *sines)
{
    // Uniform blocks concatenate (uniformBlock is uniform() n times)
    // and Box-Muller is lane-wise, so passes of any size give the
    // same normals.
    constexpr std::size_t kPass = 64;
    double uniforms[2 * kPass];
    double u1[kPass];
    double u2[kPass];
    for (std::size_t base = 0; base < pairs; base += kPass) {
        const std::size_t m = std::min(pairs - base, kPass);
        rng.uniformBlock(uniforms, 2 * m);
        for (std::size_t p = 0; p < m; ++p) {
            u1[p] = uniforms[2 * p];
            u2[p] = uniforms[2 * p + 1];
        }
        dispatchWidth(m, [&](auto w, std::size_t begin, std::size_t end) {
            boxMuller<decltype(w)::value>(u1, u2, begin, end,
                                          cosines + base, sines + base);
        });
    }
}

} // namespace uavf1::sim
