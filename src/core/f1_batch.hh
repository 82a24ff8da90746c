/**
 * @file
 * Block-evaluation kernels for the F-1 model hot loops.
 *
 * F1Model::analyzeInto() is allocation-free but evaluates one AoS
 * sample at a time, which keeps the compiler from vectorizing the
 * sqrt/divide chain at the core of every Monte-Carlo sample. These
 * kernels take caller-owned SoA arrays (one block — typically 64
 * samples — at a time) and run the *same arithmetic on the same
 * values in the same order*: the Eq. 3 argmin with its strict-<
 * first-wins rule, v = a * (sqrt(t^2 + 2d/a) - t), the knee and
 * physics-roof expressions, and the bound classification. sqrt and
 * division are correctly rounded per IEEE 754, so vectorizing them
 * is bit-exact. Nothing here calls exp or log: the samplers draw
 * their inputs beforehand with simd/math.hh's width-invariant ones.
 *
 * Validation is an accumulated branch-only flag; when any sample
 * fails, callers re-run the scalar analyzeInto() sample-major so the
 * thrown error (and which sample throws first) matches the scalar
 * loop exactly.
 */

#ifndef UAVF1_CORE_F1_BATCH_HH
#define UAVF1_CORE_F1_BATCH_HH

#include <cstddef>
#include <cstdint>

#include "core/f1_model.hh"

namespace uavf1::core {

/**
 * Lean Monte-Carlo kernel: v_safe, knee throughput, roof velocity
 * and the bound classification for `n` samples with per-sample
 * physics and rates, a constant control rate, and a constant knee
 * fraction. Outputs only what the samplers tally — the unused
 * analysis fields (knee velocity, per-subsystem ceilings, verdict)
 * are independent expressions in analyzeInto(), so skipping them
 * cannot change these results.
 *
 * bound[i] is static_cast<uint8_t>(core::BoundType).
 *
 * @return false when any sample fails analyzeInto()'s validation
 *         (non-positive or non-finite physics/rates); outputs are
 *         then unspecified and the caller must rescan sample-major
 *         via analyzeInto() to throw the matching error
 */
bool analyzeBlock(const double *a_max, const double *range,
                  const double *sensor, const double *compute,
                  double control, double knee_fraction,
                  std::size_t n, double *v_safe, double *knee,
                  double *roof, std::uint8_t *bound);

/**
 * Leaner still: only v_safe, with per-sample rates and constant
 * physics. Same contract. No study calls it; perfbench's core layer
 * probes it.
 */
bool analyzeVSafeBlock(double a_max, double range,
                       const double *sensor, const double *compute,
                       double control, std::size_t n,
                       double *v_safe);

} // namespace uavf1::core

#endif // UAVF1_CORE_F1_BATCH_HH
