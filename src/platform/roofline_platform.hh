/**
 * @file
 * Multi-ceiling roofline description of an onboard compute platform.
 *
 * The classic Williams roofline reduces a machine to two scalars —
 * one peak throughput and one memory bandwidth. Real onboard SoCs
 * (TX2/Xavier-class parts, microcontrollers with DSP extensions)
 * expose a *family* of ceilings: scalar vs. SIMD vs. accelerator
 * compute roofs and DRAM vs. on-chip bandwidths, all scaled together
 * by DVFS operating points. A RooflinePlatform holds that family in
 * order and answers the question every sweep wants answered natively:
 * what is the attainable bound at a given arithmetic intensity, and
 * *which ceiling binds it*?
 *
 * Semantics: compute ceilings are *alternative* execution targets —
 * the workload runs on the most capable one, so the compute roof is
 * the highest peak. Memory ceilings are *serial* stages of the same
 * datapath — streamed data traverses every level, so the memory
 * roof is AI x the slowest bandwidth. The attainable bound is the
 * lesser of the two roofs, an upper bound exactly as the roofline
 * model defines attainable performance, and the binding ceiling
 * (best compute target or weakest memory link) travels with it as
 * provenance. The degenerate one-compute/one-memory family
 * reproduces the flat min(peak, AI x BW) bound bit-for-bit at every
 * operating point, which is what makes components::ComputePlatform
 * a thin single-ceiling adapter over this class.
 */

#ifndef UAVF1_PLATFORM_ROOFLINE_PLATFORM_HH
#define UAVF1_PLATFORM_ROOFLINE_PLATFORM_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "platform/ceiling.hh"
#include "platform/workload_profile.hh"
#include "units/units.hh"

namespace uavf1::platform {

/** One compute roof of the family (e.g. "scalar", "SIMD", "GPU"). */
struct ComputeCeiling
{
    std::string name;  ///< Execution target, e.g. "NEON SIMD".
    units::Gops peak;  ///< Effective peak throughput at nominal clock.
    /** Execution-target class, matched against a workload's
     * applicability mask; General applies to every workload. */
    ComputeTarget target = ComputeTarget::General;
    /** Pipeline stage this ceiling is gated to (e.g. a VIO ASIC
     * accelerating only "SLAM"); empty = any workload. */
    std::string stage;
};

/** One bandwidth roof of the family (e.g. "DRAM", "on-chip"). */
struct MemoryCeiling
{
    std::string name;  ///< Memory level, e.g. "LPDDR4 DRAM".
    units::GigabytesPerSecond bandwidth; ///< Nominal-clock bandwidth.
};

/**
 * A DVFS operating point: every ceiling of the family scales
 * linearly with the frequency fraction (throughput ~ f), while the
 * TDP follows the CMOS power law modeled by workload::DvfsModel.
 */
struct OperatingPoint
{
    std::string name;               ///< e.g. "nominal", "half-clock".
    double frequencyFraction = 1.0; ///< Clock as a fraction of nominal.
    units::Watts tdp{0.0};          ///< TDP at this point (0: unknown).
};

/**
 * TDP after slowing a part to `fraction` of its nominal clock
 * under the classic CMOS power law:
 *
 *   tdp(f) = leakage + dynamic * f^exponent
 *
 * with leakage = leakage_fraction x nominal and dynamic the rest.
 * This is the single source of the law; workload::DvfsModel wraps
 * it with its parameter set and DVFS-floor policy.
 *
 * @param fraction clock fraction in (0, 1]
 * @param exponent power-vs-frequency exponent in [1, 3]
 * @param leakage_fraction static-leakage share in [0, 0.9]
 * @throws ModelError on out-of-range arguments
 */
units::Watts dvfsScaledTdp(units::Watts nominal_tdp,
                           double fraction, double exponent = 3.0,
                           double leakage_fraction = 0.1);

/**
 * DVFS operating points from (name, clock fraction) pairs, each
 * carrying the dvfsScaledTdp() TDP at its fraction.
 */
std::vector<OperatingPoint>
dvfsOperatingPoints(units::Watts nominal_tdp,
                    const std::vector<std::pair<std::string, double>>
                        &points,
                    double exponent = 3.0,
                    double leakage_fraction = 0.1);

/** The attainable bound at one arithmetic intensity. */
struct AttainableBound
{
    units::Gops attainable; ///< min(compute roof, memory roof).
    CeilingRef binding;     ///< The ceiling realizing that bound.
};

/**
 * An ordered ceiling-set model of one compute platform.
 */
class RooflinePlatform
{
  public:
    /** Aggregate of all constructor attributes. */
    struct Spec
    {
        std::string name; ///< Catalog designation.
        /** Compute roofs, conventionally slowest first. At least 1. */
        std::vector<ComputeCeiling> computeCeilings;
        /** Bandwidth roofs, conventionally slowest first. At least 1. */
        std::vector<MemoryCeiling> memoryCeilings;
        /** DVFS operating points; empty means nominal-only. */
        std::vector<OperatingPoint> operatingPoints;
        std::string description; ///< Free-form notes.
    };

    /**
     * Construct from a validated spec.
     *
     * @throws ModelError on an empty name, an empty ceiling family,
     *         non-positive peaks/bandwidths, or operating-point
     *         frequency fractions outside (0, 1]
     */
    explicit RooflinePlatform(Spec spec);

    /**
     * The flat-roofline degenerate family: one compute ceiling
     * ("effective peak") and one memory ceiling ("DRAM") at a single
     * nominal operating point. This is the adapter the legacy
     * two-scalar ComputePlatform sits on.
     */
    static RooflinePlatform
    singleCeiling(const std::string &name, units::Gops peak,
                  units::GigabytesPerSecond bandwidth,
                  units::Watts tdp = units::Watts(0.0));

    /** Catalog designation. */
    const std::string &name() const { return _spec.name; }

    /**
     * Non-zero identity tag of this ceiling family (a hash of the
     * platform name, computed at construction). Every CeilingRef
     * this platform attributes carries the tag, so resolving a ref
     * against a *different* family is a detectable error instead of
     * a silent misattribution. Two platforms with the same name
     * (e.g. a spec and its withOperatingPoints() copy) share a tag.
     */
    std::uint32_t familyTag() const { return _familyTag; }

    /**
     * True when `ref` can be resolved against this platform: its
     * family tag is 0 (untagged/hand-made) or equal to familyTag(),
     * and its index is within the referenced ceiling list.
     */
    bool resolves(CeilingRef ref) const;

    /** Free-form notes. */
    const std::string &description() const
    {
        return _spec.description;
    }

    /** Ordered compute roofs. */
    const std::vector<ComputeCeiling> &computeCeilings() const
    {
        return _spec.computeCeilings;
    }

    /** Ordered bandwidth roofs. */
    const std::vector<MemoryCeiling> &memoryCeilings() const
    {
        return _spec.memoryCeilings;
    }

    /** Flat slot of a ceiling: compute ceilings first, then memory
     * ceilings — the slot space of the evaluation plans and of the
     * samplers' binding tallies. */
    std::size_t ceilingSlot(CeilingRef ref) const
    {
        return ref.kind == CeilingKind::Compute
                   ? ref.index
                   : _spec.computeCeilings.size() + ref.index;
    }

    /** Ordered DVFS operating points (index 0 is nominal). */
    const std::vector<OperatingPoint> &operatingPoints() const
    {
        return _spec.operatingPoints;
    }

    /**
     * Index of a named operating point (case-sensitive).
     *
     * @throws ModelError for unknown names, listing what exists
     */
    std::size_t
    operatingPointIndex(const std::string &name) const;

    /**
     * Attainable bound at an arithmetic intensity, evaluated over
     * the whole ceiling family at one operating point, with the
     * binding ceiling as provenance. This is the *unannotated*
     * evaluation: every non-stage-gated compute ceiling applies
     * (a stage-gated ceiling serves only kernels carrying its
     * stage tag, which an unannotated workload does not) and every
     * memory level carries the full traffic stream (equivalent to
     * a default WorkloadProfile at this AI, bit-for-bit).
     *
     * @param ai arithmetic intensity; must be positive
     * @param op_index operating-point index (default nominal)
     * @throws ModelError on non-positive AI, an out-of-range
     *         operating point, or a non-finite bound
     */
    AttainableBound attainable(units::OpsPerByte ai,
                               std::size_t op_index = 0) const;

    /**
     * Workload-aware attainable bound: only the ceilings the
     * profile's applicability mask (target classes + stage tag)
     * admits compete for the compute roof, and each memory level is
     * evaluated at its own CARM-style arithmetic intensity
     * (profile.ai / trafficFraction[level]); levels with zero
     * traffic cannot bind. The binding ceiling travels with the
     * bound, tagged with this platform's familyTag().
     *
     * @param profile the workload's ceiling contract; profile.ai
     *        must be positive, traffic fractions finite and >= 0
     * @param op_index operating-point index (default nominal)
     * @throws ModelError on a degenerate profile, an out-of-range
     *         operating point, a non-finite bound, or when no
     *         compute ceiling is applicable to the profile
     */
    AttainableBound attainable(const WorkloadProfile &profile,
                               std::size_t op_index = 0) const;

    /**
     * The roof value of one specific ceiling at an arithmetic
     * intensity and operating point: the (scaled) peak for a compute
     * ceiling, AI x scaled bandwidth for a memory ceiling. This is
     * what the ceiling-family chart plots, one line per ceiling.
     *
     * @throws ModelError on an out-of-range reference or operating
     *         point
     */
    units::Gops ceilingRoof(CeilingRef ref, units::OpsPerByte ai,
                            std::size_t op_index = 0) const;

    /**
     * Human-readable name of a referenced ceiling.
     *
     * @throws ModelError on an out-of-range reference or a ref
     *         attributed by a different platform family
     */
    const std::string &ceilingName(CeilingRef ref) const;

    /**
     * Copy of this platform with a different operating-point set
     * (e.g. produced by workload::DvfsModel).
     */
    RooflinePlatform
    withOperatingPoints(std::vector<OperatingPoint> points) const;

  private:
    /** @throws ModelError if `ref` was attributed by a different
     * platform family than this one. */
    void requireSameFamily(CeilingRef ref) const;

    Spec _spec;
    std::uint32_t _familyTag = 0;
    /** stageTag() of each compute ceiling's stage, precomputed so
     * attainable() never hashes in a hot loop. */
    std::vector<std::uint32_t> _computeStageTags;
};

} // namespace uavf1::platform

#endif // UAVF1_PLATFORM_ROOFLINE_PLATFORM_HH
