/**
 * @file
 * Trivially-copyable ceiling attribution types.
 *
 * Split out of roofline_platform.hh so the F-1 hot path
 * (core::F1Inputs / core::F1Analysis) can carry a ceiling
 * attribution without pulling strings or vectors into the
 * allocation-free analyzeInto() contract: a CeilingRef is a plain
 * enum + index pair, resolvable to a human-readable ceiling name
 * only when a RooflinePlatform is at hand.
 */

#ifndef UAVF1_PLATFORM_CEILING_HH
#define UAVF1_PLATFORM_CEILING_HH

#include <cstdint>

namespace uavf1::platform {

/** Which family a ceiling belongs to. */
enum class CeilingKind : std::uint8_t
{
    Compute, ///< A compute roof (scalar, SIMD, accelerator, ...).
    Memory,  ///< A bandwidth roof (DRAM, on-chip, ...).
};

/** Printable kind name ("compute", "memory"). */
const char *toString(CeilingKind kind);

/**
 * The execution-target class a compute ceiling models. A workload's
 * applicability mask (platform::WorkloadProfile) selects target
 * classes; General ceilings apply to every workload, so flat
 * single-ceiling adapters and unannotated presets keep binding for
 * all algorithms.
 */
enum class ComputeTarget : std::uint8_t
{
    General,     ///< Reachable by any workload (default).
    Scalar,      ///< Scalar integer/FP pipelines.
    Simd,        ///< Vector/DSP extensions (NEON, DSP MAC, ...).
    Accelerator, ///< GPU / NPU / fixed-function engines.
};

/**
 * A reference to one ceiling of a RooflinePlatform: the kind plus
 * the index into that platform's ordered ceiling list. Trivially
 * copyable by design — this is the form ceiling attribution takes
 * through the allocation-free F-1 hot path.
 *
 * A default-constructed ref is *unattributed* (attributed ==
 * false): it records that no ceiling analysis produced it — a
 * measured throughput, a direct override. Consumers must check
 * attributed before treating kind/index as a real ceiling.
 *
 * An attributed ref also carries the *family tag* of the platform
 * that produced it (RooflinePlatform::familyTag, a non-zero hash of
 * the platform name). Resolving a tagged ref against a platform
 * with a different tag is a ModelError, never a silent
 * misattribution; a tag of 0 marks a hand-made ref that any
 * platform accepts (bounds permitting).
 */
struct CeilingRef
{
    CeilingKind kind = CeilingKind::Compute;
    std::uint16_t index = 0;
    /** True only when a ceiling-set evaluation set kind/index. */
    bool attributed = false;
    /** Producing platform's family tag; 0 = untagged. */
    std::uint32_t family = 0;
};

/** Equality: unattributed refs are all equal; attributed refs
 * compare by kind, index and family tag. */
inline bool
operator==(CeilingRef a, CeilingRef b)
{
    if (!a.attributed || !b.attributed)
        return a.attributed == b.attributed;
    return a.kind == b.kind && a.index == b.index &&
           a.family == b.family;
}

/** Inequality. */
inline bool
operator!=(CeilingRef a, CeilingRef b)
{
    return !(a == b);
}

} // namespace uavf1::platform

#endif // UAVF1_PLATFORM_CEILING_HH
