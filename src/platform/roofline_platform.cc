/**
 * @file
 * RooflinePlatform implementation.
 */

#include "platform/roofline_platform.hh"

#include <cmath>
#include <limits>

#include "support/errors.hh"
#include "support/strings.hh"
#include "support/validate.hh"

namespace uavf1::platform {

units::Watts
dvfsScaledTdp(units::Watts nominal_tdp, double fraction,
              double exponent, double leakage_fraction)
{
    requirePositive(nominal_tdp.value(), "nominal_tdp");
    requireInRange(exponent, 1.0, 3.0, "exponent");
    requireInRange(leakage_fraction, 0.0, 0.9, "leakageFraction");
    if (!(fraction > 0.0) || fraction > 1.0) {
        throw ModelError("DVFS clock fraction must be in (0, 1], "
                         "got " + trimmedNumber(fraction, 6));
    }
    const double leakage = nominal_tdp.value() * leakage_fraction;
    const double dynamic =
        nominal_tdp.value() * (1.0 - leakage_fraction);
    return units::Watts(leakage +
                        dynamic * std::pow(fraction, exponent));
}

std::vector<OperatingPoint>
dvfsOperatingPoints(
    units::Watts nominal_tdp,
    const std::vector<std::pair<std::string, double>> &points,
    double exponent, double leakage_fraction)
{
    std::vector<OperatingPoint> out;
    out.reserve(points.size());
    for (const auto &[name, fraction] : points) {
        out.push_back({name, fraction,
                       dvfsScaledTdp(nominal_tdp, fraction, exponent,
                                     leakage_fraction)});
    }
    return out;
}

const char *
toString(CeilingKind kind)
{
    switch (kind) {
      case CeilingKind::Compute:
        return "compute";
      case CeilingKind::Memory:
        return "memory";
    }
    return "unknown";
}

std::uint32_t
stageTag(const std::string &name)
{
    if (name.empty())
        return 0;
    // FNV-1a over the bytes; forced odd so a real stage can never
    // alias the "ungated" tag 0.
    std::uint32_t hash = 2166136261u;
    for (const char c : name) {
        hash ^= static_cast<std::uint8_t>(c);
        hash *= 16777619u;
    }
    return hash | 1u;
}

void
validateWorkloadProfile(const WorkloadProfile &profile,
                        const std::string &context)
{
    const double ai = profile.ai.value();
    if (!(ai > 0.0) || ai > 1e300) {
        throw ModelError("ai on " + context +
                         " must be positive and finite, got " +
                         shortestNumber(ai));
    }
    for (std::size_t i = 0; i < WorkloadProfile::maxMemoryLevels;
         ++i) {
        const double traffic = profile.trafficFraction[i];
        // !(x >= 0) catches NaN and negatives; the upper bound
        // catches +inf (requireFinite's convention). Values above 1
        // stay legal: they model write amplification.
        if (!(traffic >= 0.0) || traffic > 1e300) {
            throw ModelError(
                "trafficFraction[" + std::to_string(i) + "] on " +
                context + " must be finite and non-negative, got " +
                shortestNumber(traffic));
        }
    }
    for (std::size_t i = 0; i < WorkloadProfile::targetClassCount;
         ++i) {
        const double derate = profile.targetDerate[i];
        // !(x >= 0) catches NaN; the <= 1 bound catches +inf, so the
        // pair doubles as a finiteness check.
        if (!(derate >= 0.0) || derate > 1.0) {
            throw ModelError(
                "targetDerate[" + std::to_string(i) + "] on " +
                context + " must be in [0, 1], got " +
                shortestNumber(derate));
        }
    }
}

namespace {

/** Non-zero FNV-1a family tag of a platform name. */
std::uint32_t
familyTagOf(const std::string &name)
{
    std::uint32_t hash = 2166136261u;
    for (const char c : name) {
        hash ^= static_cast<std::uint8_t>(c);
        hash *= 16777619u;
    }
    return hash == 0 ? 1u : hash;
}

} // namespace

RooflinePlatform::RooflinePlatform(Spec spec) : _spec(std::move(spec))
{
    if (_spec.name.empty())
        throw ModelError("roofline platform requires a name");
    if (_spec.computeCeilings.empty()) {
        throw ModelError("roofline platform '" + _spec.name +
                         "' requires at least one compute ceiling");
    }
    if (_spec.memoryCeilings.empty()) {
        throw ModelError("roofline platform '" + _spec.name +
                         "' requires at least one memory ceiling");
    }
    constexpr std::size_t max_ceilings =
        std::numeric_limits<std::uint16_t>::max();
    if (_spec.computeCeilings.size() > max_ceilings ||
        _spec.memoryCeilings.size() > max_ceilings) {
        throw ModelError("roofline platform '" + _spec.name +
                         "' has too many ceilings for a CeilingRef");
    }
    for (const auto &ceiling : _spec.computeCeilings) {
        if (ceiling.name.empty()) {
            throw ModelError("compute ceiling of '" + _spec.name +
                             "' requires a name");
        }
        requirePositive(ceiling.peak.value(),
                        "peakThroughput of ceiling '" + ceiling.name +
                            "' on " + _spec.name);
    }
    for (const auto &ceiling : _spec.memoryCeilings) {
        if (ceiling.name.empty()) {
            throw ModelError("memory ceiling of '" + _spec.name +
                             "' requires a name");
        }
        requirePositive(ceiling.bandwidth.value(),
                        "memoryBandwidth of ceiling '" +
                            ceiling.name + "' on " + _spec.name);
    }
    if (_spec.operatingPoints.empty())
        _spec.operatingPoints.push_back({"nominal", 1.0,
                                         units::Watts(0.0)});
    for (const auto &point : _spec.operatingPoints) {
        if (point.name.empty()) {
            throw ModelError("operating point of '" + _spec.name +
                             "' requires a name");
        }
        requireFinite(point.frequencyFraction,
                      "frequencyFraction of operating point '" +
                          point.name + "'");
        if (point.frequencyFraction <= 0.0 ||
            point.frequencyFraction > 1.0) {
            throw ModelError(
                "frequencyFraction of operating point '" +
                point.name + "' on " + _spec.name +
                " must be in (0, 1], got " +
                trimmedNumber(point.frequencyFraction, 6));
        }
        requireNonNegative(point.tdp.value(),
                           "tdp of operating point '" + point.name +
                               "'");
    }
    _familyTag = familyTagOf(_spec.name);
    _computeStageTags.reserve(_spec.computeCeilings.size());
    for (const auto &ceiling : _spec.computeCeilings)
        _computeStageTags.push_back(stageTag(ceiling.stage));
}

bool
RooflinePlatform::resolves(CeilingRef ref) const
{
    if (ref.family != 0 && ref.family != _familyTag)
        return false;
    return ref.index < (ref.kind == CeilingKind::Compute
                            ? _spec.computeCeilings.size()
                            : _spec.memoryCeilings.size());
}

void
RooflinePlatform::requireSameFamily(CeilingRef ref) const
{
    if (ref.family != 0 && ref.family != _familyTag) {
        throw ModelError(
            "ceiling ref was attributed by a different platform "
            "family than '" + _spec.name +
            "'; resolve it against the platform that produced it");
    }
}

RooflinePlatform
RooflinePlatform::singleCeiling(const std::string &name,
                                units::Gops peak,
                                units::GigabytesPerSecond bandwidth,
                                units::Watts tdp)
{
    Spec spec;
    spec.name = name;
    spec.computeCeilings.push_back(
        {"effective peak", peak, ComputeTarget::General, {}});
    spec.memoryCeilings.push_back({"DRAM", bandwidth});
    spec.operatingPoints.push_back({"nominal", 1.0, tdp});
    return RooflinePlatform(std::move(spec));
}

std::size_t
RooflinePlatform::operatingPointIndex(const std::string &name) const
{
    for (std::size_t i = 0; i < _spec.operatingPoints.size(); ++i) {
        if (_spec.operatingPoints[i].name == name)
            return i;
    }
    std::vector<std::string> names;
    names.reserve(_spec.operatingPoints.size());
    for (const auto &point : _spec.operatingPoints)
        names.push_back(point.name);
    throw ModelError("unknown operating point '" + name + "' on " +
                     _spec.name + "; operating points: " +
                     join(names, ", "));
}

AttainableBound
RooflinePlatform::attainable(units::OpsPerByte ai,
                             std::size_t op_index) const
{
    // The unannotated evaluation is a default profile at this AI:
    // every target class admitted, no stage, unit traffic at every
    // memory level. The profile path reduces to the exact flat
    // expressions in that case (division by 1.0 is exact), so the
    // two overloads agree bit-for-bit (pinned by property tests).
    WorkloadProfile profile;
    profile.ai = ai;
    return attainable(profile, op_index);
}

AttainableBound
RooflinePlatform::attainable(const WorkloadProfile &profile,
                             std::size_t op_index) const
{
    // Checks are branch-only on the happy path: attainable() runs
    // inside million-sample sweep loops, so no message strings (or
    // any other heap traffic) are built unless a check fails.
    const double ai = profile.ai.value();
    bool profile_ok = ai > 0.0 && ai <= 1e300;
    for (std::size_t i = 0; i < WorkloadProfile::maxMemoryLevels;
         ++i) {
        // !(x >= 0) catches NaN and negatives; the upper bound
        // catches +inf (requireFinite's convention).
        const double traffic = profile.trafficFraction[i];
        profile_ok =
            profile_ok && traffic >= 0.0 && traffic <= 1e300;
    }
    for (std::size_t i = 0; i < WorkloadProfile::targetClassCount;
         ++i) {
        const double derate = profile.targetDerate[i];
        profile_ok = profile_ok && derate >= 0.0 && derate <= 1.0;
    }
    if (!profile_ok)
        validateWorkloadProfile(profile, _spec.name);
    if (op_index >= _spec.operatingPoints.size()) {
        throw ModelError("operating-point index out of range on " +
                         _spec.name);
    }
    const double f =
        _spec.operatingPoints[op_index].frequencyFraction;

    // Highest *applicable* compute roof: the workload runs on the
    // most capable execution target it can actually use. A ceiling
    // applies when its target class is General or in the profile's
    // mask, and its stage gate (if any) matches the profile's
    // stage. First ceiling wins ties so attribution is
    // deterministic.
    bool compute_found = false;
    std::uint16_t compute_index = 0;
    double compute_roof = 0.0;
    for (std::size_t i = 0; i < _spec.computeCeilings.size(); ++i) {
        const ComputeCeiling &ceiling = _spec.computeCeilings[i];
        if (ceiling.target != ComputeTarget::General &&
            (targetBit(ceiling.target) & profile.targets) == 0) {
            continue;
        }
        if (_computeStageTags[i] != 0 &&
            _computeStageTags[i] != profile.stage) {
            continue;
        }
        // Per-class derate left of f: multiplying by the 1.0
        // default is exact, so unannotated profiles keep the old
        // bits. A zero derate makes the roof 0 GOPS — it loses
        // every tie against a positive roof, so the class is
        // effectively removed while the no-ceiling diagnostic
        // still fires only when nothing at all is admitted.
        const double roof =
            ceiling.peak.value() *
            profile.targetDerate[static_cast<unsigned>(
                ceiling.target)] * f;
        if (!compute_found || roof > compute_roof) {
            compute_found = true;
            compute_roof = roof;
            compute_index = static_cast<std::uint16_t>(i);
        }
    }
    if (!compute_found) {
        throw ModelError(
            "no compute ceiling of " + _spec.name +
            " is applicable to the workload profile (target mask " +
            trimmedNumber(static_cast<double>(profile.targets)) +
            (profile.stage != 0 ? ", stage-gated" : "") + ")");
    }

    // Lowest memory roof, each level at its own CARM-style AI:
    // level i sees trafficFraction[i] of the per-frame bytes, so
    // its effective intensity is ai / fraction. The unit-fraction
    // default reproduces the weakest-link chain — expression order
    // (ai * (bw * f)) matches the flat min(peak, AI x BW) bound
    // bit-for-bit when f == 1. Zero-traffic levels cannot bind.
    bool memory_found = false;
    std::uint16_t memory_index = 0;
    double memory_roof = 0.0;
    for (std::size_t i = 0; i < _spec.memoryCeilings.size(); ++i) {
        const double traffic =
            i < WorkloadProfile::maxMemoryLevels
                ? profile.trafficFraction[i]
                : 1.0;
        if (traffic <= 0.0)
            continue;
        const double level_ai = traffic == 1.0 ? ai : ai / traffic;
        const double roof =
            level_ai * (_spec.memoryCeilings[i].bandwidth.value() * f);
        if (!memory_found || roof < memory_roof) {
            memory_found = true;
            memory_roof = roof;
            memory_index = static_cast<std::uint16_t>(i);
        }
    }

    AttainableBound bound;
    if (!memory_found || compute_roof <= memory_roof) {
        bound.attainable = units::Gops(compute_roof);
        bound.binding = {CeilingKind::Compute, compute_index, true,
                         _familyTag};
    } else {
        bound.attainable = units::Gops(memory_roof);
        bound.binding = {CeilingKind::Memory, memory_index, true,
                         _familyTag};
    }
    // Branch-only on the happy path: the message string is built
    // only when the check is about to throw, so the hot path stays
    // allocation-free (pinned by the stage-pipeline guard test).
    if (!std::isfinite(bound.attainable.value())) {
        requireFinite(bound.attainable.value(),
                      "attainable bound on " + _spec.name);
    }
    return bound;
}

units::Gops
RooflinePlatform::ceilingRoof(CeilingRef ref, units::OpsPerByte ai,
                              std::size_t op_index) const
{
    requireSameFamily(ref);
    if (op_index >= _spec.operatingPoints.size()) {
        throw ModelError("operating-point index out of range on " +
                         _spec.name);
    }
    const double f =
        _spec.operatingPoints[op_index].frequencyFraction;
    if (ref.kind == CeilingKind::Compute) {
        if (ref.index >= _spec.computeCeilings.size()) {
            throw ModelError("compute ceiling index out of range on " +
                             _spec.name);
        }
        return units::Gops(
            _spec.computeCeilings[ref.index].peak.value() * f);
    }
    if (ref.index >= _spec.memoryCeilings.size()) {
        throw ModelError("memory ceiling index out of range on " +
                         _spec.name);
    }
    return units::Gops(
        ai.value() *
        (_spec.memoryCeilings[ref.index].bandwidth.value() * f));
}

const std::string &
RooflinePlatform::ceilingName(CeilingRef ref) const
{
    requireSameFamily(ref);
    if (ref.kind == CeilingKind::Compute) {
        if (ref.index >= _spec.computeCeilings.size()) {
            throw ModelError("compute ceiling index out of range on " +
                             _spec.name);
        }
        return _spec.computeCeilings[ref.index].name;
    }
    if (ref.index >= _spec.memoryCeilings.size()) {
        throw ModelError("memory ceiling index out of range on " +
                         _spec.name);
    }
    return _spec.memoryCeilings[ref.index].name;
}

} // namespace uavf1::platform
