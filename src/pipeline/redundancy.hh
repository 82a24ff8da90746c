/**
 * @file
 * Modular compute redundancy (paper Section VI-C, Fig. 14).
 *
 * Dual (DMR) or triple (TMR) replication of the onboard computer
 * increases reliability: replicas consume the same sensor input in
 * parallel and a validator/voter checks their outputs before the
 * controller acts (the paper notes the similarity to Tesla's FSD
 * arrangement). Replication does not improve throughput — replicas
 * race on the same frame — but it multiplies payload mass and power,
 * which lowers a_max and with it the physics roof.
 */

#ifndef UAVF1_PIPELINE_REDUNDANCY_HH
#define UAVF1_PIPELINE_REDUNDANCY_HH

#include "components/compute_platform.hh"
#include "thermal/heatsink.hh"
#include "units/units.hh"

namespace uavf1::pipeline {

/** Replication scheme. */
enum class RedundancyScheme
{
    None,    ///< Single computer.
    Dual,    ///< DMR: two replicas + validator.
    Triple,  ///< TMR: three replicas + majority voter.
};

/** Replica count for a scheme (1, 2 or 3). */
int replicaCount(RedundancyScheme scheme);

/**
 * Payload, power and timing model of a redundant compute subsystem.
 */
class ModularRedundancy
{
  public:
    /** Voter/validator overheads. */
    struct Params
    {
        /** Added decision latency of the output validator. */
        units::Seconds voterLatency{0.001};
        /** Mass of the validator/voting hardware. */
        units::Grams voterMass{15.0};
    };

    /** Construct for a scheme with default voter overheads. */
    explicit ModularRedundancy(RedundancyScheme scheme)
        : ModularRedundancy(scheme, Params{})
    {}

    /** Construct with explicit voter overheads. */
    ModularRedundancy(RedundancyScheme scheme, const Params &params);

    /** Scheme in effect. */
    RedundancyScheme scheme() const { return _scheme; }

    /** Number of compute replicas. */
    int replicas() const { return replicaCount(_scheme); }

    /**
     * Total compute payload mass: replicas x (module + heat sink),
     * plus the voter for redundant schemes.
     */
    units::Grams
    payloadMass(const components::ComputePlatform &platform,
                const thermal::HeatsinkModel &heatsink) const;

    /** Total compute power: replicas x TDP. */
    units::Watts power(const components::ComputePlatform &platform) const;

    /**
     * Effective compute throughput after the voter: replicas run in
     * parallel on the same frame, so the base rate is unchanged, but
     * the validator adds serial latency for redundant schemes.
     */
    units::Hertz effectiveThroughput(units::Hertz base) const;

  private:
    RedundancyScheme _scheme;
    Params _params;
};

} // namespace uavf1::pipeline

#endif // UAVF1_PIPELINE_REDUNDANCY_HH
