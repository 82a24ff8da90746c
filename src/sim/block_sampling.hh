/**
 * @file
 * The sampling skeleton of sim::MonteCarloAnalyzer and
 * fault::FaultCampaign: both draw `count` samples in fixed-size
 * blocks, each from its own Rng::fork() substream keyed by block
 * index, and tally which ceiling binds in integer counts. Block
 * geometry depends only on the count and counts add exactly, so a
 * run is bit-identical at any thread count (the determinism contract
 * in ROADMAP.md).
 *
 * The skeleton is the control flow only. Each sampler keeps its own
 * per-sample arithmetic, and so its scalar oracle stays independent.
 */

#ifndef UAVF1_SIM_BLOCK_SAMPLING_HH
#define UAVF1_SIM_BLOCK_SAMPLING_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "exec/parallel.hh"
#include "platform/roofline_platform.hh"
#include "support/errors.hh"
#include "support/rng.hh"

namespace uavf1::sim {

/**
 * The blocks of one sampling run: block b covers samples
 * [lo(b), hi(b)) and draws from the b-th fork of Rng(seed).
 */
class BlockLayout
{
  public:
    /**
     * Lay `count` samples out in blocks of `block`, forking one
     * substream per block in block order.
     *
     * @param what the run as its errors name it, e.g. "fault campaign"
     * @throws ModelError for a count outside [10, 2^53] (2^53 is the
     *         StudyParams bound), before any allocation
     */
    BlockLayout(const char *what, std::size_t count, std::size_t block,
                std::uint64_t seed)
        : _count(count), _block(block)
    {
        if (count < 10)
            throw ModelError(std::string(what) + " needs >= 10 samples");
        constexpr std::size_t kMaxCount = std::size_t{1} << 53;
        if (count > kMaxCount) {
            throw ModelError(std::string(what) +
                             " count must be at most 2^53, got " +
                             std::to_string(count));
        }
        // count <= 2^53, so the rounded-up quotient cannot wrap.
        const std::size_t blocks = (count + block - 1) / block;
        _rngs.reserve(blocks);
        Rng root(seed);
        for (std::size_t b = 0; b < blocks; ++b)
            _rngs.push_back(root.fork());
    }

    std::size_t count() const { return _count; }
    std::size_t blocks() const { return _rngs.size(); }
    std::size_t lo(std::size_t b) const { return b * _block; }
    std::size_t hi(std::size_t b) const
    {
        return std::min(_count, lo(b) + _block);
    }
    /** A fresh copy of block b's substream. */
    Rng rng(std::size_t b) const { return _rngs[b]; }

    /**
     * Run body(slot, b, lo(b), hi(b), rng(b)) for every block on
     * `parallel`'s pool, one block per chunk. `slot` is
     * exec::parallelForSlots' slot, below exec::maxSlots(parallel):
     * it indexes scratch and exact tallies, never keyed state.
     */
    template <typename Body>
    void forEach(const exec::ParallelOptions &parallel, Body &&body) const
    {
        exec::ParallelOptions options = parallel;
        options.grain = 1;
        exec::parallelForSlots(
            blocks(),
            [&](std::size_t slot, std::size_t begin, std::size_t end) {
                for (std::size_t b = begin; b < end; ++b) {
                    Rng rng = _rngs[b];
                    body(slot, b, lo(b), hi(b), rng);
                }
            },
            options);
    }

  private:
    std::size_t _count;
    std::size_t _block;
    std::vector<Rng> _rngs;
};

/**
 * Integer tallies of what binds: one count per flat ceiling slot
 * (RooflinePlatform::ceilingSlot) and three per pipeline stage.
 * Counts add exactly, so per-slot tallies merge to the same totals
 * in any order. The counts end a cache line before their buffer
 * does, so the per-slot tallies of one loop never share a line.
 */
class BindingTallies
{
  public:
    /** How a stage's latency was bound. */
    enum StageKind : std::size_t
    {
        kComputeBound,
        kMemoryBound,
        kMeasured, ///< Measurement-sourced: no ceiling attributed.
    };

    /** Zero counts for `machine`'s ceilings (none when unset) and
     * `stages` stages. */
    BindingTallies(const std::optional<platform::RooflinePlatform> &machine,
                   std::size_t stages)
        : _computeCeilings(machine ? machine->computeCeilings().size()
                                   : 0),
          _ceilings(machine ? _computeCeilings +
                                  machine->memoryCeilings().size()
                            : 0),
          _stages(stages),
          _counts(_ceilings + 3 * stages + kLineWords, 0)
    {}

    /** The kind of a stage whose latency `binding` attributes. */
    static StageKind kindOf(platform::CeilingRef binding)
    {
        if (!binding.attributed)
            return kMeasured;
        return binding.kind == platform::CeilingKind::Compute
                   ? kComputeBound
                   : kMemoryBound;
    }

    void addCeiling(std::size_t slot, std::uint64_t n = 1)
    {
        _counts[slot] += n;
    }
    void addStage(std::size_t stage, std::size_t kind,
                  std::uint64_t n = 1)
    {
        _counts[_ceilings + stage * 3 + kind] += n;
    }
    /** Add counts[stage * 3 + kind] for every stage (the layout
     * StagePipelinePlan::evaluateBlock accumulates). */
    void addStages(const std::uint64_t *counts)
    {
        for (std::size_t k = 0; k < 3 * _stages; ++k)
            _counts[_ceilings + k] += counts[k];
    }
    void add(const BindingTallies &other)
    {
        for (std::size_t k = 0; k < _ceilings + 3 * _stages; ++k)
            _counts[k] += other._counts[k];
    }

    /**
     * The counts as shares of `denominator` (all 0 when it is 0),
     * written to the binding vectors UncertaintyResult and
     * CampaignResult share: probComputeCeilingBinds,
     * probMemoryCeilingBinds and stageBindings, named from
     * `stage_names`.
     */
    template <typename Result>
    void writeShares(std::uint64_t denominator,
                     const std::vector<std::string> &stage_names,
                     Result &result) const
    {
        const auto share = [&](std::size_t k) {
            return denominator > 0
                       ? static_cast<double>(_counts[k]) /
                             static_cast<double>(denominator)
                       : 0.0;
        };
        result.probComputeCeilingBinds.resize(_computeCeilings);
        result.probMemoryCeilingBinds.resize(_ceilings -
                                             _computeCeilings);
        for (std::size_t k = 0; k < _ceilings; ++k) {
            (k < _computeCeilings
                 ? result.probComputeCeilingBinds[k]
                 : result.probMemoryCeilingBinds[k - _computeCeilings]) =
                share(k);
        }
        result.stageBindings.resize(_stages);
        for (std::size_t s = 0; s < _stages; ++s) {
            auto &stats = result.stageBindings[s];
            const std::size_t at = _ceilings + s * 3;
            stats.stage = stage_names[s];
            stats.probComputeBound = share(at + kComputeBound);
            stats.probMemoryBound = share(at + kMemoryBound);
            stats.probMeasured = share(at + kMeasured);
        }
    }

  private:
    /** Trailing padding: one cache line of counts. */
    static constexpr std::size_t kLineWords = 64 / sizeof(std::uint64_t);

    std::size_t _computeCeilings;
    std::size_t _ceilings;
    std::size_t _stages;
    std::vector<std::uint64_t> _counts;
};

} // namespace uavf1::sim

#endif // UAVF1_SIM_BLOCK_SAMPLING_HH
