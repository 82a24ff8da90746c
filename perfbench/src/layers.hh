/**
 * @file
 * The traced run's layer probes: timed calls into each layer's public
 * functions, the host's own roofline (triad bandwidth and mul/add
 * peak) and the four block kernels placed on it.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include "common.hh"
#include "exec/thread_pool.hh"
#include "trace.hh"

namespace perfbench {

/**
 * Run every layer probe on `pool` (N threads) and a private 1-thread
 * pool, one top-level trace operation per layer group, and add the
 * per-layer metrics. Probes re-check what they time: 1-thread
 * results equal N-thread results, batched samplers equal their
 * scalar oracles, and native SIMD kernels equal the scalar path.
 */
void measureLayers(const Env &env, uavf1::exec::ThreadPool &pool,
                   Tracer &tracer, Metrics &metrics, Ledger &ledger);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
