/**
 * @file
 * Umbrella header for downstream users of the uavf1 library.
 *
 * Pulls in the full public API: units, physics, thermal,
 * components, workloads, redundancy schemes, the F-1 core,
 * the flight simulator, the parallel sweep engine, plotting and
 * Skyline.
 */

#ifndef UAVF1_UAVF1_HH
#define UAVF1_UAVF1_HH

#include "components/catalog.hh"
#include "control/flight_controller.hh"
#include "control/pid.hh"
#include "core/f1_model.hh"
#include "core/safety_model.hh"
#include "core/uav_config.hh"
#include "exec/parallel.hh"
#include "exec/thread_pool.hh"
#include "physics/physics.hh"
#include "pipeline/redundancy.hh"
#include "platform/roofline_platform.hh"
#include "platform/workload_profile.hh"
#include "plot/ascii_renderer.hh"
#include "plot/csv_writer.hh"
#include "plot/roofline_chart.hh"
#include "plot/svg_writer.hh"
#include "sim/flight_sim.hh"
#include "sim/table1.hh"
#include "sim/validation.hh"
#include "skyline/dse.hh"
#include "skyline/report.hh"
#include "skyline/session.hh"
#include "support/errors.hh"
#include "thermal/heatsink.hh"
#include "units/units.hh"
#include "workload/algorithm.hh"
#include "workload/dvfs.hh"
#include "workload/spa_pipeline.hh"
#include "workload/throughput.hh"

#endif // UAVF1_UAVF1_HH
