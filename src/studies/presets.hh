/**
 * @file
 * Calibrated per-experiment UAV presets for the paper's case
 * studies (Section VI, VII).
 *
 * The paper quotes, per case study, the knee throughput and a
 * handful of velocities, but not the underlying (a_max, d) pairs its
 * internal tool used. Those pairs are recovered here from the
 * quoted numbers via the knee closed form
 *
 *     f_k = sqrt(a_max / (2 d)) / x,   x = (1 - k^2) / (2k)
 *
 * with the library's default knee criterion k = 0.98 (x = 0.020204):
 *
 * - AscTec Pelican + TX2 (Sections VI-B/VI-D): knee 43 Hz and
 *   "SPA limited to 2.3 m/s at 1.1 Hz" jointly give
 *   a_max = 4.12 m/s^2, d = 2.73 m (both reproduce to 3 digits).
 * - DJI Spark + TX2 (Section VI-D): knee 30 Hz with the 11 m stereo
 *   sensor gives a_max = 2 * 11 m * (30 Hz * x)^2 = 8.082 m/s^2.
 * - Nano-UAV (Section VII): knee 26 Hz with a 6 m nano camera gives
 *   a_max = 2 * 6 m * (26 Hz * x)^2 = 3.310 m/s^2 and a 6.3 m/s
 *   roof, matching Fig. 16c's 5-6 m/s band.
 *
 * Case studies that the paper specifies mechanically rather than by
 * knee (Fig. 11 compute choice, Fig. 14 redundancy) use the
 * component path instead; see scenario/studies/fig11.cc and fig14.cc.
 */

#ifndef UAVF1_STUDIES_PRESETS_HH
#define UAVF1_STUDIES_PRESETS_HH

#include "components/registry.hh"
#include "core/f1_model.hh"
#include "platform/roofline_platform.hh"

namespace uavf1::studies {

/** AscTec Pelican case-study inputs (knee 43 Hz). */
core::F1Inputs pelicanInputs(units::Hertz compute_rate);

/** DJI Spark full-system case-study inputs (knee 30 Hz). */
core::F1Inputs sparkInputs(units::Hertz compute_rate);

/** Nano-UAV accelerator case-study inputs (knee 26 Hz). */
core::F1Inputs nanoInputs(units::Hertz compute_rate);

/**
 * The multi-ceiling roofline platform presets (TX2-, Xavier- and
 * microcontroller-class) the `roofline` study draws from — the
 * components::Catalog::standard() roofline registry by value.
 */
components::Registry<platform::RooflinePlatform>
rooflinePlatformPresets();

} // namespace uavf1::studies

#endif // UAVF1_STUDIES_PRESETS_HH
