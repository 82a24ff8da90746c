/**
 * @file
 * Umbrella header for the units library.
 */

#ifndef UAVF1_UNITS_UNITS_HH
#define UAVF1_UNITS_UNITS_HH

#include "units/arithmetic.hh"
#include "units/constants.hh"
#include "units/dimensions.hh"
#include "units/literals.hh"
#include "units/quantity.hh"

#endif // UAVF1_UNITS_UNITS_HH
