/**
 * @file
 * Umbrella header for the physics library.
 */

#ifndef UAVF1_PHYSICS_PHYSICS_HH
#define UAVF1_PHYSICS_PHYSICS_HH

#include "physics/acceleration.hh"
#include "physics/battery.hh"
#include "physics/drag.hh"
#include "physics/mass_budget.hh"
#include "physics/propulsion.hh"

#endif // UAVF1_PHYSICS_PHYSICS_HH
