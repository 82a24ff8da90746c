/**
 * @file
 * Airframe implementation.
 */

#include "components/airframe.hh"

#include "support/errors.hh"
#include "support/validate.hh"

namespace uavf1::components {

const char *
toString(SizeClass size_class)
{
    switch (size_class) {
      case SizeClass::Nano:
        return "nano";
      case SizeClass::Micro:
        return "micro";
      case SizeClass::Mini:
        return "mini";
    }
    return "unknown";
}

Airframe::Airframe(Spec spec) : _spec(std::move(spec))
{
    if (_spec.name.empty())
        throw ModelError("airframe requires a name");
    requirePositive(_spec.baseMass.value(), "baseMass");
    requirePositive(_spec.frameSizeMm, "frameSizeMm");
}

} // namespace uavf1::components
