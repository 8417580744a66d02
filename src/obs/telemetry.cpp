#include "obs/telemetry.hpp"

namespace roia::obs {

Telemetry::Telemetry() { protocols.bindMetrics(&metrics); }

}  // namespace roia::obs
