// Names for callers that spell out a distributed run: it is a Simulation
// over a multi-block forest, constructed with a communicator
// (app/simulation.hpp).
#pragma once

#include "pfc/app/simulation.hpp"

namespace pfc::app {

using DistributedOptions = SimulationOptions;
using DistributedSimulation = Simulation;

}  // namespace pfc::app
