#pragma once

/// \file aggregator.hpp
/// The sweep layer's names for the cell collector and its summary
/// (sim/cell_trials.hpp): a cell record carries `exp::CellStats`, and a
/// caller that drives `sim::Run` cell by cell collects through
/// `exp::Aggregator`.  There is one collector; these are aliases of it.

#include "sim/cell_trials.hpp"

namespace wakeup::exp {

using Aggregator = sim::CellTrials;
using CellStats = sim::CellStats;

}  // namespace wakeup::exp
