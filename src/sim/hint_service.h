// The simulator's view of the online hint pipeline — a dependency
// inversion required by the layer contract (tools/layers.json): serving
// sits *above* sim (its virtual-time mode is a client of the SimClock), so
// the event engine must be able to drive a hint service without naming any
// serving type. serving::PlacementService implements this interface; the
// harness wires one into SimConfig.
//
// The surface is deliberately the exact slice the engine consumes: submit
// one inference request per arrival event, read the timeliness counters
// after the run. Everything else about the service (batching, sharding,
// deadlines) stays invisible below this line.
#pragma once

#include <cstdint>

#include "trace/job.h"

namespace byom::sim {

// Hint-timeliness counters the engine folds into SimResult after a run.
struct HintTimeliness {
  std::uint64_t on_time = 0;  // ready within the consumer's deadline
  std::uint64_t late = 0;     // not ready by then: the decision fell back
  std::uint64_t dropped = 0;  // rejected at submission (queue full / down)
};

class HintService {
 public:
  virtual ~HintService() = default;

  // Submits the job's inference request at its arrival instant; returns
  // false when the request was rejected (counted as dropped).
  virtual bool enqueue(const trace::Job& job) = 0;

  // Timeliness counters accumulated so far (read at each counter-window
  // close and once after the run).
  virtual HintTimeliness hint_timeliness() const = 0;
};

}  // namespace byom::sim
