// LatencyModel — pluggable virtual-time serving latency.
//
// With a clock, the inline PlacementService charges each inference request a
// latency drawn from one of these models instead of measuring wall time: the
// hint for a job enqueued at virtual time t becomes ready at
// t + latency_seconds(job). The latency covers the whole serving path —
// queueing, batching, and model inference — which is what the paper's
// section-6 dynamics study sweeps.
//
// Determinism contract: latency_seconds() must depend only on the job (and
// the model's own seed), never on call order, wall time, or thread
// scheduling, so simulation cells stay bit-reproducible inside parallel
// sweeps.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "trace/job.h"

namespace byom::serving {

class LatencyModel {
 public:
  virtual ~LatencyModel() = default;

  virtual std::string name() const = 0;

  // Virtual seconds between enqueue and the hint's ready time for this
  // request. Must be >= 0 and deterministic per job.
  virtual double latency_seconds(const trace::Job& job) const = 0;
};

using LatencyModelPtr = std::shared_ptr<const LatencyModel>;

// Every hint is ready the instant it is requested (the offline regime; keeps
// the virtual-time pipeline bit-identical to the synchronous one).
LatencyModelPtr make_zero_latency_model();

// Every request takes exactly `seconds`.
LatencyModelPtr make_fixed_latency_model(double seconds);

// Exponentially distributed latency with the given mean; each job's draw
// derives only from (seed, job_id), so sweeps are deterministic regardless
// of execution order.
LatencyModelPtr make_exponential_latency_model(double mean_seconds,
                                               std::uint64_t seed);

}  // namespace byom::serving
