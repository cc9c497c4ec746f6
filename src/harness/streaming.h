// Streaming experiment cells: run a placement method over a pull-based
// trace::JobStream instead of a materialized test trace.
//
// The driver wires three pieces together:
//   1. a TraceSummary pre-pass (O(window) memory) supplies the quota peak,
//      horizon, and job count a cell needs before replay;
//   2. MethodFactory::make_streaming_cell builds the policy without ever
//      seeing a materialized test trace;
//   3. when the cell has window hooks (chunked hint precompute, chunked
//      serving enqueue), the stream is wrapped in a windowing decorator
//      that opens a window (StreamingCell::open_window) at each chunk
//      boundary, reusing one chunk-sized buffer.
//
// Results are bit-identical to run_method over the materialized trace for
// every MethodId (pinned by stream_test): run_method builds the same cell
// with one whole-trace window, the simulator runs one engine code path for
// both, providers are batch-composition independent, and the clairvoyant
// oracles — which read the whole test trace by definition — are
// materialized internally and documented as such.
#pragma once

#include <cstdint>

#include "harness/experiment.h"
#include "sim/simulator.h"
#include "sim/soak_counters.h"
#include "trace/job_stream.h"

namespace byom::harness {

struct StreamingRunOptions {
  // Window size of the chunked hooks (precompute batch, serving enqueue
  // batch). Also the natural choice for the backing GeneratedStream's
  // chunk_jobs, though the two need not match.
  std::size_t chunk_jobs = trace::GeneratedStream::kDefaultChunkJobs;
  bool record_outcomes = false;
  // Per-cell construction knobs (backend selection, noise, latency, ...).
  sim::MakeOptions make;
  // Soak telemetry: forwarded to SimConfig (sim/soak_counters.h).
  double counter_period = 0.0;
  sim::CounterSink* counter_sink = nullptr;
  // Submit-ahead mode: forwarded to SimConfig (trace-carried lead times).
  bool use_trace_leads = false;
  double max_hint_lead = 7200.0;
};

// Runs `id` over the test stream under the quota. `summary` must describe
// exactly the jobs `stream` will yield (same filter, same config) — use
// trace::summarize / summarize_generated for the pre-pass. Consumes the
// stream.
sim::SimResult run_method_streaming(const sim::MethodFactory& factory,
                                    sim::MethodId id,
                                    trace::JobStream& stream,
                                    const trace::TraceSummary& summary,
                                    std::uint64_t ssd_capacity_bytes,
                                    const StreamingRunOptions& options = {});

}  // namespace byom::harness
