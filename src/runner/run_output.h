// Shared result-output plumbing for the runner tools.
//
// sstsp_sim, sstsp_swarm and sstsp_node all end a run the same way: print
// the human-readable summary (+ profile + audit), optionally stream the
// event trace as JSONL with a terminating summary record, optionally write
// the CSV series / metrics JSON document / trace dump, and turn a
// --monitor=strict violation into a non-zero exit.  This helper owns that
// sequence so the tools stay thin and their outputs stay byte-compatible
// (the PR-2 audit/trace tooling reads all three the same way).
//
// Usage:
//   run::RunOutput output(*opts);  // the OutputOptions part of the CLI
//   if (!output.begin(net.trace(), &error)) { ... return 1; }
//   ... run ...
//   return output.finish(std::cout, std::cerr, scenario, result,
//                        net.trace());
#pragma once

#include <fstream>
#include <iosfwd>
#include <optional>
#include <string>

#include "obs/timeline.h"
#include "runner/cli.h"
#include "runner/experiment.h"
#include "runner/scenario.h"
#include "trace/event_trace.h"

namespace sstsp::run {

/// Prints the result block (latency/steady/beacons/rejections, wire stats
/// when present, profile, audit) — the part of the summary that does not
/// depend on which front end ran the scenario.
void print_result_summary(std::ostream& out, const RunResult& result);

class RunOutput {
 public:
  explicit RunOutput(OutputOptions options) : options_(std::move(options)) {}

  RunOutput(const RunOutput&) = delete;
  RunOutput& operator=(const RunOutput&) = delete;

  /// Opens --json-out and attaches the streaming JSONL sink.  Must run
  /// before the scenario does: the sink streams at record time, so the
  /// file captures the complete stream even though the in-memory ring only
  /// retains the newest slice.  false + *error on failure (including
  /// --json-out without a trace).
  [[nodiscard]] bool begin(trace::EventTrace* trace, std::string* error);

  /// Routes profiler span edges into the --timeline-out document as B/E
  /// events (wall-time track).  Call after begin(), before the run; no-op
  /// unless both --profile and --timeline-out are active.
  void attach_profiler(obs::Profiler* profiler);

  /// Emits everything post-run.  Returns the process exit code: 0 on
  /// success, 1 on an output I/O failure, 3 when --monitor=strict and the
  /// audit is not clean.
  [[nodiscard]] int finish(std::ostream& out, std::ostream& err,
                           const Scenario& scenario, const RunResult& result,
                           trace::EventTrace* trace);

  /// The timeline writer (for tools that attach counters of their own).
  [[nodiscard]] obs::TimelineWriter& timeline() { return timeline_; }

 private:
  OutputOptions options_;
  std::ofstream json_out_;
  obs::TimelineWriter timeline_;
  obs::Profiler* span_profiler_{nullptr};
};

}  // namespace sstsp::run
