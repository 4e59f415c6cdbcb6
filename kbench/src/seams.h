// Decorators of the library's public seams. The benchmark hands the
// cluster an EngineFactory that wraps every process three ways:
//
//   SeamEngine    (RecoveryProcess) around the engine's entry points,
//   SeamApi       (ClusterApi) around the engine's calls into its host,
//                 which also hands the engine a SeamScheduler (Scheduler)
//                 and a SeamRecorder (EventRecorder).
//
// With the tracer off they only forward, plus the closed-loop commit hook
// and a few relaxed counters the load generator reads; with it on, every
// call is a span (spans.h). Nothing here changes what the engine sees: the same
// schedule_at calls reach the same scheduler in the same order.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/cluster_api.h"
#include "core/cluster_host.h"
#include "core/recovery_process.h"
#include "obs/event_recorder.h"

namespace kbench {

using namespace koptlog;

/// Per-process measurements. The atomics may be read by the load generator
/// while the cluster runs; everything else belongs to the process's thread
/// and is read after shutdown().
struct ProcessProbe {
  std::atomic<int64_t> delivered{0};  ///< engine deliveries() after a handler
  std::atomic<int64_t> received{0};   ///< handle_app_msg calls
  int64_t send_buffer_sum = 0;        ///< traced only: send_buffer_size()
  int64_t send_buffer_samples = 0;    ///<   read after each handler
  std::vector<double> restart_ms;     ///< wall time of each restart()
  std::vector<AppMsg> captured;       ///< traced only: routed messages
};

/// Run-wide seam configuration and the probes of every process.
class Seams {
 public:
  using CommitHook = std::function<void(const OutputRecord&, SimTime now)>;

  /// Called on the committing process's thread for every commit_output,
  /// before any deduplication.
  CommitHook on_commit;
  /// Traced runs: keep up to this many routed messages per process.
  size_t capture_per_process = 0;

  /// The factory to hand to the host; builds the library's default engine
  /// behind the decorators.
  ClusterHost::EngineFactory factory();

  /// Valid while the cluster the factory built is alive.
  const std::vector<ProcessProbe*>& probes() const { return probes_; }
  int64_t delivered() const;
  int64_t received() const;

 private:
  std::vector<ProcessProbe*> probes_;
};

}  // namespace kbench
