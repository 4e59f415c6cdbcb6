// Span tracer and per-layer ledger.
//
// A span is one call across a seam: (name, start, end, parent, thread).
// Spans live in per-thread in-memory buffers while a traced run is live and
// are written out once it ends. Tracing is off unless enable() was called;
// when off, a Span costs one relaxed atomic load.
//
// The ledger turns spans into self times: a span's self time is its length
// minus the part its child spans cover, both clipped to the measured
// window. Summed over every span of a thread, self times equal the part of
// the window the thread spent inside some span; the rest of workers x
// window is what no span covers.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace kbench {

enum SpanName : uint16_t {
  // A scheduler action armed by the engine. Resolved when it closes: an
  // action that entered the engine through one of its entry points is the
  // executor's pump (sim.pump); any other is engine timer work (core.timer).
  kSchedAction,
  kSimPump,
  kCoreTimer,
  // RecoveryProcess entry points.
  kCoreStart,
  kCoreAppMsg,
  kCoreAnnouncement,
  kCoreLogProgress,
  kCoreAck,
  kCoreDrainTick,
  kCoreCrash,
  kCoreRestart,
  kCoreCheckpoint,
  // ClusterApi calls the engine makes into its host.
  kExecRoute,
  kExecAnnounceFanout,
  kExecLogProgressFanout,
  kExecAck,
  kExecCommitOutput,
  // EventRecorder and the benchmark's own capture of routed messages.
  kObsRecord,
  kObsCapture,
  kSpanNameCount
};

/// True for the RecoveryProcess entry points (kCoreStart..kCoreCheckpoint).
bool is_engine_entry(uint16_t name);

struct SpanRec {
  int64_t start_ns = 0;
  int64_t end_ns = 0;   ///< 0 while open
  int32_t parent = -1;  ///< index into the same thread's spans, -1 = root
  uint16_t name = 0;
  uint16_t thread = 0;
};

struct ThreadSpans {
  int tid = 0;           ///< kernel thread id (schedstat lookups)
  uint16_t index = 0;    ///< dense thread index stamped into SpanRec
  std::vector<SpanRec> spans;
  std::vector<int32_t> open;  ///< stack of open span indices
};

int64_t now_ns();

/// Process-wide tracer. enable()/disable() and the accessors below are
/// called from the main thread while no traced cluster is running.
namespace tracer {
void enable();
void disable();
bool on();
/// Every thread buffer registered since the last enable(). Read it only
/// once the threads that record spans have stopped.
const std::vector<ThreadSpans*>& threads();
/// Kernel ids of the threads registered so far; safe while they run.
std::vector<int> thread_ids();
/// Open a span on the calling thread; returns its index (or -1 when off).
int32_t open(uint16_t name);
void close(int32_t idx);
/// Rename the innermost open span of the calling thread if it is
/// kSchedAction (an engine entry point marks its pump this way).
void mark_pump();
/// Write every span as a fixed-size binary record; returns bytes written,
/// or -1 when the file cannot be written.
int64_t write_out(const std::string& path);
}  // namespace tracer

class Span {
 public:
  explicit Span(uint16_t name) : idx_(tracer::open(name)) {}
  ~Span() {
    if (idx_ >= 0) tracer::close(idx_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int32_t idx_;
};

struct LedgerRow {
  int64_t self_ns = 0;
  int64_t count = 0;  ///< spans that started inside the window
};

struct Ledger {
  std::map<std::string, LedgerRow> rows;  ///< by span name
  int64_t window_ns = 0;
  int workers = 0;
  int64_t covered_ns = 0;  ///< sum of all self times
  /// workers x window minus covered: time inside no span.
  int64_t uncovered_ns() const {
    return static_cast<int64_t>(workers) * window_ns - covered_ns;
  }
  int64_t self_ns(const std::string& name) const {
    auto it = rows.find(name);
    return it == rows.end() ? 0 : it->second.self_ns;
  }
  int64_t count(const std::string& name) const {
    auto it = rows.find(name);
    return it == rows.end() ? 0 : it->second.count;
  }
  /// Self time of every span whose name starts with `prefix` + ".".
  int64_t layer_self_ns(const std::string& prefix) const;
};

/// Self times of `threads`' spans clipped to [w0, w1).
Ledger compute_ledger(const std::vector<const ThreadSpans*>& threads,
                      int64_t w0, int64_t w1, int workers);

/// Engine entries that the host hands to the process's executor (every
/// entry but start, crash and restart) whose parent span is not a pump. A
/// nonzero count means time was attributed to the wrong seam.
int64_t entries_outside_pump(const std::vector<const ThreadSpans*>& threads);

/// Synthetic nested spans with known answers; returns "" or a failure.
std::string ledger_self_test();

}  // namespace kbench
