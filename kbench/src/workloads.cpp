#include "workloads.h"

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "app/workloads.h"
#include "common/rng.h"
#include "core/cluster.h"
#include "core/failure_injector.h"
#include "exec/threaded_cluster.h"
#include "obs/audit.h"
#include "obs/health/health.h"
#include "seams.h"
#include "spans.h"
#include "storage/disk/recovery.h"
#include "wire/codec.h"
#include "wire/delta_codec.h"

namespace kbench {

namespace {

namespace fs = std::filesystem;

// Where runs keep their scratch files (WAL directories, span dumps); a
// relative path, so it lands inside the checkout the benchmark runs from.
const char* kWorkRoot = ".bench_build/work";

// Routed messages kept per traced run for the offline codec replay.
constexpr size_t kCaptureTotal = 60'000;

// ---------------------------------------------------------------------------
// Small measurement helpers
// ---------------------------------------------------------------------------

double cpu_seconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec)
        / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

// Peak resident memory since the last reset_peak_rss(), from VmHWM.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
  }
  return 0.0;
}

// Writing 5 to clear_refs resets VmHWM to the current resident size.
void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

// Hand freed heap back to the kernel so the next episode starts from the
// same resident size.
void release_free_memory() { ::malloc_trim(0); }

/// Nearest-rank quantile; 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto idx = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  idx = std::clamp<size_t>(idx, 1, v.size()) - 1;
  return v[idx];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

/// Mean without the lowest and the highest value (plain mean below three):
/// one disturbed episode cannot move it, and unlike a median it does not
/// jump between the modes of a two-mode sample, such as tail latencies of
/// episodes whose crash did or did not hit the tail.
double trimmed_mean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t lo = v.size() >= 3 ? 1 : 0;
  const size_t hi = v.size() >= 3 ? v.size() - 1 : v.size();
  double sum = 0.0;
  for (size_t i = lo; i < hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo);
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// CPU time a kernel thread has run, from /proc/self/task/<tid>/schedstat.
int64_t thread_cpu_ns(int tid) {
  std::ifstream in("/proc/self/task/" + std::to_string(tid) + "/schedstat");
  int64_t ns = 0;
  in >> ns;
  return ns;
}

int64_t threads_cpu_ns(const std::vector<int>& tids) {
  int64_t total = 0;
  for (int tid : tids) total += thread_cpu_ns(tid);
  return total;
}

std::string work_dir(const std::string& tag) {
  static int counter = 0;
  return std::string(kWorkRoot) + "/" + tag + "-" +
         std::to_string(::getpid()) + "-" + std::to_string(counter++);
}

// ---------------------------------------------------------------------------
// Audit: every run merges its recording and re-checks Theorems 1-4
// ---------------------------------------------------------------------------

// Merge and audit are timed on the calling thread's CPU clock: both are
// single-threaded, and CPU time leaves out the time other processes on a
// shared machine take from it.
int64_t thread_cpu_now_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

struct AuditOut {
  bool ok = false;
  size_t events = 0;
  double merge_s = 0.0;  ///< CPU seconds
  double audit_s = 0.0;  ///< CPU seconds
  std::string first_violation;
};

AuditOut merge_and_audit(const ClusterHost& host) {
  AuditOut out;
  const Recording* rec = host.recording();
  if (rec == nullptr) {
    out.first_violation = "no recording";
    return out;
  }
  const int64_t t0 = thread_cpu_now_ns();
  Trace trace;
  trace.n = host.size();
  trace.events = rec->merged();
  const int64_t t1 = thread_cpu_now_ns();
  AuditReport rep = audit_trace(trace);
  const int64_t t2 = thread_cpu_now_ns();
  out.ok = rep.ok();
  out.events = trace.events.size();
  out.merge_s = static_cast<double>(t1 - t0) / 1e9;
  out.audit_s = static_cast<double>(t2 - t1) / 1e9;
  if (!rep.ok()) out.first_violation = rep.violations.front();
  return out;
}

// ---------------------------------------------------------------------------
// Health-registry deltas over the measured window
// ---------------------------------------------------------------------------

bool has_prefix(const std::string& s, const std::string& p) {
  return s.compare(0, p.size(), p) == 0;
}

HealthHistogramSnapshot hist_delta(const HealthSample& a, const HealthSample& b,
                                   const std::string& domain_prefix,
                                   const std::string& metric) {
  HealthHistogramSnapshot out;
  out.buckets.assign(HealthHistogram::kBuckets, 0);
  auto fold = [&](const HealthSample& s, int sign) {
    for (const auto& d : s.domains) {
      if (!has_prefix(d.name, domain_prefix)) continue;
      for (const auto& [name, h] : d.histograms) {
        if (name != metric) continue;
        const auto u = [sign](uint64_t v) {
          return sign > 0 ? v : ~v + 1;  // modular subtract
        };
        out.count += u(h.count);
        out.sum += u(h.sum);
        if (sign > 0) out.max = std::max(out.max, h.max);  // run max: a bound
        for (size_t i = 0; i < h.buckets.size() && i < out.buckets.size(); ++i)
          out.buckets[i] += u(h.buckets[i]);
      }
    }
  };
  fold(b, +1);
  fold(a, -1);
  return out;
}

uint64_t counter_delta(const HealthSample& a, const HealthSample& b,
                       const std::string& domain_prefix,
                       const std::string& metric) {
  auto total = [&](const HealthSample& s) {
    uint64_t t = 0;
    for (const auto& d : s.domains) {
      if (!has_prefix(d.name, domain_prefix)) continue;
      for (const auto& [name, v] : d.counters)
        if (name == metric) t += v;
    }
    return t;
  };
  return total(b) - total(a);
}

// ---------------------------------------------------------------------------
// Offline codec replay over the messages a traced run routed
// ---------------------------------------------------------------------------

struct WireOut {
  size_t msgs = 0;
  double encode_ns = 0, decode_ns = 0;
  double delta_encode_ns = 0, delta_decode_ns = 0;
  double delta_bytes = 0, full_share = 0;
  std::string error;
};

template <typename Fn>
double ns_per_item(size_t items, Fn&& pass) {
  // Repeat whole passes for at least 100 ms; report the fastest pass.
  double best = 0.0;
  const int64_t until = now_ns() + 100'000'000;
  for (int rep = 0; rep < 3 || now_ns() < until; ++rep) {
    const int64_t t0 = now_ns();
    pass();
    const double per = static_cast<double>(now_ns() - t0) /
                       static_cast<double>(std::max<size_t>(items, 1));
    if (rep == 0 || per < best) best = per;
    if (rep >= 50) break;
  }
  return best;
}

WireOut replay_codec(const Seams& seams, int n) {
  WireOut out;
  std::vector<const AppMsg*> msgs;  // grouped by sender, in route order
  for (const ProcessProbe* p : seams.probes())
    for (const AppMsg& m : p->captured) msgs.push_back(&m);
  out.msgs = msgs.size();
  if (msgs.empty()) return out;

  std::vector<std::vector<uint8_t>> frames(msgs.size());
  size_t sink = 0;
  out.encode_ns = ns_per_item(msgs.size(), [&] {
    for (size_t i = 0; i < msgs.size(); ++i)
      frames[i] = wire::encode_app_msg(*msgs[i], /*null_omission=*/true);
  });
  for (size_t i = 0; i < msgs.size() && out.error.empty(); ++i) {
    auto back = wire::decode_app_msg(frames[i], n, true);
    if (!back || !(back->tdv == msgs[i]->tdv) ||
        !(back->payload == msgs[i]->payload))
      out.error = "app-msg codec round trip differs";
  }
  out.decode_ns = ns_per_item(msgs.size(), [&] {
    for (const auto& f : frames)
      sink += wire::decode_app_msg(f, n, true).has_value() ? 1 : 0;
  });

  // Per-channel delta frames: one encoder/decoder pair per (from, to).
  auto key = [](const AppMsg& m) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(m.from)) << 32) |
           static_cast<uint32_t>(m.to);
  };
  std::vector<std::vector<uint8_t>> deltas(msgs.size());
  int64_t delta_bytes = 0, full_frames = 0;
  out.delta_encode_ns = ns_per_item(msgs.size(), [&] {
    std::unordered_map<uint64_t, wire::DeltaChannelEncoder> enc;
    delta_bytes = 0;
    for (size_t i = 0; i < msgs.size(); ++i) {
      deltas[i] = enc[key(*msgs[i])].encode(msgs[i]->tdv, msgs[i]->born_of.inc);
      delta_bytes += static_cast<int64_t>(deltas[i].size());
    }
    full_frames = 0;
    for (const auto& [k, e] : enc) full_frames += e.full_frames();
  });
  {
    std::unordered_map<uint64_t, wire::DeltaChannelDecoder> dec;
    for (size_t i = 0; i < msgs.size() && out.error.empty(); ++i) {
      auto v = dec[key(*msgs[i])].decode(deltas[i], n);
      if (!v || !(*v == msgs[i]->tdv)) out.error
          = "delta codec round trip differs";
    }
  }
  out.delta_decode_ns = ns_per_item(msgs.size(), [&] {
    std::unordered_map<uint64_t, wire::DeltaChannelDecoder> dec;
    for (size_t i = 0; i < msgs.size(); ++i)
      sink += dec[key(*msgs[i])].decode(deltas[i], n).has_value() ? 1 : 0;
  });
  if (sink == 0) out.error = "codec replay decoded nothing";
  out.delta_bytes = ratio(static_cast<double>(delta_bytes),
                          static_cast<double>(msgs.size()));
  out.full_share = ratio(static_cast<double>(full_frames),
                         static_cast<double>(msgs.size()));
  return out;
}

// ---------------------------------------------------------------------------
// Per-layer metrics
// ---------------------------------------------------------------------------

// Every per-layer metric with its unit, in report order. All of them are
// printed in the traced run's table; `reported` ones also go into the JSON
// result. Those are the metrics every workload exercises: a layer a
// workload does not have reads 0 on every run of it (storage on model
// storage, the mailbox on the sim, restart without failures).
struct LayerMetric {
  const char* name;
  const char* unit;
  bool reported;
};

const std::vector<LayerMetric>& layer_metric_table() {
  static const std::vector<LayerMetric> kTable = {
      {"core.app_msg.self_ns", "ns", true},
      {"core.log_progress.self_ns", "ns", true},
      {"core.timer.self_ns", "ns", true},
      {"core.busy_share", "share", true},
      {"core.delivered_per_received", "ratio", false},
      {"core.restart.ms", "ms", false},
      {"core.replayed_per_restart", "count", false},
      {"core.rollbacks", "count", false},
      {"runtime.send_buffer_depth", "count", true},
      {"runtime.send_hold_p50_us", "us", false},
      {"runtime.released_delayed_share", "share", true},
      {"runtime.retransmits_per_kmsg", "count", false},
      {"exec.route.self_ns", "ns", true},
      {"exec.log_progress_fanout.self_ns", "ns", true},
      {"exec.announce_fanout.self_ns", "ns", false},
      {"exec.drain_batch_mean", "count", false},
      {"exec.wakeups_per_kmsg", "count", false},
      {"exec.queue_wait_p50_us", "us", false},
      {"exec.queue_wait_p99_us", "us", false},
      {"exec.events_per_msg", "count", false},
      {"exec.idle_share", "share", false},
      {"exec.dropped_receiver_down", "count", false},
      {"sim.pump.self_ns", "ns", true},
      {"sim.events_per_msg", "count", false},
      {"obs.record.self_ns", "ns", true},
      {"obs.events_per_msg", "count", true},
      {"obs.merge_ns_per_event", "ns", true},
      {"obs.audit_ns_per_event", "ns", true},
      {"storage.fsync_p50_us", "us", false},
      {"storage.fsync_p99_us", "us", false},
      {"storage.records_per_fsync", "count", false},
      {"storage.bytes_per_record", "B", false},
      {"storage.bytes_per_msg", "B", false},
      {"storage.scan_ms_per_mb", "ms/MB", false},
      {"wire.encode_ns_per_msg", "ns", true},
      {"wire.decode_ns_per_msg", "ns", true},
      {"wire.delta_encode_ns_per_msg", "ns", true},
      {"wire.delta_decode_ns_per_msg", "ns", true},
      {"wire.delta_bytes_per_msg", "B", true},
      {"wire.full_frame_share", "share", true},
      {"residual_share", "share", true},
      {"tracing_overhead_pct", "%", true},
  };
  return kTable;
}

using LayerValues = std::map<std::string, double>;

/// Ledger-derived per-layer values shared by every workload.
void ledger_values(const Ledger& led, double idle_share, LayerValues& v) {
  auto per_call = [&](const char* span) {
    return ratio(static_cast<double>(led.self_ns(span)),
                 static_cast<double>(led.count(span)));
  };
  const double worker_ns =
      static_cast<double>(led.workers) * static_cast<double>(led.window_ns);
  v["core.app_msg.self_ns"] = per_call("core.app_msg");
  v["core.log_progress.self_ns"] = per_call("core.log_progress");
  v["core.timer.self_ns"] = per_call("core.timer");
  v["core.busy_share"] =
      ratio(static_cast<double>(led.layer_self_ns("core")), worker_ns);
  v["exec.route.self_ns"] = per_call("exec.route");
  v["exec.log_progress_fanout.self_ns"] = per_call("exec.log_progress_fanout");
  v["exec.announce_fanout.self_ns"] = per_call("exec.announce_fanout");
  v["exec.idle_share"] = idle_share;
  v["sim.pump.self_ns"] = per_call("sim.pump");
  v["obs.record.self_ns"] = per_call("obs.record");
  v["residual_share"] =
      1.0 - ratio(static_cast<double>(led.covered_ns), worker_ns) - idle_share;
}

void stats_values(const Stats& st, int64_t delivered, LayerValues& v) {
  const auto c = [&](const char* name) {
    return static_cast<double>(st.counter(name));
  };
  v["core.rollbacks"] = c("rollback.count");
  v["core.replayed_per_restart"] =
      ratio(c("restart.replayed_msgs"), c("restart.count"));
  v["runtime.send_hold_p50_us"] = st.histogram("send.hold_us").p50();
  v["runtime.released_delayed_share"] =
      ratio(c("msgs.released_delayed"), c("msgs.released"));
  v["runtime.retransmits_per_kmsg"] =
      1000.0 * ratio(c("msgs.retransmitted"), static_cast<double>(delivered));
  v["exec.dropped_receiver_down"] = c("msgs.dropped_receiver_down");
}

void send_buffer_depth(const Seams& seams, LayerValues& v) {
  int64_t sum = 0, n = 0;
  for (const ProcessProbe* p : seams.probes()) {
    sum += p->send_buffer_sum;
    n += p->send_buffer_samples;
  }
  v["runtime.send_buffer_depth"] =
      ratio(static_cast<double>(sum), static_cast<double>(n));
}

void wire_values(const WireOut& w, LayerValues& v) {
  v["wire.encode_ns_per_msg"] = w.encode_ns;
  v["wire.decode_ns_per_msg"] = w.decode_ns;
  v["wire.delta_encode_ns_per_msg"] = w.delta_encode_ns;
  v["wire.delta_decode_ns_per_msg"] = w.delta_decode_ns;
  v["wire.delta_bytes_per_msg"] = w.delta_bytes;
  v["wire.full_frame_share"] = w.full_share;
}

void audit_values(const AuditOut& a, int64_t delivered, LayerValues& v) {
  const auto ev = static_cast<double>(std::max<size_t>(a.events, 1));
  v["obs.merge_ns_per_event"] = a.merge_s * 1e9 / ev;
  v["obs.audit_ns_per_event"] = a.audit_s * 1e9 / ev;
  v["obs.events_per_msg"] =
      ratio(static_cast<double>(a.events), static_cast<double>(delivered));
}

/// Prints a traced episode's ledger: self time per span, idle, residual.
void emit_layers(const LayerValues& v, const Ledger& led, std::ostream& log) {
  const std::ios::fmtflags flags = log.flags();
  const std::streamsize precision = log.precision();
  log << "per-layer ledger (traced run, " << led.workers << " worker(s) x "
      << std::fixed << std::setprecision(3)
      << static_cast<double>(led.window_ns) / 1e9 << " s window)\n";
  log << "  " << std::left << std::setw(28) << "span" << std::right
      << std::setw(12) << "self_ms" << std::setw(10) << "share"
      << std::setw(12) << "calls" << std::setw(12) << "ns/call" << "\n";
  const double worker_ns =
      static_cast<double>(led.workers) * static_cast<double>(led.window_ns);
  for (const auto& [name, row] : led.rows) {
    log << "  " << std::left << std::setw(28) << name << std::right
        << std::setw(12) << std::setprecision(1)
        << static_cast<double>(row.self_ns) / 1e6 << std::setw(10)
        << std::setprecision(4) << ratio(static_cast<double>(row.self_ns),
            worker_ns)
        << std::setw(12) << row.count << std::setw(12) << std::setprecision(0)
        << ratio(static_cast<double>(row.self_ns),
            static_cast<double>(row.count))
        << "\n";
  }
  log << "  " << std::left << std::setw(28) << "(idle)" << std::right
      << std::setw(22) << std::setprecision(4) << v.at("exec.idle_share")
          << "\n";
  log << "  " << std::left << std::setw(28) << "(residual: no span)"
      << std::right << std::setw(22) << v.at("residual_share") << "\n";
  log.flags(flags);
  log.precision(precision);
}

/// Prints every per-layer metric and adds the reported ones to `res`.
void report_layers(const LayerValues& v, RunResult& res, std::ostream& log) {
  const std::ios::fmtflags flags = log.flags();
  const std::streamsize precision = log.precision();
  log << std::fixed << "per-layer metrics (* = in the JSON result)\n";
  for (const LayerMetric& m : layer_metric_table()) {
    auto it = v.find(m.name);
    const double value = it == v.end() ? 0.0 : it->second;
    log << (m.reported ? "* " : "  ") << std::left << std::setw(36) << m.name
        << std::right << std::setw(16) << std::setprecision(4) << value << " "
        << m.unit << "\n";
    if (m.reported) res.add(m.name, value, m.unit);
  }
  log.flags(flags);
  log.precision(precision);
}

// ---------------------------------------------------------------------------
// Threaded closed-loop workloads: serve and durable
// ---------------------------------------------------------------------------

// Both closed-loop workloads run 4 shards at K=2, in episodes of a warm-up
// and a measured window.
constexpr int kLoopShards = 4;
constexpr int kLoopK = 2;
constexpr double kWarmupS = 0.3;
constexpr double kWindowS = 0.5;

struct LoopShape {
  std::string name;
  int n = 16;
  int outstanding = 1024;
  bool disk = false;
  double crashes_per_s = 0.0;
  SimTime timeout_us = 5'000'000;
};

LoopShape serve_shape() {
  LoopShape s;
  s.name = "serve";
  return s;
}

LoopShape durable_shape() {
  LoopShape s;
  s.name = "durable";
  s.n = 8;
  s.outstanding = 256;
  s.disk = true;
  s.crashes_per_s = 2.4;
  s.timeout_us = 250'000;
  return s;
}

ClusterConfig loop_config(const LoopShape& sh, uint64_t seed,
                          const std::string& dir, HealthRegistry* health) {
  ClusterConfig cfg;
  cfg.n = sh.n;
  cfg.seed = seed;
  cfg.protocol.k = kLoopK;
  cfg.record_events = true;
  cfg.enable_oracle = false;
  if (sh.disk) {
    cfg.protocol.reliable_delivery = true;
    StorageOptions& so = cfg.protocol.storage_backend;
    so.backend = "disk";
    so.dir = dir;
    so.group_commit_us = 300;
    so.threaded_io = true;
    so.health = health;
  }
  return cfg;
}

ThreadedOptions loop_options(HealthRegistry* health) {
  ThreadedOptions opt;
  opt.shards = kLoopShards;
  opt.time_scale = 1.0;
  opt.health = health;
  return opt;
}

/// Committed replies handed from shard threads to the load generator.
class CommitInbox {
 public:
  struct Commit {
    MsgId id;
    int64_t request = 0;
    SimTime created = 0;  ///< when the reply's output was produced
    SimTime t = 0;        ///< when it committed
  };

  void push(const OutputRecord& rec, SimTime now) {
    if (rec.payload.kind != kOutputKind) return;
    std::lock_guard<std::mutex> lk(mu_);
    items_.push_back(Commit{rec.id, rec.payload.c, rec.created_at, now});
  }
  void take(std::vector<Commit>& out) {
    out.clear();
    std::lock_guard<std::mutex> lk(mu_);
    out.swap(items_);
  }

 private:
  std::mutex mu_;
  std::vector<Commit> items_;
};

struct LoopEpisode {
  double setup_s = 0.0;
  double window_s = 0.0;
  int64_t committed = 0;  ///< commits inside the window (throughput)
  int64_t completed = 0;  ///< requests issued in the window that committed
  int64_t failed = 0;     ///< requests issued in the window never committed
  int64_t retries = 0;    ///< re-sends of those requests after a timeout
  std::vector<double> latency_ms;  ///< first inject -> committed reply
  std::vector<double> commit_us;   ///< reply output created -> committed
  int64_t delivered = 0;  ///< app messages delivered in the window
  int64_t received = 0;
  double cpu_s = 0.0;
  uint64_t events = 0;  ///< scheduler events executed in the window
  HealthSample h0, h1;
  Stats stats;  ///< whole run, merged after shutdown
  AuditOut audit;
  std::vector<double> restart_ms;
  double scan_ms = 0.0, scan_mb = 0.0;
  double peak_rss_mb = 0.0;  ///< this episode's peak, audit included
  // traced only
  Ledger ledger;
  double idle_share = 0.0;
  int64_t unpumped = 0;
  WireOut wire;
  LayerValues layers;
};

uint64_t msg_key(const MsgId& id) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(id.src + 1)) << 44) ^
         static_cast<uint64_t>(id.seq);
}

double measure_scan(const std::string& dir, int n, double& mb) {
  double ms = 0.0;
  uint64_t bytes = 0;
  for (int pid = 0; pid < n; ++pid) {
    const std::string pdir = dir + "/p" + std::to_string(pid);
    std::error_code ec;
    for (const auto& e : fs::recursive_directory_iterator(pdir, ec))
      if (e.is_regular_file(ec)) bytes += e.file_size(ec);
    const int64_t t0 = now_ns();
    disk::AnalysisResult r = disk::analyze_process_dir(pdir);
    ms += static_cast<double>(now_ns() - t0) / 1e6;
    (void)r;
  }
  mb = static_cast<double>(bytes) / (1024.0 * 1024.0);
  return ms;
}

LoopEpisode run_loop_episode(const LoopShape& sh, uint64_t seed, bool traced,
                             std::ostream& log) {
  LoopEpisode ep;
  reset_peak_rss();
  const std::string dir = sh.disk ? work_dir(sh.name) : "";
  HealthRegistry health;
  CommitInbox inbox;
  Seams seams;
  seams.on_commit = [&inbox](const OutputRecord& r, SimTime now) {
    inbox.push(r, now);
  };
  if (traced) {
    tracer::enable();
    seams.capture_per_process = kCaptureTotal / static_cast<size_t>(sh.n);
  }

  const int64_t t_setup = now_ns();
  auto cluster = std::make_unique<ThreadedCluster>(
      loop_config(sh, seed, dir, &health), loop_options(&health),
      make_client_server_app({}), seams.factory());
  cluster->start();
  ep.setup_s = static_cast<double>(now_ns() - t_setup) / 1e9;

  // Closed loop: every committed reply (deduplicated by output id) frees
  // its slot for a new request at a seeded-random front-end. The requests
  // issued inside the window are the episode's operations. An attempt that
  // is lost (say, to a crashed front-end) or not committed within the
  // timeout is sent again, as the same request, to another seeded-random
  // front-end; whichever attempt commits first ends the operation, and its
  // latency runs from the first attempt. After the window the loop keeps its
  // load until all of them have committed; one still open when the
  // cool-down runs out has failed.
  struct Pending {
    SimTime first = 0;     ///< first attempt
    SimTime issued = 0;    ///< latest attempt
    int64_t key = 0;       ///< picks the process that serves it
    bool counted = false;  ///< issued inside the window
  };
  enum class Phase { kWarmup, kWindow, kCooldown };
  Phase phase = Phase::kWarmup;
  Rng rng = Rng(seed).fork("requests");
  std::unordered_map<int64_t, Pending> outstanding;
  std::unordered_set<uint64_t> seen_outputs;
  int64_t next_request = 1;
  int64_t counted_open = 0;
  auto send = [&](int64_t req, const Pending& pend) {
    AppPayload p;
    p.kind = kRequest;
    p.a = pend.key;
    p.b = req;
    p.c = req;  // echoed into the reply's output: the request id
    const auto front =
        static_cast<ProcessId>(rng.next_below(static_cast<uint64_t>(sh.n)));
    cluster->inject_at(pend.issued, front, p);
  };
  auto issue = [&] {
    const int64_t req = next_request++;
    const SimTime now = cluster->now_us();
    Pending pend{now, now, static_cast<int64_t>(rng.next_u64() >> 1),
                 phase == Phase::kWindow};
    if (pend.counted) ++counted_open;
    send(req, outstanding.emplace(req, pend).first->second);
  };
  for (int i = 0; i < sh.outstanding; ++i) issue();

  const int64_t start = now_ns();
  const int64_t w0_target = start + static_cast<int64_t>(kWarmupS * 1e9);
  const int64_t w1_target = w0_target + static_cast<int64_t>(kWindowS * 1e9);
  const int64_t cooldown_ns = 4 * sh.timeout_us * 1000 + 100'000'000;
  SimTime w0_v = 0, w1_v = 0;
  int64_t w0 = 0, w1 = 0, last_scan = start;
  int64_t delivered0 = 0, received0 = 0, worker_cpu0 = 0;
  uint64_t events0 = 0;
  double cpu0 = 0.0;
  std::vector<int> worker_tids;
  std::vector<CommitInbox::Commit> batch;
  for (;;) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    const int64_t now = now_ns();
    if (phase == Phase::kWarmup && now >= w0_target) {
      phase = Phase::kWindow;
      w0 = now;
      w0_v = cluster->now_us();
      delivered0 = seams.delivered();
      received0 = seams.received();
      events0 = cluster->events_executed();
      ep.h0 = health.sample(0);
      cpu0 = cpu_seconds();
      if (traced) {
        worker_tids = tracer::thread_ids();
        worker_cpu0 = threads_cpu_ns(worker_tids);
      }
      // Seeded crashes, evenly spaced over the window so that every
      // episode sees the same share of post-crash recovery; the victims are
      // drawn from the seed.
      Rng crash_rng = Rng(seed).fork("crashes");
      const auto crashes =
          static_cast<int>(std::lround(sh.crashes_per_s * kWindowS));
      const double span_us = kWindowS * 1e6;
      for (int i = 0; i < crashes; ++i) {
        const auto t = w0_v + static_cast<SimTime>(
                                  span_us * (i + 0.5)
                                      / static_cast<double>(crashes));
        const auto pid = static_cast<ProcessId>(
            crash_rng.next_below(static_cast<uint64_t>(sh.n)));
        cluster->fail_at(t, pid);
      }
    } else if (phase == Phase::kWindow && now >= w1_target) {
      phase = Phase::kCooldown;
      w1 = now;
      w1_v = cluster->now_us();
      ep.window_s = static_cast<double>(w1 - w0) / 1e9;
      ep.cpu_s = cpu_seconds() - cpu0;
      ep.delivered = seams.delivered() - delivered0;
      ep.received = seams.received() - received0;
      ep.events = cluster->events_executed() - events0;
      ep.h1 = health.sample(0);
      if (traced) {
        const int64_t busy = threads_cpu_ns(worker_tids) - worker_cpu0;
        ep.idle_share =
            1.0 - ratio(static_cast<double>(busy),
                        static_cast<double>(kLoopShards) *
                            static_cast<double>(w1 - w0));
      }
    }
    if (phase == Phase::kCooldown &&
        (counted_open == 0 || now - w1 >= cooldown_ns))
      break;
    inbox.take(batch);
    for (const CommitInbox::Commit& c : batch) {
      if (!seen_outputs.insert(msg_key(c.id)).second) continue;  // replayed
      auto it = outstanding.find(c.request);
      if (it == outstanding.end()) continue;  // another attempt committed
      if (phase != Phase::kWarmup && c.t >= w0_v &&
          (phase == Phase::kWindow || c.t < w1_v))
        ++ep.committed;
      if (it->second.counted) {
        ++ep.completed;
        --counted_open;
        ep.latency_ms.push_back(static_cast<double>(c.t - it->second.first)
            / 1e3);
        ep.commit_us.push_back(static_cast<double>(c.t - c.created));
      }
      outstanding.erase(it);
      issue();
    }
    if (now - last_scan >= 10'000'000) {
      last_scan = now;
      const SimTime v = cluster->now_us();
      // In request order, so that the retries' front-ends follow the seed.
      std::vector<int64_t> late;
      for (const auto& [req, pend] : outstanding)
        if (v - pend.issued > sh.timeout_us) late.push_back(req);
      std::sort(late.begin(), late.end());
      for (const int64_t req : late) {
        Pending& pend = outstanding[req];
        pend.issued = v;
        if (pend.counted) ++ep.retries;
        send(req, pend);
      }
    }
  }
  ep.failed = counted_open;  // still open when the cool-down ran out

  // Stop issuing, then quiesce: every request still in flight completes
  // or is dropped, every buffer empties.
  cluster->drain();
  cluster->shutdown();
  if (traced) tracer::disable();
  ep.stats = cluster->stats();
  for (const ProcessProbe* p : seams.probes())
    ep.restart_ms.insert(ep.restart_ms.end(), p->restart_ms.begin(),
                         p->restart_ms.end());
  ep.audit = merge_and_audit(*cluster);
  ep.peak_rss_mb = peak_rss_mb();
  if (sh.disk) ep.scan_ms = measure_scan(dir, sh.n, ep.scan_mb);

  if (traced) {
    std::vector<const ThreadSpans*> threads(tracer::threads().begin(),
                                            tracer::threads().end());
    ep.ledger = compute_ledger(threads, w0, w1, kLoopShards);
    ep.unpumped = entries_outside_pump(threads);
    const int64_t bytes =
        tracer::write_out(std::string(kWorkRoot) + "/" + sh.name + ".spans");
    log << "spans written: " << bytes << " bytes\n";
    ep.wire = replay_codec(seams, sh.n);

    LayerValues& v = ep.layers;
    ledger_values(ep.ledger, ep.idle_share, v);
    stats_values(ep.stats, ep.stats.counter("msgs.delivered"), v);
    send_buffer_depth(seams, v);
    wire_values(ep.wire, v);
    audit_values(ep.audit, ep.stats.counter("msgs.delivered"), v);
    v["core.delivered_per_received"] =
        ratio(static_cast<double>(ep.delivered),
            static_cast<double>(ep.received));
    v["core.restart.ms"] = median(ep.restart_ms);
    const HealthHistogramSnapshot batch_h =
        hist_delta(ep.h0, ep.h1, "shard", "sched.drain_batch");
    v["exec.drain_batch_mean"] = ratio(static_cast<double>(batch_h.sum),
                                       static_cast<double>(batch_h.count));
    v["exec.wakeups_per_kmsg"] =
        1000.0 * ratio(static_cast<double>(
                           counter_delta(ep.h0, ep.h1, "shard",
                               "sched.wakeups")),
                       static_cast<double>(ep.delivered));
    const HealthHistogramSnapshot wait_h =
        hist_delta(ep.h0, ep.h1, "shard", "sched.drain_latency_us");
    v["exec.queue_wait_p50_us"] = wait_h.quantile(0.50);
    v["exec.queue_wait_p99_us"] = wait_h.quantile(0.99);
    v["exec.events_per_msg"] =
        ratio(static_cast<double>(ep.events),
            static_cast<double>(ep.delivered));
    if (sh.disk) {
      const HealthHistogramSnapshot fsync_h =
          hist_delta(ep.h0, ep.h1, "storage", "wal.fsync_us");
      const HealthHistogramSnapshot fill_h =
          hist_delta(ep.h0, ep.h1, "storage", "wal.window_fill");
      const auto wal_bytes = static_cast<double>(
          counter_delta(ep.h0, ep.h1, "storage", "wal.bytes_written"));
      v["storage.fsync_p50_us"] = fsync_h.quantile(0.50);
      v["storage.fsync_p99_us"] = fsync_h.quantile(0.99);
      v["storage.records_per_fsync"] =
          ratio(static_cast<double>(fill_h.sum),
                static_cast<double>(fsync_h.count));
      v["storage.bytes_per_record"] =
          ratio(wal_bytes, static_cast<double>(fill_h.sum));
      v["storage.bytes_per_msg"] =
          ratio(wal_bytes, static_cast<double>(ep.delivered));
      v["storage.scan_ms_per_mb"] = ratio(ep.scan_ms, ep.scan_mb);
    }
  }
  cluster.reset();
  release_free_memory();
  if (!dir.empty()) {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
  return ep;
}

/// Cluster construction plus start(), timed alone (then torn down).
double loop_setup_once(const LoopShape& sh, uint64_t seed) {
  const std::string dir = sh.disk ? work_dir(sh.name + "-setup") : "";
  HealthRegistry health;
  Seams seams;
  double s = 0.0;
  {
    const int64_t t0 = now_ns();
    ThreadedCluster cluster(loop_config(sh, seed, dir, &health),
                            loop_options(&health), make_client_server_app({}),
                            seams.factory());
    cluster.start();
    s = static_cast<double>(now_ns() - t0) / 1e9;
    // Quiesce before shutdown: shutdown() stops the shards one by one, and
    // a live shard's periodic broadcast into an already stopped one aborts.
    cluster.drain();
    cluster.shutdown();
  }
  if (!dir.empty()) {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
  return s;
}

void check_audit(const AuditOut& a, const char* what, RunResult& res) {
  if (!a.ok)
    res.fail(std::string(what) + ": audit failed: " + a.first_violation);
}

void check_nesting(int64_t unpumped, RunResult& res) {
  if (unpumped != 0)
    res.fail(std::to_string(unpumped) +
             " engine entries ran outside an executor pump span");
}

RunResult run_loop(const LoopShape& sh, const RunArgs& args,
    std::ostream& log) {
  RunResult res;
  constexpr size_t kSetupSamples = 15;
  if (!args.trace) {
    // Short episodes, each audited on its own, keep the recording small;
    // they repeat until --seconds of wall time are spent. Rates and memory
    // are medians over episodes and latency quantiles trimmed means of the
    // episodes' quantiles, so one disturbed episode cannot move them; CPU
    // and audit costs are totals over all episodes.
    const int64_t until = now_ns() + static_cast<int64_t>(args.seconds * 1e9);
    int episodes = 0;
    std::vector<double> setups, rates, req50, req99, msg_rates, commit50,
        commit99, vec_bytes, rss;
    int64_t completed = 0, failed = 0, retries = 0, delivered = 0,
        restarts = 0;
    double cpu_s = 0.0, audit_cpu_s = 0.0;
    size_t audit_events = 0;
    for (int e = 0; e == 0 || now_ns() < until; ++e) {
      ++episodes;
      const uint64_t seed = args.seed * 1000 + static_cast<uint64_t>(e);
      LoopEpisode ep = run_loop_episode(sh, seed, false, log);
      check_audit(ep.audit, sh.name.c_str(), res);
      setups.push_back(ep.setup_s);
      rates.push_back(ratio(static_cast<double>(ep.committed), ep.window_s));
      req50.push_back(quantile(ep.latency_ms, 0.50));
      req99.push_back(quantile(ep.latency_ms, 0.99));
      msg_rates.push_back(ratio(static_cast<double>(ep.delivered),
          ep.window_s));
      commit50.push_back(quantile(ep.commit_us, 0.50));
      commit99.push_back(quantile(ep.commit_us, 0.99));
      vec_bytes.push_back(ep.stats.histogram("msg.vector_bytes").mean());
      rss.push_back(ep.peak_rss_mb);
      completed += ep.completed;
      failed += ep.failed;
      retries += ep.retries;
      delivered += ep.delivered;
      cpu_s += ep.cpu_s;
      audit_cpu_s += ep.audit.merge_s + ep.audit.audit_s;
      audit_events += ep.audit.events;
      restarts += static_cast<int64_t>(ep.restart_ms.size());
      log << sh.name << " episode " << e << ": " << rates.back()
          << " req/s, p50 "
          << req50.back() << " ms, p99 " << req99.back() << " ms over "
          << ep.latency_ms.size() << " requests (" << ep.retries
          << " retries, " << ep.failed << " failed), commit p99 " << commit99.back() << " us, peak "
          << ep.peak_rss_mb << " MB, audit " << (ep.audit.ok ? "ok" : "FAILED")
          << " over " << ep.audit.events << " events\n";
    }
    for (size_t i = setups.size(); i < kSetupSamples; ++i)
      setups.push_back(loop_setup_once(sh, args.seed * 1000 + 900 + i));
    res.attempted = completed + failed;
    res.failed = failed;
    res.add("setup_s", median(setups), "s");
    res.add("requests_per_s", median(rates), "1/s");
    res.add("request_p50_ms", trimmed_mean(req50), "ms");
    res.add("request_p99_ms", trimmed_mean(req99), "ms");
    res.add("msgs_per_s", median(msg_rates), "1/s");
    res.add("commit_p50_us", trimmed_mean(commit50), "us");
    res.add("commit_p99_us", trimmed_mean(commit99), "us");
    res.add("wire_bytes_per_msg", median(vec_bytes), "B");
    res.add("peak_rss_mb", median(rss), "MB");
    log << sh.name << ": " << episodes << " episode(s), "
        << 1e6 * ratio(cpu_s, static_cast<double>(delivered))
        << " CPU us per msg, audit "
        << ratio(static_cast<double>(audit_events), audit_cpu_s) / 1e3
        << " kev per CPU-second, " << res.attempted
        << " requests issued in windows, " << retries << " retries, "
        << failed << " failed, "
        << delivered << " msgs delivered, " << restarts << " restarts\n";
  } else {
    // A traced episode between two untraced ones at the same seed. The
    // tracing overhead is measured against the faster untraced episode, so
    // one disturbed episode cannot pass for (or hide) the tracer's cost.
    // Such triples repeat until --seconds of wall time are spent, and each
    // per-layer value is the median over the traced episodes; the ledger
    // table printed is the last traced episode's.
    const int64_t until = now_ns() + static_cast<int64_t>(args.seconds * 1e9);
    std::map<std::string, std::vector<double>> samples;
    for (int e = 0;; ++e) {
      const uint64_t seed = args.seed * 1000 + static_cast<uint64_t>(e);
      LoopEpisode before = run_loop_episode(sh, seed, false, log);
      LoopEpisode ep = run_loop_episode(sh, seed, true, log);
      LoopEpisode after = run_loop_episode(sh, seed, false, log);
      for (const LoopEpisode* x : {&before, &ep, &after}) {
        check_audit(x->audit, sh.name.c_str(), res);
        res.attempted += x->completed + x->failed;
        res.failed += x->failed;
      }
      if (!ep.wire.error.empty()) res.fail(ep.wire.error);
      check_nesting(ep.unpumped, res);
      auto rate = [](const LoopEpisode& x) {
        return ratio(static_cast<double>(x.committed), x.window_s);
      };
      const double base_rate = std::max(rate(before), rate(after));
      ep.layers["tracing_overhead_pct"] =
          100.0 * ratio(base_rate - rate(ep), base_rate);
      log << sh.name << " triple " << e << ": untraced " << rate(before)
          << " and " << rate(after) << " req/s, traced " << rate(ep)
          << " req/s\n";
      for (const auto& [name, value] : ep.layers)
        samples[name].push_back(value);
      if (now_ns() >= until) {
        emit_layers(ep.layers, ep.ledger, log);
        break;
      }
    }
    LayerValues medians;
    for (const auto& [name, values] : samples) medians[name] = median(values);
    log << sh.name << ": per-layer values are medians over "
        << samples.begin()->second.size() << " traced episode(s)\n";
    report_layers(medians, res, log);
  }
  if (!res.correct) res.failed = res.attempted;
  return res;
}

// ---------------------------------------------------------------------------
// Simulator storms: dense and wide
// ---------------------------------------------------------------------------

struct StormShape {
  std::string name;
  int n = 16;
  int k = 2;
  int injections = 1000;
  int ttl = 16;
  SimTime window_us = 200'000;
  int failures = 0;
  SimTime notify_us = 10'000;
  bool measure_tracking = false;
  /// dense times the whole storm, load window plus drain. wide times only
  /// the load window: its drain is several all-to-all logging-progress
  /// rounds whose number depends on the seed, which would swamp the rate.
  bool time_drain = true;
  size_t setup_samples = 15;
};

StormShape dense_shape() {
  StormShape s;
  s.name = "dense";
  s.injections = 400;
  return s;
}

StormShape wide_shape() {
  StormShape s;
  s.name = "wide";
  s.n = 1000;
  s.k = 4;
  s.ttl = 10;
  s.window_us = 40'000;  // one periodic logging-progress round
  s.injections = 20 * s.n * static_cast<int>(s.window_us) / 1'000'000;
  s.failures = 3;
  s.notify_us = 10'000 + static_cast<SimTime>(s.n) * 25;
  s.measure_tracking = true;
  s.time_drain = false;
  s.setup_samples = 7;
  return s;
}

ClusterConfig storm_config(const StormShape& sh, uint64_t seed) {
  ClusterConfig cfg;
  cfg.n = sh.n;
  cfg.seed = seed;
  cfg.protocol.k = sh.k;
  cfg.protocol.notify_interval_us = sh.notify_us;
  cfg.record_events = true;
  cfg.enable_oracle = false;
  cfg.measure_tracking = sh.measure_tracking;
  return cfg;
}

struct StormRep {
  double setup_s = 0.0;
  double wall_s = 0.0;  ///< of the timed part
  double cpu_s = 0.0;   ///< of the timed part
  int64_t measured_msgs = 0;  ///< delivered in the timed part
  bool drained = false;
  int64_t delivered = 0;
  int64_t received = 0;
  size_t committed = 0;
  size_t sim_events = 0;
  Stats stats;
  AuditOut audit;
  double peak_rss_mb = 0.0;  ///< this repetition's peak, audit included
  std::vector<double> restart_ms;
  Ledger ledger;
  int64_t unpumped = 0;
  WireOut wire;
  LayerValues layers;
};

/// One repetition of the storm, audited. Without `finish`, a shape that
/// does not time its drain stops after the timed part and audits the trace
/// recorded so far.
StormRep run_storm_rep(const StormShape& sh, uint64_t seed, bool traced,
                       bool finish, std::ostream& log) {
  StormRep rep;
  reset_peak_rss();
  Seams seams;
  if (traced) {
    tracer::enable();
    seams.capture_per_process =
        std::max<size_t>(16, kCaptureTotal / static_cast<size_t>(sh.n));
  }
  const int64_t t_setup = now_ns();
  auto cluster = std::make_unique<Cluster>(storm_config(sh, seed),
                                           make_uniform_app({}),
                                               seams.factory());
  cluster->start();
  rep.setup_s = static_cast<double>(now_ns() - t_setup) / 1e9;

  // Tokens at evenly spaced times, with seeded targets and payloads: the
  // storm's density is the same on every seed.
  Rng storm_rng = Rng(seed).fork("storm");
  for (int i = 0; i < sh.injections; ++i) {
    AppPayload p;
    p.kind = kToken;
    p.a = static_cast<int64_t>(storm_rng.next_u64());
    p.b = i;
    p.ttl = sh.ttl;
    const SimTime t = 1'000 + sh.window_us * i / sh.injections;
    cluster->inject_at(t, static_cast<ProcessId>(storm_rng.next_below(
                              static_cast<uint64_t>(sh.n))),
                       p);
  }
  if (sh.failures > 0) {
    apply_failure_plan(*cluster,
                       FailurePlan::random(Rng(seed).fork("fail"), sh.n,
                                           sh.failures, sh.window_us / 5,
                                           sh.window_us));
  }
  const double cpu0 = cpu_seconds();
  const int64_t w0 = now_ns();
  cluster->run_for(sh.window_us + 1'000);
  if (sh.time_drain) cluster->drain();
  const int64_t w1 = now_ns();
  rep.cpu_s = cpu_seconds() - cpu0;
  rep.wall_s = static_cast<double>(w1 - w0) / 1e9;
  rep.measured_msgs = seams.delivered();
  if (traced) tracer::disable();
  if (!sh.time_drain && finish) cluster->drain();
  rep.drained = sh.time_drain || finish;

  rep.delivered = seams.delivered();
  rep.received = seams.received();
  rep.committed = cluster->outputs().size();
  rep.sim_events = cluster->sim().events_executed();
  rep.stats = cluster->stats();
  for (const ProcessProbe* p : seams.probes())
    rep.restart_ms.insert(rep.restart_ms.end(), p->restart_ms.begin(),
                          p->restart_ms.end());
  rep.audit = merge_and_audit(*cluster);
  rep.peak_rss_mb = peak_rss_mb();
  if (traced) {
    std::vector<const ThreadSpans*> threads(tracer::threads().begin(),
                                            tracer::threads().end());
    rep.ledger = compute_ledger(threads, w0, w1, 1);
    rep.unpumped = entries_outside_pump(threads);
    const int64_t bytes =
        tracer::write_out(std::string(kWorkRoot) + "/" + sh.name + ".spans");
    log << "spans written: " << bytes << " bytes\n";
    rep.wire = replay_codec(seams, sh.n);
    LayerValues& v = rep.layers;
    ledger_values(rep.ledger, 0.0, v);
    stats_values(rep.stats, rep.delivered, v);
    send_buffer_depth(seams, v);
    wire_values(rep.wire, v);
    audit_values(rep.audit, rep.delivered, v);
    v["core.delivered_per_received"] = ratio(static_cast<double>(rep.delivered),
                                             static_cast<double>(rep.received));
    v["core.restart.ms"] = median(rep.restart_ms);
    v["sim.events_per_msg"] = ratio(static_cast<double>(rep.sim_events),
                                    static_cast<double>(rep.delivered));
  }
  cluster.reset();
  release_free_memory();
  return rep;
}

RunResult run_storm(const StormShape& sh, const RunArgs& args,
    std::ostream& log) {
  RunResult res;
  if (!args.trace) {
    // The storm is deterministic, so every repetition runs the same input
    // and must deliver exactly what the others did. Repetitions fill the
    // time; each is audited. wide's stop after the timed part, and one more
    // finishes through the drain.
    std::vector<StormRep> reps;
    const int64_t until = now_ns() + static_cast<int64_t>(args.seconds * 1e9);
    do {
      reps.push_back(run_storm_rep(sh, args.seed, false, sh.time_drain, log));
    } while (now_ns() < until);
    if (!sh.time_drain) reps.push_back(run_storm_rep(sh, args.seed, false,
        true, log));
    const StormRep& full = reps.back();
    for (size_t i = 0; i < reps.size(); ++i) {
      const StormRep& r = reps[i];
      check_audit(r.audit, sh.name.c_str(), res);
      if (r.measured_msgs != full.measured_msgs ||
          (r.drained && (r.delivered != full.delivered ||
                         r.committed != full.committed)))
        res.fail("repetition " + std::to_string(i + 1) +
                 " differs from the last: the sim lost determinism");
    }
    std::vector<double> setups, rates, tokens, rss;
    double cpu_s = 0.0, delivered = 0.0, audit_cpu_s = 0.0;
    size_t audit_events = 0;
    for (const StormRep& r : reps) {
      setups.push_back(r.setup_s);
      rates.push_back(static_cast<double>(r.measured_msgs) / r.wall_s);
      tokens.push_back(static_cast<double>(sh.injections) / r.wall_s);
      rss.push_back(r.peak_rss_mb);
      cpu_s += r.cpu_s;
      delivered += static_cast<double>(r.measured_msgs);
      audit_cpu_s += r.audit.merge_s + r.audit.audit_s;
      audit_events += r.audit.events;
    }
    // Set-up alone is cheap next to a repetition: top the sample up.
    while (setups.size() < sh.setup_samples) {
      Seams seams;
      const int64_t t0 = now_ns();
      Cluster c(storm_config(sh, args.seed), make_uniform_app({}),
          seams.factory());
      c.start();
      setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }
    const Histogram& commit = full.stats.histogram("output.commit_latency_us");
    res.attempted = static_cast<int64_t>(sh.injections) *
                    static_cast<int64_t>(reps.size());
    res.add("setup_s", median(setups), "s");
    res.add("requests_per_s", median(tokens), "1/s");
    res.add("request_p50_ms", commit.p50() / 1e3, "ms");
    res.add("request_p99_ms", commit.p99() / 1e3, "ms");
    res.add("msgs_per_s", median(rates), "1/s");
    res.add("commit_p50_us", commit.p50(), "us");
    res.add("commit_p99_us", commit.p99(), "us");
    res.add("wire_bytes_per_msg",
        full.stats.histogram("msg.vector_bytes").mean(), "B");
    res.add("peak_rss_mb", median(rss), "MB");
    log << sh.name << ": " << 1e6 * ratio(cpu_s, delivered)
        << " CPU us per msg, audit "
        << ratio(static_cast<double>(audit_events), audit_cpu_s) / 1e3
        << " kev per CPU-second, " << reps.size() << " repetition(s) of "
        << sh.injections << " tokens, " << full.measured_msgs
        << " msgs delivered in the timed part, " << full.delivered
            << " in all, "
        << full.committed << " outputs; " << audit_events
        << " events audited\n";
  } else {
    // Tracing-passivity self-test: the sim is deterministic, so a traced
    // and an untraced run at the same seed must agree exactly. A second
    // untraced run after the traced one gives the overhead a baseline that
    // one disturbed run cannot skew (the faster of the two).
    StormRep base = run_storm_rep(sh, args.seed, false, true, log);
    StormRep traced = run_storm_rep(sh, args.seed, true, true, log);
    StormRep after = run_storm_rep(sh, args.seed, false, sh.time_drain, log);
    for (const StormRep* r : {&base, &traced, &after})
      check_audit(r->audit, sh.name.c_str(), res);
    if (base.delivered != traced.delivered ||
        base.committed != traced.committed ||
        base.sim_events != traced.sim_events ||
        base.audit.ok != traced.audit.ok ||
        base.audit.events != traced.audit.events ||
        after.measured_msgs != traced.measured_msgs)
      res.fail("tracing perturbed the run: untraced delivered/committed " +
               std::to_string(base.delivered) + "/" +
               std::to_string(base.committed) + ", traced " +
               std::to_string(traced.delivered) + "/" +
               std::to_string(traced.committed));
    if (!traced.wire.error.empty()) res.fail(traced.wire.error);
    check_nesting(traced.unpumped, res);
    res.attempted = 3 * static_cast<int64_t>(sh.injections);
    const double base_wall = std::min(base.wall_s, after.wall_s);
    traced.layers["tracing_overhead_pct"] =
        100.0 * ratio(traced.wall_s - base_wall, base_wall);
    log << sh.name << ": passivity " << (res.correct ? "ok" : "FAILED")
        << " (delivered " << traced.delivered << ", committed "
        << traced.committed << "); untraced " << base.wall_s << " and "
        << after.wall_s << " s, traced " << traced.wall_s << " s\n";
    emit_layers(traced.layers, traced.ledger, log);
    report_layers(traced.layers, res, log);
  }
  if (!res.correct) res.failed = res.attempted;
  return res;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {"serve", "dense", "durable",
                                                  "wide"};
  return kNames;
}

RunResult run_workload(const RunArgs& args, std::ostream& log) {
  std::error_code ec;
  fs::create_directories(kWorkRoot, ec);
  if (args.trace) {
    const std::string err = ledger_self_test();
    if (!err.empty()) {
      RunResult res;
      res.fail("ledger self-test: " + err);
      res.attempted = 1;
      res.failed = 1;
      return res;
    }
    log << "ledger self-test ok\n";
  }
  if (args.workload == "serve") return run_loop(serve_shape(), args, log);
  if (args.workload == "durable") return run_loop(durable_shape(), args, log);
  if (args.workload == "dense") return run_storm(dense_shape(), args, log);
  return run_storm(wide_shape(), args, log);
}

}  // namespace kbench
