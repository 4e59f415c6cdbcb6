#include "spans.h"

#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <ctime>
#include <memory>
#include <mutex>
#include <sstream>

namespace kbench {

namespace {

constexpr const char* kNames[kSpanNameCount] = {
    "sched.action",       "sim.pump",
    "core.timer",         "core.start",
    "core.app_msg",       "core.announcement",
    "core.log_progress",  "core.ack",
    "core.drain_tick",    "core.crash",
    "core.restart",       "core.checkpoint",
    "exec.route",         "exec.announce_fanout",
    "exec.log_progress_fanout", "exec.ack",
    "exec.commit_output", "obs.record",
    "obs.capture",
};

std::atomic<bool> g_on{false};
std::atomic<uint64_t> g_gen{1};
std::mutex g_mu;  // guards g_owned / g_views shape
std::vector<std::unique_ptr<ThreadSpans>> g_owned;
std::vector<ThreadSpans*> g_views;

struct Local {
  uint64_t gen = 0;
  ThreadSpans* buf = nullptr;
};
thread_local Local t_local;

ThreadSpans* local_buffer() {
  const uint64_t gen = g_gen.load(std::memory_order_acquire);
  if (t_local.gen == gen) return t_local.buf;
  auto buf = std::make_unique<ThreadSpans>();
  buf->tid = static_cast<int>(::syscall(SYS_gettid));
  buf->spans.reserve(1 << 16);
  ThreadSpans* raw = buf.get();
  {
    std::lock_guard<std::mutex> lk(g_mu);
    raw->index = static_cast<uint16_t>(g_owned.size());
    g_owned.push_back(std::move(buf));
    g_views.push_back(raw);
  }
  t_local = Local{gen, raw};
  return raw;
}

int64_t clip_len(const SpanRec& s, int64_t w0, int64_t w1) {
  return std::max<int64_t>(0, std::min(s.end_ns, w1) - std::max(s.start_ns,
      w0));
}

}  // namespace

bool is_engine_entry(uint16_t name) {
  return name >= kCoreStart && name <= kCoreCheckpoint;
}

int64_t now_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

namespace tracer {

void enable() {
  std::lock_guard<std::mutex> lk(g_mu);
  g_owned.clear();
  g_views.clear();
  g_gen.fetch_add(1, std::memory_order_acq_rel);
  g_on.store(true, std::memory_order_release);
}

void disable() { g_on.store(false, std::memory_order_release); }

bool on() { return g_on.load(std::memory_order_relaxed); }

const std::vector<ThreadSpans*>& threads() { return g_views; }

std::vector<int> thread_ids() {
  std::lock_guard<std::mutex> lk(g_mu);
  std::vector<int> ids;
  for (const ThreadSpans* t : g_views) ids.push_back(t->tid);
  return ids;
}

int32_t open(uint16_t name) {
  if (!on()) return -1;
  ThreadSpans* b = local_buffer();
  const auto idx = static_cast<int32_t>(b->spans.size());
  SpanRec r;
  r.parent = b->open.empty() ? -1 : b->open.back();
  r.name = name;
  r.thread = b->index;
  r.start_ns = now_ns();
  b->spans.push_back(r);
  b->open.push_back(idx);
  return idx;
}

void close(int32_t idx) {
  ThreadSpans* b = t_local.buf;
  SpanRec& r = b->spans[static_cast<size_t>(idx)];
  r.end_ns = now_ns();
  // An action nobody marked as a pump ran engine work directly.
  if (r.name == kSchedAction) r.name = kCoreTimer;
  b->open.pop_back();
}

void mark_pump() {
  if (!on()) return;
  ThreadSpans* b = local_buffer();
  if (b->open.empty()) return;
  SpanRec& top = b->spans[static_cast<size_t>(b->open.back())];
  if (top.name == kSchedAction) top.name = kSimPump;
}

int64_t write_out(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return -1;
  // Header: magic, name table, then one 24-byte record per span.
  std::ostringstream head;
  head << "KBSPANS1\n";
  for (int i = 0; i < kSpanNameCount; ++i) head << kNames[i] << "\n";
  head << "\n";
  const std::string h = head.str();
  int64_t bytes = static_cast<int64_t>(std::fwrite(h.data(), 1, h.size(), f));
  bool ok = bytes == static_cast<int64_t>(h.size());
  for (const ThreadSpans* t : g_views) {
    for (const SpanRec& r : t->spans) {
      ok = ok && std::fwrite(&r, sizeof(r), 1, f) == 1;
      bytes += static_cast<int64_t>(sizeof(r));
    }
  }
  ok = (std::fclose(f) == 0) && ok;
  return ok ? bytes : -1;
}

}  // namespace tracer

int64_t Ledger::layer_self_ns(const std::string& prefix) const {
  int64_t total = 0;
  const std::string p = prefix + ".";
  for (const auto& [name, row] : rows)
    if (name.compare(0, p.size(), p) == 0) total += row.self_ns;
  return total;
}

Ledger compute_ledger(const std::vector<const ThreadSpans*>& threads,
                      int64_t w0, int64_t w1, int workers) {
  Ledger led;
  led.window_ns = w1 - w0;
  led.workers = workers;
  std::vector<int64_t> self;
  std::vector<int64_t> by_name(kSpanNameCount, 0);
  std::vector<int64_t> counts(kSpanNameCount, 0);
  for (const ThreadSpans* t : threads) {
    self.assign(t->spans.size(), 0);
    for (size_t i = 0; i < t->spans.size(); ++i) {
      const SpanRec& s = t->spans[i];
      if (s.end_ns == 0) continue;  // still open: never closed in the run
      const int64_t len = clip_len(s, w0, w1);
      self[i] += len;
      if (s.parent >= 0) self[static_cast<size_t>(s.parent)] -= len;
      if (s.start_ns >= w0 && s.start_ns < w1) ++counts[s.name];
    }
    for (size_t i = 0; i < t->spans.size(); ++i) {
      by_name[t->spans[i].name] += self[i];
      led.covered_ns += self[i];
    }
  }
  for (int n = 0; n < kSpanNameCount; ++n) {
    if (by_name[static_cast<size_t>(n)] == 0
        && counts[static_cast<size_t>(n)] == 0)
      continue;
    led.rows[kNames[n]] = LedgerRow{by_name[static_cast<size_t>(n)],
                                    counts[static_cast<size_t>(n)]};
  }
  return led;
}

int64_t entries_outside_pump(const std::vector<const ThreadSpans*>& threads) {
  int64_t bad = 0;
  for (const ThreadSpans* t : threads) {
    for (const SpanRec& s : t->spans) {
      if (!is_engine_entry(s.name) || s.name == kCoreStart ||
          s.name == kCoreCrash || s.name == kCoreRestart)
        continue;
      if (s.parent < 0 ||
          t->spans[static_cast<size_t>(s.parent)].name != kSimPump)
        ++bad;
    }
  }
  return bad;
}

std::string ledger_self_test() {
  // Two workers. Thread 0: a pump [0,100] entering the engine [10,90],
  // which routes [20,30] and records [40,45]; then a timer [150,170] that
  // records [160,165]. Thread 1: a pump [50,250] around a handler
  // [60,240]. The window [5,200) clips the first pump, the second pump
  // and its handler.
  ThreadSpans t0, t1;
  auto add = [](ThreadSpans& t, uint16_t name, int64_t a, int64_t b,
                int32_t parent) {
    SpanRec r;
    r.start_ns = a;
    r.end_ns = b;
    r.parent = parent;
    r.name = name;
    r.thread = t.index;
    t.spans.push_back(r);
    return static_cast<int32_t>(t.spans.size() - 1);
  };
  t1.index = 1;
  int32_t pump = add(t0, kSimPump, 0, 100, -1);
  int32_t handler = add(t0, kCoreAppMsg, 10, 90, pump);
  add(t0, kExecRoute, 20, 30, handler);
  add(t0, kObsRecord, 40, 45, handler);
  int32_t timer = add(t0, kCoreTimer, 150, 170, -1);
  add(t0, kObsRecord, 160, 165, timer);
  int32_t pump1 = add(t1, kSimPump, 50, 250, -1);
  add(t1, kCoreAppMsg, 60, 240, pump1);

  Ledger led = compute_ledger({&t0, &t1}, 5, 200, 2);
  std::ostringstream err;
  auto expect = [&](const char* name, int64_t want) {
    if (led.self_ns(name) != want)
      err << name << " self " << led.self_ns(name) << " != " << want << "; ";
  };
  expect("sim.pump", 15 + 10);
  expect("core.app_msg", 65 + 140);
  expect("exec.route", 10);
  expect("obs.record", 5 + 5);
  expect("core.timer", 15);
  if (led.covered_ns != 265) err << "covered " << led.covered_ns << " != 265; ";
  if (led.covered_ns + led.uncovered_ns() != 2 * 195)
    err << "self + uncovered != workers x window; ";
  if (led.layer_self_ns("core") != 205 + 15) err << "core layer sum; ";

  // The live tracer: nested Spans on this thread record the innermost
  // open span as parent, and an action entering the engine becomes a pump.
  const bool was_on = tracer::on();
  if (!was_on) {
    tracer::enable();
    {
      Span action(kSchedAction);
      tracer::mark_pump();
      Span entry(kCoreAppMsg);
      { Span route(kExecRoute); }
    }
    { Span timer_action(kSchedAction); }
    const ThreadSpans* me = nullptr;
    for (const ThreadSpans* t : tracer::threads())
      if (!t->spans.empty()) me = t;
    if (me == nullptr || me->spans.size() != 4) {
      err << "live tracer recorded the wrong span count; ";
    } else {
      const auto& s = me->spans;
      if (s[0].name != kSimPump || s[1].parent != 0 || s[2].parent != 1 ||
          s[3].name != kCoreTimer || s[3].parent != -1)
        err << "live tracer nesting or pump resolution wrong; ";
    }
    tracer::disable();
  }
  return err.str();
}

}  // namespace kbench
