#include "seams.h"

#include <utility>

#include "core/process.h"
#include "spans.h"

namespace kbench {

namespace {

class SeamScheduler final : public Scheduler {
 public:
  explicit SeamScheduler(Scheduler& inner) : inner_(inner) {}

  SimTime now() const override { return inner_.now(); }

  // May be called from a storage flusher thread: keeps no state.
  SeqNo schedule_at(SimTime t, Action fn) override {
    if (!tracer::on()) return inner_.schedule_at(t, std::move(fn));
    return inner_.schedule_at(t, wrap(std::move(fn)));
  }

  void schedule_batch(std::vector<TimedAction> batch) override {
    if (tracer::on())
      for (TimedAction& item : batch) item.fn = wrap(std::move(item.fn));
    inner_.schedule_batch(std::move(batch));
  }

 private:
  static Action wrap(Action fn) {
    return [fn = std::move(fn)] {
      Span s(kSchedAction);
      fn();
    };
  }

  Scheduler& inner_;
};

class SeamRecorder final : public EventRecorder {
 public:
  explicit SeamRecorder(EventRecorder& inner)
      : EventRecorder(inner.pid()), inner_(inner) {}

  void record(ProtocolEvent e) override {
    Span s(kObsRecord);
    inner_.record(std::move(e));
  }
  size_t size() const override { return inner_.size(); }
  void snapshot(std::vector<ProtocolEvent>& out) const override {
    inner_.snapshot(out);
  }
  void clear() override { inner_.clear(); }

 protected:
  void push(ProtocolEvent e) override { inner_.record(std::move(e)); }

 private:
  EventRecorder& inner_;
};

class SeamApi final : public ClusterApi {
 public:
  SeamApi(ClusterApi& inner, ProcessId pid, Seams& seams, ProcessProbe& probe)
      : inner_(inner), pid_(pid), seams_(seams), probe_(probe),
        sched_(inner.scheduler()) {
    if (EventRecorder* r = inner_.recorder(pid_))
      rec_ = std::make_unique<SeamRecorder>(*r);
  }

  Scheduler& scheduler() override { return sched_; }
  Stats& stats() override { return inner_.stats(); }
  const Tracer& tracer() const override { return inner_.tracer(); }

  void route_app_msg(AppMsg msg) override {
    if (probe_.captured.size() < seams_.capture_per_process && tracer::on()) {
      Span s(kObsCapture);
      probe_.captured.push_back(msg);
    }
    Span s(kExecRoute);
    inner_.route_app_msg(std::move(msg));
  }
  void broadcast_announcement(const Announcement& a) override {
    Span s(kExecAnnounceFanout);
    inner_.broadcast_announcement(a);
  }
  void broadcast_log_progress(const LogProgressMsg& lp) override {
    Span s(kExecLogProgressFanout);
    inner_.broadcast_log_progress(lp);
  }
  void send_ack(ProcessId acker, ProcessId sender, MsgId id) override {
    Span s(kExecAck);
    inner_.send_ack(acker, sender, id);
  }
  void send_dep_query(const DepQuery& q) override { inner_.send_dep_query(q); }
  void send_dep_reply(ProcessId to, const DepReply& r) override {
    inner_.send_dep_reply(to, r);
  }
  void commit_output(const OutputRecord& rec) override {
    {
      Span s(kExecCommitOutput);
      inner_.commit_output(rec);
    }
    if (seams_.on_commit) seams_.on_commit(rec, inner_.scheduler().now());
  }
  Oracle* oracle() override { return inner_.oracle(); }
  EventRecorder* recorder(ProcessId pid) override {
    EventRecorder* r = inner_.recorder(pid);
    if (r == nullptr || pid != pid_ || !tracer::on()) return r;
    return rec_.get();
  }
  bool draining() const override { return inner_.draining(); }

 private:
  ClusterApi& inner_;
  ProcessId pid_;
  Seams& seams_;
  ProcessProbe& probe_;
  SeamScheduler sched_;
  std::unique_ptr<SeamRecorder> rec_;
};

class SeamEngine final : public RecoveryProcess {
 public:
  SeamEngine(ProcessId pid, const ClusterConfig& cfg, ClusterApi& host,
             std::unique_ptr<Application> app, Seams& seams)
      : api_(host, pid, seams, probe_),
        inner_(std::make_unique<Process>(pid, cfg.n, cfg.protocol, api_,
                                         std::move(app))) {}

  ProcessProbe& probe() { return probe_; }

  void start_process() override {
    entry(kCoreStart, [&] { inner_->start_process(); });
  }
  void handle_app_msg(const AppMsg& m) override {
    probe_.received.fetch_add(1, std::memory_order_relaxed);
    entry(kCoreAppMsg, [&] { inner_->handle_app_msg(m); });
  }
  void handle_announcement(const Announcement& a) override {
    entry(kCoreAnnouncement, [&] { inner_->handle_announcement(a); });
  }
  void handle_log_progress(const LogProgressMsg& lp) override {
    entry(kCoreLogProgress, [&] { inner_->handle_log_progress(lp); });
  }
  void handle_ack(const MsgId& id) override {
    entry(kCoreAck, [&] { inner_->handle_ack(id); });
  }
  void handle_dep_query(const DepQuery& q) override {
    inner_->handle_dep_query(q);
  }
  void handle_dep_reply(const DepReply& r) override {
    inner_->handle_dep_reply(r);
  }
  void crash() override {
    entry(kCoreCrash, [&] { inner_->crash(); });
  }
  void restart() override {
    const int64_t t0 = now_ns();
    entry(kCoreRestart, [&] { inner_->restart(); });
    probe_.restart_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
  }
  void checkpoint_now() override {
    entry(kCoreCheckpoint, [&] { inner_->checkpoint_now(); });
  }
  void drain_tick() override {
    entry(kCoreDrainTick, [&] { inner_->drain_tick(); });
  }
  bool quiescent() const override { return inner_->quiescent(); }
  bool alive() const override { return inner_->alive(); }
  ProcessId pid() const override { return inner_->pid(); }
  Executor& executor() override { return inner_->executor(); }
  Entry current() const override { return inner_->current(); }
  const StableStorage& storage() const override { return inner_->storage(); }
  size_t receive_buffer_size() const override {
    return inner_->receive_buffer_size();
  }
  size_t send_buffer_size() const override {
    return inner_->send_buffer_size();
  }
  size_t output_buffer_size() const override {
    return inner_->output_buffer_size();
  }
  int64_t deliveries() const override { return inner_->deliveries(); }
  int64_t rollbacks() const override { return inner_->rollbacks(); }

 private:
  template <typename Fn>
  void entry(uint16_t name, Fn&& fn) {
    tracer::mark_pump();
    {
      Span s(name);
      fn();
    }
    probe_.delivered.store(inner_->deliveries(), std::memory_order_relaxed);
    if (tracer::on()) {
      probe_.send_buffer_sum +=
          static_cast<int64_t>(inner_->send_buffer_size());
      ++probe_.send_buffer_samples;
    }
  }

  // Declaration order is destruction order in reverse: the engine holds a
  // reference to api_, which holds one to probe_.
  ProcessProbe probe_;
  SeamApi api_;
  std::unique_ptr<RecoveryProcess> inner_;
};

}  // namespace

ClusterHost::EngineFactory Seams::factory() {
  return [this](ProcessId pid, const ClusterConfig& cfg, ClusterApi& api,
                std::unique_ptr<Application> app)
             -> std::unique_ptr<RecoveryProcess> {
    auto engine =
        std::make_unique<SeamEngine>(pid, cfg, api, std::move(app), *this);
    probes_.push_back(&engine->probe());
    return engine;
  };
}

int64_t Seams::delivered() const {
  int64_t total = 0;
  for (const ProcessProbe* p : probes_)
    total += p->delivered.load(std::memory_order_relaxed);
  return total;
}

int64_t Seams::received() const {
  int64_t total = 0;
  for (const ProcessProbe* p : probes_)
    total += p->received.load(std::memory_order_relaxed);
  return total;
}

}  // namespace kbench
