#include "src/core/checker.h"

#include "src/common/clock.h"
#include "src/common/log.h"
#include "src/obs/obs.h"
#include "src/sgx/enclave.h"

namespace seal::core {

namespace {

void CountRound(CheckRound::Trigger trigger) {
  switch (trigger) {
    case CheckRound::Trigger::kInterval:
      SEAL_OBS_COUNTER("logger_check_rounds_total{trigger=\"interval\"}").Increment();
      break;
    case CheckRound::Trigger::kForced:
      SEAL_OBS_COUNTER("logger_check_rounds_total{trigger=\"forced\"}").Increment();
      break;
    case CheckRound::Trigger::kManual:
      SEAL_OBS_COUNTER("logger_check_rounds_total{trigger=\"manual\"}").Increment();
      break;
  }
}

}  // namespace

std::string CheckReport::Summary() const {
  if (violations.empty()) {
    return "ok " + std::to_string(invariants_checked) + " invariants";
  }
  std::string s = "VIOLATION";
  for (const Violation& v : violations) {
    s += " " + v.invariant + "(" + std::to_string(v.rows.rows.size()) + ")";
  }
  return s;
}

Status CheckRound::Wait() {
  std::unique_lock<std::mutex> lk(m);
  cv.wait(lk, [&] { return done; });
  return status;
}

CheckerEngine::CheckerEngine(AuditLog* log, std::vector<Invariant> invariants,
                             Options options, TrimFn trim_fn)
    : log_(log),
      invariants_(std::move(invariants)),
      options_(std::move(options)),
      trim_fn_(std::move(trim_fn)) {}

CheckerEngine::~CheckerEngine() { Stop(); }

void CheckerEngine::Start() {
  if (!options_.async) {
    return;
  }
  std::lock_guard<std::mutex> lk(mutex_);
  if (started_ || stop_) {
    return;
  }
  started_ = true;
  // Oversubscribing check workers past the physical core count only adds
  // context-switch overhead to round latency (the workers are CPU-bound
  // invariant evaluations), so clamp. hardware_concurrency() may report 0
  // on exotic platforms; treat that as "unknown" and don't clamp.
  const size_t hw = std::thread::hardware_concurrency();
  if (hw > 0 && options_.parallelism > hw) {
    SEAL_LOG(kWarn) << "check_parallelism " << options_.parallelism << " exceeds hardware concurrency "
                    << hw << "; clamping";
    options_.parallelism = hw;
  }
  if (options_.parallelism == 0) {
    options_.parallelism = 1;
  }
  SEAL_OBS_GAUGE("checker_effective_parallelism").Set(static_cast<double>(options_.parallelism));
  // Helpers before the worker: the worker reads helpers_ unlocked when
  // deciding whether to fan a round out.
  for (size_t i = 1; i < options_.parallelism; ++i) {
    helpers_.emplace_back([this] { HelperMain(); });
  }
  worker_ = std::thread([this] { ThreadMain(); });
}

void CheckerEngine::Stop() {
  std::shared_ptr<CheckRound> orphaned;
  {
    std::lock_guard<std::mutex> lk(mutex_);
    if (stop_) {
      return;
    }
    stop_ = true;
    orphaned = std::move(pending_);
    UpdateQueueDepthLocked();
    work_cv_.notify_all();
    task_cv_.notify_all();
    idle_cv_.notify_all();
  }
  if (worker_.joinable()) {
    worker_.join();
  }
  for (std::thread& h : helpers_) {
    if (h.joinable()) {
      h.join();
    }
  }
  helpers_.clear();
  if (orphaned != nullptr) {
    CompleteRound(orphaned, Unavailable("checker engine stopped"));
  }
}

void CheckerEngine::UpdateQueueDepthLocked() {
  SEAL_OBS_GAUGE("logger_check_queue_depth")
      .Set((pending_ != nullptr ? 1 : 0) + (running_ != nullptr ? 1 : 0));
}

std::shared_ptr<CheckRound> CheckerEngine::Enqueue(Trigger trigger, bool want_trim,
                                                   int64_t horizon) {
  std::lock_guard<std::mutex> lk(mutex_);
  if (stop_) {
    auto dead = std::make_shared<CheckRound>();
    dead->trigger = trigger;
    dead->status = Unavailable("checker engine stopped");
    dead->done = true;
    return dead;
  }
  if (pending_ != nullptr) {
    // Merge: one round will cover both triggers. The refreshed snapshot
    // covers every pair drained so far (the caller holds the writer lock,
    // so this is a pair boundary).
    pending_->snapshot = log_->database().CaptureSnapshot();
    if (horizon > pending_->horizon) {
      pending_->horizon = horizon;
    }
    pending_->want_trim = pending_->want_trim || want_trim;
    SEAL_OBS_COUNTER("logger_check_rounds_coalesced_total").Increment();
    return pending_;
  }
  auto round = std::make_shared<CheckRound>();
  round->trigger = trigger;
  round->want_trim = want_trim;
  round->horizon = horizon;
  round->snapshot = log_->database().CaptureSnapshot();
  pending_ = round;
  UpdateQueueDepthLocked();
  work_cv_.notify_one();
  return round;
}

std::shared_ptr<CheckRound> CheckerEngine::TryAttach(int64_t need_horizon) {
  std::lock_guard<std::mutex> lk(mutex_);
  if (pending_ == nullptr || stop_) {
    // A running round never qualifies: its snapshot was captured before
    // the caller's pair was drained, so it cannot cover need_horizon.
    return nullptr;
  }
  pending_->snapshot = log_->database().CaptureSnapshot();
  if (need_horizon > pending_->horizon) {
    pending_->horizon = need_horizon;
  }
  return pending_;
}

Status CheckerEngine::RunInline(Trigger trigger, int64_t horizon, CheckReport* out) {
  CheckRound round;
  round.trigger = trigger;
  round.horizon = horizon;
  round.snapshot = log_->database().CaptureSnapshot();
  SEAL_RETURN_IF_ERROR(EvaluateRound(round, /*parallel=*/false));
  CountRound(trigger);
  rounds_completed_.fetch_add(1, std::memory_order_release);
  if (options_.on_report) {
    options_.on_report(round.report);
  }
  *out = std::move(round.report);
  return Status::Ok();
}

void CheckerEngine::WaitIdle() {
  std::unique_lock<std::mutex> lk(mutex_);
  idle_cv_.wait(lk, [&] { return stop_ || (pending_ == nullptr && running_ == nullptr); });
}

void CheckerEngine::PauseForTesting(bool paused) {
  std::lock_guard<std::mutex> lk(mutex_);
  paused_ = paused;
  work_cv_.notify_all();
}

void CheckerEngine::ThreadMain() {
  for (;;) {
    std::shared_ptr<CheckRound> round;
    {
      std::unique_lock<std::mutex> lk(mutex_);
      work_cv_.wait(lk, [&] { return stop_ || (pending_ != nullptr && !paused_); });
      if (stop_) {
        return;
      }
      round = std::move(pending_);
      running_ = round;
      UpdateQueueDepthLocked();
    }
    RunRound(*round);
    CountRound(round->trigger);
    rounds_completed_.fetch_add(1, std::memory_order_release);
    if (round->status.ok() && options_.on_report) {
      options_.on_report(round->report);
    }
    CompleteRound(round, round->status);
    {
      std::lock_guard<std::mutex> lk(mutex_);
      running_ = nullptr;
      UpdateQueueDepthLocked();
      idle_cv_.notify_all();
    }
  }
}

void CheckerEngine::RunRound(CheckRound& round) {
  sgx::ScopedExecutionCharge charge(options_.enclave);
  Status s = EvaluateRound(round, /*parallel=*/true);
  if (s.ok() && round.want_trim && trim_fn_) {
    s = trim_fn_(&round.report);
  }
  round.status = s;
}

Status CheckerEngine::EvaluateRound(CheckRound& round, bool parallel) {
  const int64_t check_start = NowNanos();
  const size_t n = invariants_.size();
  auto task = std::make_shared<EvalTask>();
  task->snap = &round.snapshot;
  task->results.resize(n);
  task->remaining.store(n, std::memory_order_relaxed);

  if (parallel && !helpers_.empty() && n > 1) {
    {
      std::lock_guard<std::mutex> lk(mutex_);
      task_ = task;
      ++task_gen_;
      task_cv_.notify_all();
    }
    RunTaskSlice(*task);
    std::unique_lock<std::mutex> lk(mutex_);
    done_cv_.wait(lk, [&] { return task->remaining.load(std::memory_order_acquire) == 0; });
    task_ = nullptr;
  } else {
    RunTaskSlice(*task);
  }

  CheckReport& report = round.report;
  report.covered_time = round.horizon;
  for (size_t i = 0; i < n; ++i) {
    Result<db::QueryResult>& result = *task->results[i];
    if (!result.ok()) {
      return result.status();
    }
    ++report.invariants_checked;
    SEAL_OBS_COUNTER("logger_invariant_evaluations_total").Increment();
    if (!result->rows.empty()) {
      SEAL_OBS_COUNTER("logger_violations_found_total").Add(result->rows.size());
      report.violations.push_back(
          CheckReport::Violation{invariants_[i].name, std::move(*result)});
    }
  }
  report.check_nanos = NowNanos() - check_start;
  SEAL_OBS_HISTOGRAM("logger_check_nanos").Observe(static_cast<uint64_t>(report.check_nanos));
  return Status::Ok();
}

void CheckerEngine::RunTaskSlice(EvalTask& task) {
  for (;;) {
    const size_t i = task.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= task.results.size()) {
      return;
    }
    task.results[i] = log_->database().ExecuteSnapshot(invariants_[i].query, *task.snap);
    if (task.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lk(mutex_);
      done_cv_.notify_all();
    }
  }
}

void CheckerEngine::HelperMain() {
  uint64_t seen_gen = 0;
  for (;;) {
    std::shared_ptr<EvalTask> task;
    {
      std::unique_lock<std::mutex> lk(mutex_);
      task_cv_.wait(lk, [&] { return stop_ || (task_ != nullptr && task_gen_ != seen_gen); });
      if (stop_) {
        return;
      }
      seen_gen = task_gen_;
      task = task_;
    }
    sgx::ScopedExecutionCharge charge(options_.enclave);
    RunTaskSlice(*task);
  }
}

void CheckerEngine::CompleteRound(const std::shared_ptr<CheckRound>& round, Status status) {
  std::lock_guard<std::mutex> lk(round->m);
  round->status = std::move(status);
  round->done = true;
  round->cv.notify_all();
}

}  // namespace seal::core
