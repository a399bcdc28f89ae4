//===- support/ThreadPool.cpp ---------------------------------------------===//

#include "support/ThreadPool.h"

#include "support/Telemetry.h"
#include "support/TraceEventRecorder.h"

#include <algorithm>
#include <utility>

using namespace rprism;

ThreadPool::ThreadPool(unsigned NumThreads) {
  if (NumThreads <= 1)
    return; // Inline mode: no workers, submit() executes directly.
  if (Telemetry::enabled())
    StartNanos = Telemetry::nowNanos();
  Workers.reserve(NumThreads);
  for (unsigned I = 0; I != NumThreads; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    ShuttingDown = true;
  }
  WorkReady.notify_all();
  for (std::thread &Worker : Workers)
    Worker.join();
  // Utilization = summed task run time over the pool's whole worker-span
  // capacity. A gauge (timing-class): it varies across runs and --jobs.
  uint64_t Lifetime =
      StartNanos != 0 ? Telemetry::nowNanos() - StartNanos : 0;
  if (Telemetry::enabled() && Lifetime != 0 && !Workers.empty())
    Telemetry::gaugeMax(
        "pool.worker_utilization",
        static_cast<double>(BusyNanos.load(std::memory_order_relaxed)) /
            (static_cast<double>(Lifetime) *
             static_cast<double>(Workers.size())));
}

unsigned ThreadPool::defaultConcurrency() {
  unsigned N = std::thread::hardware_concurrency();
  return N == 0 ? 1 : N;
}

void ThreadPool::recordException(std::exception_ptr E) {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (!FirstError)
    FirstError = E;
}

void ThreadPool::submit(std::function<void()> Task) {
  if (Workers.empty()) {
    // Inline mode: preserve the sequential execution order exactly.
    try {
      Task();
    } catch (...) {
      recordException(std::current_exception());
    }
    return;
  }
  const bool TelemetryOn = Telemetry::enabled();
  const bool TracingOn = TraceEventRecorder::armed();
  if (TelemetryOn || TracingOn) {
    // Wrap so the worker (a) inherits the submitter's stage path — keeping
    // the span taxonomy identical for every --jobs value — (b) accounts
    // queue wait and busy time to the pool gauges, and (c) stitches the
    // submit→run handoff with timeline flow events. Flow tail + queue
    // depth are emitted here (submitter side); the head fires when the
    // worker dequeues.
    uint64_t FlowId = 0;
    if (TracingOn) {
      FlowId = TraceEventRecorder::flowBegin("pool.task");
      TraceEventRecorder::poolQueueAdd(1);
    }
    Task = [this, Inner = std::move(Task), TelemetryOn, TracingOn, FlowId,
            Path = TelemetryOn ? Telemetry::currentPath() : std::string(),
            SubmitNanos = Telemetry::nowNanos()]() {
      if (TracingOn) {
        TraceEventRecorder::poolQueueAdd(-1);
        TraceEventRecorder::setThreadName("pool-worker");
        TraceEventRecorder::flowEnd("pool.task", FlowId);
      }
      // RAII so a throwing task still closes its timeline slice — the
      // exporter relies on per-thread begin/end balance.
      struct TaskSlice {
        bool On;
        explicit TaskSlice(bool On) : On(On) {
          if (On)
            TraceEventRecorder::begin("pool.task", "pool");
        }
        ~TaskSlice() {
          if (On)
            TraceEventRecorder::end("pool.task", "pool");
        }
      } Slice(TracingOn);
      uint64_t RunNanos = Telemetry::nowNanos();
      if (TelemetryOn) {
        Telemetry::gaugeSum("pool.tasks", 1);
        Telemetry::gaugeSum("pool.queue_wait_ns",
                            static_cast<double>(RunNanos - SubmitNanos));
      }
      TelemetryTaskScope Scope(Path);
      Inner();
      if (TelemetryOn) {
        uint64_t Busy = Telemetry::nowNanos() - RunNanos;
        Telemetry::gaugeSum("pool.busy_ns", static_cast<double>(Busy));
        BusyNanos.fetch_add(Busy, std::memory_order_relaxed);
      }
    };
  }
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Queue.push_back(std::move(Task));
    ++Pending;
  }
  WorkReady.notify_one();
}

void ThreadPool::workerLoop() {
  for (;;) {
    std::function<void()> Task;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      WorkReady.wait(Lock, [this] { return ShuttingDown || !Queue.empty(); });
      if (Queue.empty())
        return; // Shutting down and drained.
      Task = std::move(Queue.front());
      Queue.pop_front();
    }
    try {
      Task();
    } catch (...) {
      recordException(std::current_exception());
    }
    bool Drained;
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      Drained = --Pending == 0;
    }
    if (Drained)
      AllDone.notify_all();
  }
}

void ThreadPool::wait() {
  std::exception_ptr E;
  {
    std::unique_lock<std::mutex> Lock(Mutex);
    AllDone.wait(Lock, [this] { return Pending == 0; });
    E = std::exchange(FirstError, nullptr);
  }
  if (E)
    std::rethrow_exception(E);
}
