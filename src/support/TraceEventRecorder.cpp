//===- support/TraceEventRecorder.cpp -------------------------------------===//

#include "support/TraceEventRecorder.h"

#include "support/Telemetry.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <sstream>

#if defined(__unix__)
#include <sys/resource.h>
#include <unistd.h>
#endif

using namespace rprism;

namespace rprism {
namespace detail {

/// One thread's preallocated event ring. Only the owning thread writes;
/// the export path reads after instrumented work has quiesced.
struct EventRing {
  std::vector<TimelineEvent> Events; ///< Preallocated to capacity.
  size_t Head = 0;                   ///< Next write slot.
  uint64_t Total = 0;                ///< Events ever pushed (wraps count drops).
  uint32_t Tid = 0;                  ///< Stable export lane id.
  const char *Name = nullptr;        ///< Lane label; literal, first write wins.

  void push(const TimelineEvent &E) {
    ++Total;
    if (Events.empty())
      return; // Capacity 0: retain nothing (Total still counts drops).
    Events[Head] = E;
    Head = (Head + 1) % Events.size();
  }

  size_t retained() const { return std::min<uint64_t>(Total, Events.size()); }
  uint64_t dropped() const {
    return Total > Events.size() ? Total - Events.size() : 0;
  }

  void reset(size_t Capacity) {
    Events.assign(Capacity, TimelineEvent{});
    Head = 0;
    Total = 0;
  }
};

} // namespace detail
} // namespace rprism

namespace {

thread_local detail::EventRing *TLRing = nullptr;

/// JSON string escaping for event names (literals in practice, but the
/// document must stay valid for any input).
std::string jsonEscapeEvt(const char *Raw) {
  std::string Out;
  for (const char *P = Raw; *P; ++P) {
    char C = *P;
    switch (C) {
    case '"':  Out += "\\\""; break;
    case '\\': Out += "\\\\"; break;
    case '\n': Out += "\\n"; break;
    case '\t': Out += "\\t"; break;
    case '\r': Out += "\\r"; break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out.push_back(C);
      }
    }
  }
  return Out;
}

/// Current resident set size in bytes (0 where unsupported).
double currentRssBytes() {
#if defined(__linux__)
  if (std::FILE *F = std::fopen("/proc/self/statm", "r")) {
    unsigned long long Size = 0, Resident = 0;
    int Got = std::fscanf(F, "%llu %llu", &Size, &Resident);
    std::fclose(F);
    if (Got == 2)
      return static_cast<double>(Resident) *
             static_cast<double>(sysconf(_SC_PAGESIZE));
  }
#endif
  return 0;
}

/// Accumulated user+system CPU time in milliseconds (0 where unsupported).
double cpuTimeMillis() {
#if defined(__unix__)
  struct rusage Usage;
  if (getrusage(RUSAGE_SELF, &Usage) == 0) {
    auto Ms = [](const struct timeval &T) {
      return static_cast<double>(T.tv_sec) * 1e3 +
             static_cast<double>(T.tv_usec) / 1e3;
    };
    return Ms(Usage.ru_utime) + Ms(Usage.ru_stime);
  }
#endif
  return 0;
}

} // namespace

TraceEventRecorder &TraceEventRecorder::get() {
  static TraceEventRecorder Instance;
  return Instance;
}

detail::EventRing &TraceEventRecorder::threadRing() {
  if (TLRing)
    return *TLRing;
  TraceEventRecorder &R = get();
  auto Ring = std::make_unique<detail::EventRing>();
  TLRing = Ring.get();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  Ring->Tid = static_cast<uint32_t>(R.Rings.size() + 1);
  Ring->Events.assign(R.RingCapacity, TimelineEvent{});
  R.Rings.push_back(std::move(Ring));
  return *TLRing;
}

void TraceEventRecorder::arm(const TraceEventRecorderOptions &Options) {
  disarm(); // Idempotent: stops a running sampler before re-configuring.
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    RingCapacity = Options.RingCapacity;
    for (auto &Ring : Rings)
      Ring->reset(RingCapacity);
  }
  NextFlowId.store(1, std::memory_order_relaxed);
  PoolQueueDepth.store(0, std::memory_order_relaxed);
  ArmNanos = Telemetry::nowNanos();
  ArmedFlag.store(true, std::memory_order_relaxed);
  setThreadName("main");
  if (Options.SamplePeriodMicros != 0) {
    SamplerStop.store(false, std::memory_order_relaxed);
    Sampler = std::thread(
        [this, Period = Options.SamplePeriodMicros] { samplerLoop(Period); });
  }
}

void TraceEventRecorder::disarm() {
  ArmedFlag.store(false, std::memory_order_relaxed);
  SamplerStop.store(true, std::memory_order_relaxed);
  if (Sampler.joinable())
    Sampler.join();
}

void TraceEventRecorder::samplerLoop(uint64_t PeriodMicros) {
  // One tick immediately (so sub-period runs still get counter tracks),
  // then periodic ticks until disarm. Sleeps are sliced so disarm()
  // never waits longer than ~2ms for the join.
  //
  // The sampler's lifetime sits strictly inside arm()..disarm()-join, so
  // its emits write to its ring directly instead of going through the
  // ArmedFlag-gated entry points: when disarm() lands before this thread
  // is first scheduled, the flag is already false, but the immediate
  // tick below must still produce the counter tracks (the export only
  // reads the rings after the join).
  detail::EventRing &Ring = threadRing();
  if (!Ring.Name)
    Ring.Name = "sampler";
  auto Sample = [&Ring](const char *Name, double Value) {
    TimelineEvent E;
    E.K = TimelineEvent::Kind::Counter;
    E.Name = Name;
    E.Cat = "counter";
    E.TsNanos = Telemetry::nowNanos();
    E.Value = Value;
    Ring.push(E);
  };
  auto Tick = [&] {
    if (double Rss = currentRssBytes(); Rss > 0)
      Sample("rss_bytes", Rss);
    if (double Cpu = cpuTimeMillis(); Cpu > 0)
      Sample("cpu_time_ms", Cpu);
    Sample("pool.queue_depth",
           static_cast<double>(
               PoolQueueDepth.load(std::memory_order_relaxed)));
  };
  Tick();
  const uint64_t Slice = std::min<uint64_t>(PeriodMicros, 2000);
  uint64_t Slept = 0;
  while (!SamplerStop.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::microseconds(Slice));
    Slept += Slice;
    if (Slept < PeriodMicros)
      continue;
    Slept = 0;
    if (SamplerStop.load(std::memory_order_relaxed))
      break;
    Tick();
  }
}

void TraceEventRecorder::begin(const char *Name, const char *Cat) {
  if (!armed())
    return;
  TimelineEvent E;
  E.K = TimelineEvent::Kind::Begin;
  E.Name = Name;
  E.Cat = Cat;
  E.TsNanos = Telemetry::nowNanos();
  threadRing().push(E);
}

void TraceEventRecorder::end(const char *Name, const char *Cat) {
  if (!armed())
    return;
  TimelineEvent E;
  E.K = TimelineEvent::Kind::End;
  E.Name = Name;
  E.Cat = Cat;
  E.TsNanos = Telemetry::nowNanos();
  threadRing().push(E);
}

void TraceEventRecorder::instant(const char *Name, const char *Cat) {
  if (!armed())
    return;
  TimelineEvent E;
  E.K = TimelineEvent::Kind::Instant;
  E.Name = Name;
  E.Cat = Cat;
  E.TsNanos = Telemetry::nowNanos();
  threadRing().push(E);
}

void TraceEventRecorder::counter(const char *Name, double Value) {
  if (!armed())
    return;
  TimelineEvent E;
  E.K = TimelineEvent::Kind::Counter;
  E.Name = Name;
  E.Cat = "counter";
  E.TsNanos = Telemetry::nowNanos();
  E.Value = Value;
  threadRing().push(E);
}

uint64_t TraceEventRecorder::flowBegin(const char *Name) {
  if (!armed())
    return 0;
  uint64_t Id = get().NextFlowId.fetch_add(1, std::memory_order_relaxed);
  TimelineEvent E;
  E.K = TimelineEvent::Kind::FlowStart;
  E.Name = Name;
  E.Cat = "flow";
  E.TsNanos = Telemetry::nowNanos();
  E.Id = Id;
  threadRing().push(E);
  return Id;
}

void TraceEventRecorder::flowEnd(const char *Name, uint64_t Id) {
  if (!armed() || Id == 0)
    return;
  TimelineEvent E;
  E.K = TimelineEvent::Kind::FlowEnd;
  E.Name = Name;
  E.Cat = "flow";
  E.TsNanos = Telemetry::nowNanos();
  E.Id = Id;
  threadRing().push(E);
}

void TraceEventRecorder::setThreadName(const char *Name) {
  if (!armed())
    return;
  detail::EventRing &Ring = threadRing();
  if (!Ring.Name)
    Ring.Name = Name;
}

void TraceEventRecorder::poolQueueAdd(int64_t Delta) {
  if (!armed())
    return;
  get().PoolQueueDepth.fetch_add(Delta, std::memory_order_relaxed);
}

uint64_t TraceEventRecorder::eventCount() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  uint64_t Count = 0;
  for (const auto &Ring : Rings)
    Count += Ring->retained();
  return Count;
}

uint64_t TraceEventRecorder::droppedCount() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  uint64_t Count = 0;
  for (const auto &Ring : Rings)
    Count += Ring->dropped();
  return Count;
}

size_t TraceEventRecorder::numThreadBuffers() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Rings.size();
}

std::string TraceEventRecorder::renderChromeTrace() const {
  std::ostringstream OS;
  std::lock_guard<std::mutex> Lock(Mutex);
  OS << "{\"traceEvents\":[\n";
  bool First = true;
  auto Emit = [&](const std::string &Line) {
    OS << (First ? "" : ",\n") << Line;
    First = false;
  };

  char Buf[256];
  Emit("{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
       "\"args\":{\"name\":\"rprism\"}}");
  for (const auto &Ring : Rings) {
    if (Ring->Total == 0 && !Ring->Name)
      continue;
    std::snprintf(Buf, sizeof(Buf),
                  "{\"ph\":\"M\",\"pid\":1,\"tid\":%u,\"name\":"
                  "\"thread_name\",\"args\":{\"name\":\"%s\"}}",
                  Ring->Tid,
                  Ring->Name
                      ? jsonEscapeEvt(Ring->Name).c_str()
                      : ("thread-" + std::to_string(Ring->Tid)).c_str());
    Emit(Buf);
  }

  uint64_t Dropped = 0;
  for (const auto &Ring : Rings) {
    Dropped += Ring->dropped();
    size_t Retained = Ring->retained();
    // Oldest-first: an unwrapped ring starts at 0; a wrapped one at Head
    // (the slot the next write would overwrite).
    size_t Start = Ring->Total > Ring->Events.size() ? Ring->Head : 0;
    for (size_t I = 0; I != Retained; ++I) {
      const TimelineEvent &E =
          Ring->Events[(Start + I) % Ring->Events.size()];
      double TsMicros =
          E.TsNanos >= ArmNanos
              ? static_cast<double>(E.TsNanos - ArmNanos) / 1e3
              : 0.0;
      std::string Name = jsonEscapeEvt(E.Name);
      std::string Cat = jsonEscapeEvt(E.Cat);
      switch (E.K) {
      case TimelineEvent::Kind::Begin:
        std::snprintf(Buf, sizeof(Buf),
                      "{\"ph\":\"B\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                      "\"name\":\"%s\",\"cat\":\"%s\"}",
                      Ring->Tid, TsMicros, Name.c_str(), Cat.c_str());
        break;
      case TimelineEvent::Kind::End:
        std::snprintf(Buf, sizeof(Buf),
                      "{\"ph\":\"E\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                      "\"name\":\"%s\",\"cat\":\"%s\"}",
                      Ring->Tid, TsMicros, Name.c_str(), Cat.c_str());
        break;
      case TimelineEvent::Kind::Instant:
        std::snprintf(Buf, sizeof(Buf),
                      "{\"ph\":\"i\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                      "\"name\":\"%s\",\"cat\":\"%s\",\"s\":\"t\"}",
                      Ring->Tid, TsMicros, Name.c_str(), Cat.c_str());
        break;
      case TimelineEvent::Kind::Counter:
        std::snprintf(Buf, sizeof(Buf),
                      "{\"ph\":\"C\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                      "\"name\":\"%s\",\"args\":{\"value\":%.3f}}",
                      Ring->Tid, TsMicros, Name.c_str(), E.Value);
        break;
      case TimelineEvent::Kind::FlowStart:
        std::snprintf(Buf, sizeof(Buf),
                      "{\"ph\":\"s\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                      "\"name\":\"%s\",\"cat\":\"%s\",\"id\":%llu}",
                      Ring->Tid, TsMicros, Name.c_str(), Cat.c_str(),
                      static_cast<unsigned long long>(E.Id));
        break;
      case TimelineEvent::Kind::FlowEnd:
        std::snprintf(Buf, sizeof(Buf),
                      "{\"ph\":\"f\",\"bp\":\"e\",\"pid\":1,\"tid\":%u,"
                      "\"ts\":%.3f,\"name\":\"%s\",\"cat\":\"%s\","
                      "\"id\":%llu}",
                      Ring->Tid, TsMicros, Name.c_str(), Cat.c_str(),
                      static_cast<unsigned long long>(E.Id));
        break;
      }
      Emit(Buf);
    }
  }

  OS << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{"
     << "\"tool\":\"rprism\",\"dropped_events\":" << Dropped << "}}\n";
  return OS.str();
}

bool TraceEventRecorder::writeChromeTrace(const std::string &Path) const {
  std::ofstream Out(Path, std::ios::binary);
  if (!Out)
    return false;
  Out << renderChromeTrace();
  return static_cast<bool>(Out);
}
