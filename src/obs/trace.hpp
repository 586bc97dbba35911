// Structured event tracer for the serving stack: a ring-buffer of spans,
// instants and counter samples stamped on the scheduler's *virtual* clock
// (the timeline every quality/latency metric lives on) with a wall-clock
// dual per event (what the host actually spent). Near-zero cost when
// disabled: every record call is one relaxed atomic load and a branch —
// no allocation, no lock, no clock read — so instrumentation can stay in
// the hot path permanently. docs/OBSERVABILITY.md documents the event
// schema, the clock semantics and the overhead contract.
//
// Call-site model: scheduler-level code owns the ambient context (current
// virtual time + current track, one track per session plus track 0 for
// the scheduler itself); leaf code (tiered store fetches, repair passes,
// prefetch issue) records instants against that ambient context without
// knowing whose step it is running inside. The ambient context is
// *per-thread*: when the scheduler fans session steps out to the worker
// pool, each worker sets the context of the session it is advancing, so
// leaf instants from concurrent steps land on their own session's track
// instead of clobbering one global cursor. The exporter emits Chrome
// trace-event JSON loadable in Perfetto / chrome://tracing, validated in
// CI by tools/check_trace.py.
#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "util/common.hpp"
#include "util/thread_safety.hpp"

namespace ckv::obs {

/// Why an issued speculative (prefetch) slow->fast copy was dropped.
/// Carried on tiered-store cancel events and summed per reason into the
/// serving waste attribution (SessionRecord / ServeMetrics), so the
/// aggregate prefetch_waste_rate decomposes into causes instead of one
/// unexplained scalar.
enum class FetchCancelReason : std::uint8_t {
  kMisprediction = 0,   ///< the next selection did not use the issued copy
  kEnforcement = 1,     ///< budget enforcement reclaimed the reservation
  kSessionRelease = 2,  ///< the session retired/released mid-flight
};
inline constexpr int kFetchCancelReasonCount = 3;

[[nodiscard]] const char* to_string(FetchCancelReason reason) noexcept;

/// Trace-track id namespace: track 0 is the scheduler, 1 + request id is
/// that session's track, and kWorkerTrackBase + slot carries the pool
/// workers' fan-out spans (slot 0 is the calling thread). The base is far
/// above any plausible request id so the spaces cannot collide.
inline constexpr std::int64_t kWorkerTrackBase = std::int64_t{1} << 20;

/// Dedicated track for the slow->fast transfer engine's link spans
/// (sim/transfer_engine): one below the worker base, far above any
/// session track, so the wire's occupancy renders as its own lane in
/// Perfetto without colliding with either namespace.
inline constexpr std::int64_t kTransferTrack = kWorkerTrackBase - 1;

/// One recorded event. Virtual timestamps are microseconds on the
/// scheduler clock (Chrome's native "ts" unit); wall_ns is the
/// steady-clock dual taken at record time. Names and argument names are
/// interned ids (Tracer::name_of resolves them).
struct TraceEvent {
  enum class Phase : std::uint8_t {
    kBegin,    ///< span open ("B")
    kEnd,      ///< span close ("E")
    kInstant,  ///< point event ("i")
    kCounter,  ///< counter sample ("C")
  };
  static constexpr std::uint16_t kNoArg = 0xffff;

  Phase phase = Phase::kInstant;
  std::uint16_t name = 0;
  std::uint16_t arg_names[2] = {kNoArg, kNoArg};
  std::int64_t track = 0;
  double virtual_us = 0.0;
  std::uint64_t wall_ns = 0;
  std::int64_t args[2] = {0, 0};
};

/// Events recorded on one thread while it captures into this buffer
/// (Tracer::CaptureScope), held back from the shared ring until
/// Tracer::commit appends them. The scheduler gives every advance item
/// one buffer and commits them in item order, so leaf events from
/// concurrently advancing sessions reach the ring in the serial order at
/// any worker count. DecodeEngine nests the same scheme one level down:
/// one buffer per (layer, head) task, committed in head order into the
/// enclosing item's buffer (or the ring when nothing captures). Names
/// stay unresolved until commit (they are static strings), so name
/// interning order is deterministic too.
class TraceBuffer {
 private:
  friend class Tracer;
  struct Pending {
    TraceEvent::Phase phase;
    const char* name;
    std::int64_t track;
    double virtual_ms;
    std::uint64_t wall_ns;
    const char* arg_names[2];
    std::int64_t args[2];
  };
  std::vector<Pending> events_;
};

/// Ring-buffer tracer. Disabled by default: the buffer is not allocated
/// and record calls return after one branch. enable() allocates a
/// fixed-capacity ring; on overflow the oldest events are dropped (the
/// most recent window is the one worth keeping at the end of a run) and
/// the drop count is reported in the export so validators can tell a
/// truncated trace from a malformed one.
///
/// Thread-safety: record paths take an internal mutex only when enabled,
/// and the ambient context (track + virtual now) is thread_local — each
/// pool worker advancing a session under the scheduler's parallel fan-out
/// carries its own cursor, so concurrent steps' leaf events land on
/// coherent per-session tracks. Those steps capture their events into
/// per-item TraceBuffers that the serial commit phase appends in item
/// order, so the ring order of every non-worker event is the same at any
/// worker count; only the pool's own occupancy spans (worker tracks) are
/// recorded in wall-clock order.
class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 18;

  struct Arg {
    const char* name;
    std::int64_t value;
  };

  /// Allocates the ring (dropping any previously recorded events) and
  /// turns recording on.
  void enable(std::size_t capacity = kDefaultCapacity);

  /// Turns recording off and frees the ring. Recorded events are
  /// discarded; export before disabling.
  void disable() noexcept;

  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  // ---- ambient context (set by the scheduler, read by leaf records) ----
  // Per-thread state: a fan-out worker's set_track/set_virtual_now_ms only
  // affects records made from that worker, never the scheduler thread's
  // cursor or a sibling worker's.

  void set_virtual_now_ms(double now_ms) noexcept;
  [[nodiscard]] double virtual_now_ms() const noexcept;
  /// Track 0 is the scheduler; sessions use 1 + session id; pool workers
  /// use kWorkerTrackBase + slot.
  void set_track(std::int64_t track) noexcept;
  [[nodiscard]] std::int64_t track() const noexcept;

  /// The whole ambient context of one thread. A fan-out task that records
  /// on behalf of its caller copies the caller's ambient() and installs it
  /// with set_ambient() — an exact copy, where a virtual_now_ms() round
  /// trip could move the timestamp's last bit.
  struct Ambient {
    std::int64_t track = 0;
    double virtual_now_us = 0.0;
  };
  [[nodiscard]] Ambient ambient() const noexcept;
  void set_ambient(const Ambient& ambient) noexcept;

  /// Human-readable track label, exported as Chrome thread-name metadata.
  void set_track_name(std::int64_t track, const std::string& name);

  // ---- recording (ambient track/time unless _at variant) ----
  // Event and argument names must have static storage (string literals):
  // a captured event keeps the pointer until Tracer::commit interns it.

  void begin(const char* name, std::initializer_list<Arg> args = {}) {
    if (enabled()) {
      record(TraceEvent::Phase::kBegin, name, track(), virtual_now_ms(), args);
    }
  }
  void begin_at(const char* name, std::int64_t track, double virtual_ms,
                std::initializer_list<Arg> args = {}) {
    if (enabled()) {
      record(TraceEvent::Phase::kBegin, name, track, virtual_ms, args);
    }
  }
  void end(const char* name, std::initializer_list<Arg> args = {}) {
    if (enabled()) {
      record(TraceEvent::Phase::kEnd, name, track(), virtual_now_ms(), args);
    }
  }
  void end_at(const char* name, std::int64_t track, double virtual_ms,
              std::initializer_list<Arg> args = {}) {
    if (enabled()) {
      record(TraceEvent::Phase::kEnd, name, track, virtual_ms, args);
    }
  }
  void instant(const char* name, std::initializer_list<Arg> args = {}) {
    if (enabled()) {
      record(TraceEvent::Phase::kInstant, name, track(), virtual_now_ms(), args);
    }
  }
  void instant_at(const char* name, std::int64_t track, double virtual_ms,
                  std::initializer_list<Arg> args = {}) {
    if (enabled()) {
      record(TraceEvent::Phase::kInstant, name, track, virtual_ms, args);
    }
  }
  void counter(const char* name, std::int64_t value) {
    if (enabled()) {
      record(TraceEvent::Phase::kCounter, name, 0, virtual_now_ms(),
             {{name, value}});
    }
  }

  // ---- per-item capture (deterministic ring order under fan-out) ----

  /// Routes the calling thread's records into `buffer` instead of the
  /// ring for the scope's lifetime (restoring any enclosing capture).
  /// Costs one thread-local store each way and allocates nothing while
  /// the tracer is disabled, since disabled record calls never run.
  class CaptureScope {
   public:
    explicit CaptureScope(TraceBuffer& buffer) noexcept;
    ~CaptureScope();
    CaptureScope(const CaptureScope&) = delete;
    CaptureScope& operator=(const CaptureScope&) = delete;

   private:
    TraceBuffer* previous_;
  };

  /// Appends the buffered events, in recording order, to the calling
  /// thread's active capture buffer when a CaptureScope is open, and to
  /// the ring otherwise; then empties the buffer. A no-op for an empty
  /// buffer. Capture therefore nests: a fan-out inside a captured item
  /// (DecodeEngine's per-head tasks inside a scheduler advance item)
  /// commits its task buffers in task order into the item's buffer, and
  /// the item's commit carries them to the ring in item order. `buffer`
  /// must not be the calling thread's active capture buffer.
  void commit(TraceBuffer& buffer);

  // ---- inspection / export ----

  /// Recorded events, oldest first (at most `capacity` of them).
  [[nodiscard]] std::vector<TraceEvent> events() const;
  /// Events currently held in the ring.
  [[nodiscard]] std::size_t size() const;
  /// Ring capacity (0 while disabled).
  [[nodiscard]] std::size_t capacity() const;
  /// Events discarded to overflow since enable().
  [[nodiscard]] std::uint64_t dropped() const;
  /// Resolves an interned name id ("" for out-of-range ids).
  [[nodiscard]] std::string name_of(std::uint16_t id) const;

  /// Writes the Chrome trace-event JSON ("traceEvents" array plus
  /// metadata), events stably sorted by (track, virtual ts) so per-track
  /// timestamps are monotone and span begin/end pairs stay balanced —
  /// exactly what tools/check_trace.py validates. Wall-clock duals ride
  /// in each event's args as "wall_ns".
  void write_chrome_trace(std::ostream& out) const;

 private:
  void record(TraceEvent::Phase phase, const char* name, std::int64_t track,
              double virtual_ms, std::initializer_list<Arg> args);
  void append_locked(const TraceBuffer::Pending& pending) CKV_REQUIRES(mutex_);
  std::uint16_t intern_locked(const char* name) CKV_REQUIRES(mutex_);

  std::atomic<bool> enabled_{false};

  // Every record/export path locks mutex_ internally; the capability
  // annotations make the clang CI leg reject any new code path that
  // touches the ring or the intern tables without it.
  mutable Mutex mutex_;
  std::vector<TraceEvent> ring_ CKV_GUARDED_BY(mutex_);
  std::size_t head_ CKV_GUARDED_BY(mutex_) = 0;  ///< next write slot
  std::size_t size_ CKV_GUARDED_BY(mutex_) = 0;
  std::uint64_t dropped_ CKV_GUARDED_BY(mutex_) = 0;
  /// id -> name
  std::vector<std::string> names_ CKV_GUARDED_BY(mutex_);
  /// name -> id
  std::map<std::string, std::uint16_t> ids_ CKV_GUARDED_BY(mutex_);
  std::map<std::int64_t, std::string> track_names_ CKV_GUARDED_BY(mutex_);
};

/// The process-global tracer every instrumented layer records into.
/// Disabled unless a driver (ckv serve --trace, bench_serving --trace,
/// tests) enables it.
[[nodiscard]] Tracer& tracer() noexcept;

}  // namespace ckv::obs
