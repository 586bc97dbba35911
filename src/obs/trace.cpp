#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>

namespace ckv::obs {

namespace {

/// Per-thread ambient context. The tracer is a process-global singleton
/// but its cursor must not be: sessions advancing concurrently on pool
/// workers each set the track/time of the session they are stepping, and
/// a shared atomic cursor would interleave them onto whichever track was
/// written last. Microseconds to match TraceEvent::virtual_us.
thread_local double t_virtual_now_us = 0.0;
thread_local std::int64_t t_track = 0;
/// Active per-item capture buffer (nullptr: records go to the ring).
thread_local TraceBuffer* t_capture = nullptr;

}  // namespace

void Tracer::set_virtual_now_ms(double now_ms) noexcept {
  t_virtual_now_us = now_ms * 1000.0;
}

double Tracer::virtual_now_ms() const noexcept { return t_virtual_now_us / 1000.0; }

void Tracer::set_track(std::int64_t track) noexcept { t_track = track; }

std::int64_t Tracer::track() const noexcept { return t_track; }

Tracer::Ambient Tracer::ambient() const noexcept { return {t_track, t_virtual_now_us}; }

void Tracer::set_ambient(const Ambient& ambient) noexcept {
  t_track = ambient.track;
  t_virtual_now_us = ambient.virtual_now_us;
}

const char* to_string(FetchCancelReason reason) noexcept {
  switch (reason) {
    case FetchCancelReason::kMisprediction:
      return "misprediction";
    case FetchCancelReason::kEnforcement:
      return "enforcement";
    case FetchCancelReason::kSessionRelease:
      return "session-release";
  }
  return "unknown";
}

void Tracer::enable(std::size_t capacity) {
  expects(capacity > 0, "Tracer::enable: capacity must be positive");
  const LockGuard lock(mutex_);
  ring_.assign(capacity, TraceEvent{});
  head_ = 0;
  size_ = 0;
  dropped_ = 0;
  names_.clear();
  ids_.clear();
  track_names_.clear();
  enabled_.store(true, std::memory_order_relaxed);
}

void Tracer::disable() noexcept {
  enabled_.store(false, std::memory_order_relaxed);
  const LockGuard lock(mutex_);
  ring_.clear();
  ring_.shrink_to_fit();
  head_ = 0;
  size_ = 0;
}

void Tracer::set_track_name(std::int64_t track, const std::string& name) {
  if (!enabled()) {
    return;
  }
  const LockGuard lock(mutex_);
  track_names_[track] = name;
}

std::uint16_t Tracer::intern_locked(const char* name) {
  const auto it = ids_.find(name);
  if (it != ids_.end()) {
    return it->second;
  }
  // Interned ids are 16-bit; the event vocabulary is a few dozen static
  // strings, so saturating at the cap (and aliasing to one overflow name)
  // beats aborting a long traced run.
  if (names_.size() >= TraceEvent::kNoArg) {
    return static_cast<std::uint16_t>(names_.size() - 1);
  }
  const auto id = static_cast<std::uint16_t>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(name, id);
  return id;
}

Tracer::CaptureScope::CaptureScope(TraceBuffer& buffer) noexcept : previous_(t_capture) {
  t_capture = &buffer;
}

Tracer::CaptureScope::~CaptureScope() { t_capture = previous_; }

void Tracer::record(TraceEvent::Phase phase, const char* name, std::int64_t track,
                    double virtual_ms, std::initializer_list<Arg> args) {
  const auto wall = std::chrono::steady_clock::now().time_since_epoch();
  TraceBuffer::Pending pending{};
  pending.phase = phase;
  pending.name = name;
  pending.track = track;
  pending.virtual_ms = virtual_ms;
  pending.wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(wall).count());
  int slot = 0;
  for (const Arg& arg : args) {
    if (slot >= 2) {
      break;
    }
    pending.arg_names[slot] = arg.name;
    pending.args[slot] = arg.value;
    ++slot;
  }
  if (t_capture != nullptr) {
    t_capture->events_.push_back(pending);
    return;
  }
  const LockGuard lock(mutex_);
  append_locked(pending);
}

void Tracer::commit(TraceBuffer& buffer) {
  if (buffer.events_.empty()) {
    return;
  }
  expects(t_capture != &buffer, "Tracer::commit: buffer is the active capture");
  if (t_capture != nullptr) {
    t_capture->events_.insert(t_capture->events_.end(), buffer.events_.begin(),
                              buffer.events_.end());
  } else {
    const LockGuard lock(mutex_);
    for (const TraceBuffer::Pending& pending : buffer.events_) {
      append_locked(pending);
    }
  }
  buffer.events_.clear();
}

void Tracer::append_locked(const TraceBuffer::Pending& pending) {
  if (!enabled_.load(std::memory_order_relaxed) || ring_.empty()) {
    return;  // lost the race with disable()
  }
  TraceEvent event;
  event.phase = pending.phase;
  event.track = pending.track;
  event.virtual_us = pending.virtual_ms * 1000.0;
  event.wall_ns = pending.wall_ns;
  event.name = intern_locked(pending.name);
  for (int slot = 0; slot < 2; ++slot) {
    if (pending.arg_names[slot] != nullptr) {
      event.arg_names[slot] = intern_locked(pending.arg_names[slot]);
      event.args[slot] = pending.args[slot];
    }
  }
  ring_[head_] = event;
  head_ = (head_ + 1) % ring_.size();
  if (size_ < ring_.size()) {
    ++size_;
  } else {
    ++dropped_;  // overwrote the oldest event
  }
}

std::vector<TraceEvent> Tracer::events() const {
  const LockGuard lock(mutex_);
  std::vector<TraceEvent> out;
  out.reserve(size_);
  // Oldest first: when full, the oldest slot is head_ (the next overwrite
  // target); otherwise the ring starts at 0.
  const std::size_t begin = size_ == ring_.size() ? head_ : 0;
  for (std::size_t i = 0; i < size_; ++i) {
    out.push_back(ring_[(begin + i) % ring_.size()]);
  }
  return out;
}

std::size_t Tracer::size() const {
  const LockGuard lock(mutex_);
  return size_;
}

std::size_t Tracer::capacity() const {
  const LockGuard lock(mutex_);
  return ring_.size();
}

std::uint64_t Tracer::dropped() const {
  const LockGuard lock(mutex_);
  return dropped_;
}

std::string Tracer::name_of(std::uint16_t id) const {
  const LockGuard lock(mutex_);
  return id < names_.size() ? names_[id] : std::string{};
}

namespace {

/// Minimal JSON string escaping (event names are controlled identifiers,
/// but track names may carry arbitrary text).
std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

char phase_letter(TraceEvent::Phase phase) noexcept {
  switch (phase) {
    case TraceEvent::Phase::kBegin:
      return 'B';
    case TraceEvent::Phase::kEnd:
      return 'E';
    case TraceEvent::Phase::kInstant:
      return 'i';
    case TraceEvent::Phase::kCounter:
      return 'C';
  }
  return 'i';
}

std::string format_ts(double us) {
  // Chrome ts is microseconds; fixed notation keeps the validator's float
  // parsing trivial and diff-friendly.
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", us);
  return buf;
}

}  // namespace

void Tracer::write_chrome_trace(std::ostream& out) const {
  std::vector<TraceEvent> sorted;
  std::uint64_t dropped_events = 0;
  std::map<std::int64_t, std::string> track_names;
  std::vector<std::string> names;
  {
    const LockGuard lock(mutex_);
    sorted.reserve(size_);
    const std::size_t begin = size_ == ring_.size() && !ring_.empty() ? head_ : 0;
    for (std::size_t i = 0; i < size_; ++i) {
      sorted.push_back(ring_[(begin + i) % ring_.size()]);
    }
    dropped_events = dropped_;
    track_names = track_names_;
    names = names_;
  }
  // Stable sort by (track, ts): per-track timestamps become monotone and
  // same-timestamp events keep emission order, so a zero-duration span's
  // B still precedes its E and nesting survives the sort.
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.track != b.track ? a.track < b.track
                                               : a.virtual_us < b.virtual_us;
                   });

  out << "{\n\"displayTimeUnit\": \"ms\",\n";
  out << "\"otherData\": {\"clock\": \"virtual (scheduler) time; wall_ns args "
         "carry the wall-clock dual\", \"dropped_events\": "
      << dropped_events << "},\n";
  out << "\"traceEvents\": [\n";
  bool first = true;
  for (const auto& [track, label] : track_names) {
    if (!first) {
      out << ",\n";
    }
    first = false;
    out << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": "
        << track << ", \"args\": {\"name\": \"" << json_escape(label) << "\"}}";
  }
  for (const TraceEvent& event : sorted) {
    if (!first) {
      out << ",\n";
    }
    first = false;
    const std::string name =
        event.name < names.size() ? names[event.name] : std::string("?");
    out << "{\"name\": \"" << json_escape(name) << "\", \"ph\": \""
        << phase_letter(event.phase) << "\", \"pid\": 0, \"tid\": " << event.track
        << ", \"ts\": " << format_ts(event.virtual_us);
    if (event.phase == TraceEvent::Phase::kInstant) {
      out << ", \"s\": \"t\"";
    }
    out << ", \"args\": {\"wall_ns\": " << event.wall_ns;
    for (int slot = 0; slot < 2; ++slot) {
      if (event.arg_names[slot] != TraceEvent::kNoArg) {
        const std::string arg_name = event.arg_names[slot] < names.size()
                                         ? names[event.arg_names[slot]]
                                         : std::string("?");
        out << ", \"" << json_escape(arg_name) << "\": " << event.args[slot];
      }
    }
    out << "}}";
  }
  out << "\n]\n}\n";
}

Tracer& tracer() noexcept {
  static Tracer instance;
  return instance;
}

}  // namespace ckv::obs
