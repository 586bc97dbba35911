// In-memory span recording for the traced benchmark run, plus the
// KVSelector decorator that times every selector call from outside the
// library.
//
// Spans are kept in one buffer per thread (indexed by the worker pool's
// slot, so a buffer is only ever written by the thread that owns the slot)
// and written out once, after the run. Nothing here is on the untraced
// path: the untraced run hands the scheduler the plain factory, and the
// traced run must reproduce its virtual-clock and quality numbers byte for
// byte, which is what proves the decorator forwards every virtual.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/kv_selector.hpp"
#include "util/common.hpp"
#include "util/parallel.hpp"

namespace perfbench {

using ckv::Index;

/// One timed interval. `parent` is the id of the enclosing frame span
/// (a scheduler tick, or a decode step / prefill in the offline
/// workload); `instance` is the selector instance that recorded it (-1
/// for frame spans), which resolves to a request id at export time.
struct Span {
  const char* name = "";
  const char* layer = "";
  double start_us = 0.0;
  double end_us = 0.0;
  std::int64_t id = -1;
  std::int64_t parent = -1;
  std::int64_t instance = -1;
  int slot = 0;
};

/// ClusterKV's selection traffic summed by the decorator (the kvcache
/// read side and the release count of the write side).
struct SelectionCounts {
  std::int64_t fetched = 0;
  std::int64_t cache_hit = 0;
  std::int64_t prefetch_hit = 0;
  std::int64_t prefetch_issued = 0;
  std::int64_t released = 0;
};

class SpanRecorder {
 public:
  /// Slot 0 is the calling thread, pool threads are 1..workers.
  explicit SpanRecorder(int workers)
      : origin_(std::chrono::steady_clock::now()),
        buffers_(static_cast<std::size_t>(workers) + 1) {}

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Microseconds since the recorder was created.
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  /// A fresh span id, unique across threads.
  std::int64_t next_id() {
    Buffer& b = buffer();
    return (static_cast<std::int64_t>(slot()) << 40) | b.next_id++;
  }

  void record(Span span) {
    span.slot = slot();
    buffer().spans.push_back(span);
  }

  SelectionCounts& counts() { return buffer().counts; }

  /// The frame span that selector calls made from now on nest under.
  /// Set by the driving thread between frames; pool workers only read it
  /// inside a frame, after the pool's own hand-off has ordered the write.
  void set_parent(std::int64_t id) { parent_.store(id, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t parent() const {
    return parent_.load(std::memory_order_relaxed);
  }

  /// Registers a selector instance; the request it serves is bound later
  /// (serving) or immediately (offline).
  std::int64_t add_instance(std::int64_t request) {
    instance_request_.push_back(request);
    return static_cast<std::int64_t>(instance_request_.size()) - 1;
  }
  void bind_instance(std::int64_t instance, std::int64_t request) {
    instance_request_.at(static_cast<std::size_t>(instance)) = request;
  }
  [[nodiscard]] std::int64_t request_of(std::int64_t instance) const {
    return instance < 0 ? -1 : instance_request_.at(static_cast<std::size_t>(instance));
  }

  /// Every span, all threads, in slot order.
  [[nodiscard]] std::vector<Span> all_spans() const {
    std::vector<Span> out;
    for (const Buffer& b : buffers_) {
      out.insert(out.end(), b.spans.begin(), b.spans.end());
    }
    return out;
  }

  [[nodiscard]] SelectionCounts total_counts() const {
    SelectionCounts total;
    for (const Buffer& b : buffers_) {
      total.fetched += b.counts.fetched;
      total.cache_hit += b.counts.cache_hit;
      total.prefetch_hit += b.counts.prefetch_hit;
      total.prefetch_issued += b.counts.prefetch_issued;
      total.released += b.counts.released;
    }
    return total;
  }

 private:
  struct Buffer {
    std::vector<Span> spans;
    std::int64_t next_id = 0;
    SelectionCounts counts;
  };

  static int slot() { return ckv::parallel_worker_slot(); }
  Buffer& buffer() {
    const auto s = static_cast<std::size_t>(slot());
    ckv::expects(s < buffers_.size(), "SpanRecorder: worker slot beyond the pool size");
    return buffers_[s];
  }

  std::chrono::steady_clock::time_point origin_;
  std::vector<Buffer> buffers_;
  std::atomic<std::int64_t> parent_{-1};
  /// Written only by the driving thread (factory calls run in the
  /// scheduler's serial phase; binding runs between ticks).
  std::vector<std::int64_t> instance_request_;
};

/// RAII span around one call.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* name, const char* layer,
             std::int64_t instance)
      : recorder_(recorder) {
    span_.name = name;
    span_.layer = layer;
    span_.instance = instance;
    span_.parent = recorder.parent();
    span_.id = recorder.next_id();
    span_.start_us = recorder.now_us();
  }
  ~ScopedSpan() {
    span_.end_us = recorder_.now_us();
    recorder_.record(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  Span span_;
};

/// Layer name of a selector, keyed by the method it implements.
inline const char* layer_of(const std::string& method) {
  if (method == "ClusterKV") {
    return "core";
  }
  if (method == "Quest") {
    return "baselines.quest";
  }
  if (method == "InfiniGen") {
    return "baselines.infinigen";
  }
  if (method == "Full KV") {
    return "baselines.full_kv";
  }
  return "baselines.other";
}

/// Forwards every KVSelector virtual — the ones with defaults too — to the
/// wrapped selector, timing the calls that do work. A virtual it failed to
/// forward would silently fall back to the base default, so the benchmark
/// compares traced against untraced output and fails on any difference.
class TimedSelector final : public ckv::KVSelector {
 public:
  TimedSelector(std::unique_ptr<ckv::KVSelector> inner, SpanRecorder& recorder,
                std::int64_t instance)
      : inner_(std::move(inner)),
        recorder_(recorder),
        layer_(layer_of(inner_->name())),
        counts_traffic_(std::string_view(layer_) == "core"),
        instance_(instance) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }

  void observe_prefill(const ckv::Matrix& keys, const ckv::Matrix& values) override {
    const ScopedSpan span(recorder_, "observe_prefill", layer_, instance_);
    inner_->observe_prefill(keys, values);
  }

  [[nodiscard]] bool supports_chunked_prefill() const override {
    return inner_->supports_chunked_prefill();
  }

  void observe_prefill_chunk(const ckv::Matrix& keys, const ckv::Matrix& values,
                             bool last_chunk) override {
    const ScopedSpan span(recorder_, "observe_prefill_chunk", layer_, instance_);
    inner_->observe_prefill_chunk(keys, values, last_chunk);
  }

  void observe_decode(std::span<const float> key,
                      std::span<const float> value) override {
    const ScopedSpan span(recorder_, "observe_decode", layer_, instance_);
    inner_->observe_decode(key, value);
  }

  ckv::SelectionResult select(std::span<const float> query, Index budget) override {
    ckv::SelectionResult result;
    {
      const ScopedSpan span(recorder_, "select", layer_, instance_);
      result = inner_->select(query, budget);
    }
    if (counts_traffic_) {
      SelectionCounts& c = recorder_.counts();
      c.fetched += result.tokens_fetched;
      c.cache_hit += result.tokens_cache_hit;
      c.prefetch_hit += result.tokens_prefetch_hit;
      c.prefetch_issued += result.tokens_prefetch_issued;
    }
    return result;
  }

  void observe_attention(std::span<const Index> indices,
                         std::span<const float> probabilities) override {
    const ScopedSpan span(recorder_, "observe_attention", layer_, instance_);
    inner_->observe_attention(indices, probabilities);
  }

  [[nodiscard]] bool is_recallable() const override { return inner_->is_recallable(); }

  [[nodiscard]] Index context_size() const override { return inner_->context_size(); }

  [[nodiscard]] Index fast_resident_tokens() const override {
    return inner_->fast_resident_tokens();
  }

  Index release_fast_tier() override {
    Index moved = 0;
    {
      const ScopedSpan span(recorder_, "release_fast_tier", layer_, instance_);
      moved = inner_->release_fast_tier();
    }
    if (counts_traffic_) {
      recorder_.counts().released += moved;
    }
    return moved;
  }

  Index cancel_prefetches(ckv::obs::FetchCancelReason reason =
                              ckv::obs::FetchCancelReason::kEnforcement) override {
    const ScopedSpan span(recorder_, "cancel_prefetches", layer_, instance_);
    return inner_->cancel_prefetches(reason);
  }

  [[nodiscard]] std::int64_t prefetch_canceled_tokens(
      ckv::obs::FetchCancelReason reason) const override {
    return inner_->prefetch_canceled_tokens(reason);
  }

  void attach_fast_tier_ledger(ckv::FastTierLedger* ledger) override {
    inner_->attach_fast_tier_ledger(ledger);
  }

  void set_degraded_step(bool degraded) override { inner_->set_degraded_step(degraded); }

  [[nodiscard]] std::int64_t instance() const noexcept { return instance_; }
  [[nodiscard]] const ckv::KVSelector& inner() const noexcept { return *inner_; }

 private:
  std::unique_ptr<ckv::KVSelector> inner_;
  SpanRecorder& recorder_;
  const char* layer_;
  bool counts_traffic_;
  std::int64_t instance_;
};

/// Wraps `factory` so every selector it creates is a TimedSelector bound
/// to `request` (-1 = bound later by the caller).
inline ckv::SelectorFactory timed_factory(ckv::SelectorFactory factory,
                                          SpanRecorder& recorder,
                                          std::int64_t request = -1) {
  return [factory = std::move(factory), &recorder, request](Index layer, Index head,
                                                            Index head_dim) {
    return std::make_unique<TimedSelector>(factory(layer, head, head_dim), recorder,
                                           recorder.add_instance(request));
  };
}

}  // namespace perfbench
