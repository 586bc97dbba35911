// One serving session: a per-request procedural context plus its own
// DecodeEngine (per-head selector state) and lifecycle. The scheduler owns
// the virtual clock; the session records the timestamps it is handed and
// exposes the fast-tier residency hooks the global budget arbitration
// needs (sum over its per-head stores, release-on-preemption).
//
// Lifecycle: kQueued -> (admit) kPrefilling -> kDecoding -> kFinished.
// Prefill is chunked: admit() only transitions the state; prefill_next()
// consumes one prompt chunk per call, so the scheduler can interleave a
// long admission with other sessions' decode steps. Preemption does not
// change state (and may land mid-prefill): it only moves reclaimable KV
// to the slow tier; the session keeps going and refetches on demand.
//
// The session keeps its own SessionRecord and stamps it as events happen
// (admit, prefill done, first token, finish, preemptions, abort, fault
// bookkeeping); complete_record() adds the engine-derived quality and
// traffic fields once, at retirement.
#pragma once

#include <memory>

#include "metrics/serve_metrics.hpp"
#include "model/decode_engine.hpp"
#include "model/procedural.hpp"
#include "serve/request_queue.hpp"
#include "util/common.hpp"

namespace ckv {

enum class SessionState { kQueued, kPrefilling, kDecoding, kFinished };

[[nodiscard]] const char* to_string(SessionState state) noexcept;

struct SessionConfig {
  SimShape shape;            ///< simulation slice every session runs
  ProceduralParams params;   ///< procedural context statistics
  DecodeEngineConfig engine; ///< budget etc. for the per-session engine
};

/// Bytes of one token's KV entry (key + value) for one head at kFp16Bytes
/// — the single source for all serving byte math (sessions, scheduler
/// projections, bench budget sizing), equal to TieredKVStore::token_bytes.
[[nodiscard]] inline Index session_token_bytes(const SessionConfig& config) noexcept {
  return 2 * config.shape.head_dim * kFp16Bytes;
}

class Session {
 public:
  /// Builds the session's context model and engine (selector state per
  /// layer/head comes from the factory). Construction is cheap relative to
  /// prefill; the heavy work happens chunk by chunk in prefill_next.
  Session(const ServeRequest& request, const SelectorFactory& factory,
          const SessionConfig& config);

  /// The request this session serves (lengths, arrival time, seed).
  [[nodiscard]] const ServeRequest& request() const noexcept { return request_; }
  /// Current lifecycle state (see the diagram in docs/ARCHITECTURE.md).
  [[nodiscard]] SessionState state() const noexcept { return state_; }
  /// Generated tokens so far (0 until the first decode step).
  [[nodiscard]] Index tokens_generated() const noexcept {
    return engine_->steps_completed();
  }
  /// True once decode_len tokens have been generated.
  [[nodiscard]] bool finished() const noexcept {
    return state_ == SessionState::kFinished;
  }

  /// The session's record as stamped so far. Timestamps read -1 until
  /// their event happens (admit_ms while queued, prefill_done_ms while
  /// prefilling, first_token_ms before the first token, finish_ms until
  /// finished); the counters (preemptions, aborted, degraded steps, fault
  /// retries and their backoff, dead fetches) are live. The
  /// engine-derived fields stay zero until complete_record().
  [[nodiscard]] const SessionRecord& record() const noexcept { return record_; }

  /// Retirement: fills the engine-derived fields (recall, recall steps,
  /// coverage, cache hit rate, prefetch hit / issued / demand tokens and
  /// the three cancel reasons) and returns the finished record. Only
  /// valid once finished; call after the final cancel_prefetches so every
  /// issued fetch has resolved.
  const SessionRecord& complete_record();

  /// Admits the session (kQueued -> kPrefilling) without touching the
  /// prompt. `now_ms` is the admission timestamp on the scheduler's clock
  /// (queue wait = now - arrival); feeding the prompt is prefill_next's
  /// job, one chunk per tick.
  void admit(double now_ms);

  /// Consumes the next prompt chunk of at most `chunk_tokens` tokens
  /// (0 = the whole remaining prompt); `completed_ms` is when the chunk's
  /// work lands on the virtual clock. Returns tokens consumed. The final
  /// chunk transitions kPrefilling -> kDecoding and stamps
  /// prefill_done_ms. Only valid while prefilling.
  Index prefill_next(Index chunk_tokens, double completed_ms);

  /// Runs one decode step; `completed_ms` is when the token lands on the
  /// virtual clock (the scheduler knows the tick cost, the session does
  /// not). Transitions to kFinished after decode_len steps. Only valid
  /// once prefill completed.
  StepResult decode_next(double completed_ms);

  /// Mid-decode cancellation (fault injection / client disconnect): ends
  /// the session now (kDecoding -> kFinished) with whatever it generated,
  /// which becomes the record's decode_len. Requires at least one
  /// generated token so finish/first-token timestamps stay ordered; the
  /// scheduler retires the session through the normal path (release,
  /// ledger detach, record) afterwards.
  void abort(double now_ms);

  /// Prompt tokens fed to the engine so far (== prompt_len once decoding).
  [[nodiscard]] Index prefill_tokens_done() const noexcept {
    return engine_->prefill_tokens_done();
  }

  // ---- fast-tier residency ----

  /// Attaches a shared ledger to every tiered per-head store (no-op for
  /// untiered methods, which is why the scheduler also sums sessions).
  void attach_fast_tier_ledger(FastTierLedger* ledger);

  /// Fast-tier bytes this session currently holds, summed over all
  /// per-head selectors at kFp16Bytes.
  [[nodiscard]] std::int64_t fast_resident_bytes() const;

  /// Preemption: every per-head selector releases its reclaimable fast KV
  /// (sinks and pending tokens stay). Returns total tokens offloaded; a
  /// release that moved tokens counts one record().preemptions.
  Index release_fast_tier();

  /// Drops every per-head selector's in-flight speculative fetches
  /// (reserved bytes free, resident KV and cache windows untouched) — the
  /// scheduler's first, cheapest enforcement lever (kEnforcement), also
  /// called at retirement with kSessionRelease so every issued fetch
  /// resolves through an attributed path. Not counted as a preemption.
  /// Returns fetches canceled.
  Index cancel_prefetches(obs::FetchCancelReason reason =
                              obs::FetchCancelReason::kEnforcement);

  // ---- fault injection (all zero / no-ops on the fault-free path) ----

  /// Records the resolved fate of one faulted demand fetch: `retries`
  /// billed attempts costing `penalty_ms` of backoff stall, and, when the
  /// fetch is `dead`, one dead fetch plus degraded mode for the decode
  /// step about to run (every per-head selector falls back to
  /// resident-only selection and issues no slow-tier traffic; counted as
  /// one degraded step).
  void note_fetch_fault(Index retries, double penalty_ms, bool dead);

  /// Disarms degraded mode after the step it covered.
  void clear_degraded_step();

  /// Bytes of `tokens` context tokens held fast across all heads/layers —
  /// the admission projection for methods that pin the whole context.
  [[nodiscard]] std::int64_t context_bytes(Index tokens) const noexcept;

  /// Last time this session made progress (decode step or prefill chunk);
  /// the scheduler's coldness key for preemption victim choice.
  [[nodiscard]] double last_step_ms() const noexcept { return last_step_ms_; }

  // ---- live fetch rates (the scheduler's billing inputs) ----

  /// Lifetime cluster-cache hit rate (hits / (hits + fetches); 0 when the
  /// method never fetches).
  [[nodiscard]] double cache_hit_rate() const;
  /// Share of selected-token traffic fetched synchronously: the billing
  /// split's demand term (equals 1 - cache_hit_rate with prefetch off).
  /// 1.0 before any selection, mirroring cache_hit_rate's pessimism.
  [[nodiscard]] double demand_miss_rate() const;

  /// The per-session decode engine (selector state; testing/metrics hook).
  [[nodiscard]] DecodeEngine& engine() noexcept { return *engine_; }
  [[nodiscard]] const DecodeEngine& engine() const noexcept { return *engine_; }
  /// The configuration this session was built with.
  [[nodiscard]] const SessionConfig& config() const noexcept { return config_; }

 private:
  /// Fetched tokens the prediction missed (fetched - prefetch hits).
  [[nodiscard]] std::int64_t demand_fetched_tokens() const;

  ServeRequest request_;
  SessionConfig config_;
  std::unique_ptr<ProceduralContextModel> model_;
  std::unique_ptr<DecodeEngine> engine_;
  SessionState state_ = SessionState::kQueued;
  SessionRecord record_;
  double last_step_ms_ = -1.0;
};

}  // namespace ckv
