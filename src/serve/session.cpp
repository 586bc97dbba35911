#include "serve/session.hpp"

namespace ckv {

const char* to_string(SessionState state) noexcept {
  switch (state) {
    case SessionState::kQueued:
      return "queued";
    case SessionState::kPrefilling:
      return "prefilling";
    case SessionState::kDecoding:
      return "decoding";
    case SessionState::kFinished:
      return "finished";
  }
  return "unknown";
}

Session::Session(const ServeRequest& request, const SelectorFactory& factory,
                 const SessionConfig& config)
    : request_(request), config_(config) {
  expects(request.prompt_len > 0, "Session: prompt_len must be positive");
  expects(request.decode_len > 0, "Session: decode_len must be positive");
  model_ = std::make_unique<ProceduralContextModel>(config.shape, config.params,
                                                    request.seed, request.prompt_len);
  engine_ = std::make_unique<DecodeEngine>(*model_, factory, config.engine);
  record_.id = request.id;
  record_.prompt_len = request.prompt_len;
  record_.decode_len = request.decode_len;
  record_.arrival_ms = request.arrival_ms;
  record_.admit_ms = -1.0;
  record_.prefill_done_ms = -1.0;
  record_.first_token_ms = -1.0;
  record_.finish_ms = -1.0;
}

const SessionRecord& Session::complete_record() {
  expects(finished(), "Session::complete_record: session has not finished");
  record_.mean_recall = engine_->mean_recall();
  record_.recall_steps = engine_->recall_steps();
  record_.mean_coverage = engine_->mean_coverage();
  record_.cache_hit_rate = cache_hit_rate();
  record_.prefetch_hit_tokens = engine_->total_prefetch_hits();
  record_.prefetch_issued_tokens = engine_->total_prefetch_issued();
  record_.demand_fetched_tokens = demand_fetched_tokens();
  using obs::FetchCancelReason;
  std::int64_t mispredict = 0;
  std::int64_t enforce = 0;
  std::int64_t release = 0;
  engine_->selectors().for_each([&](const KVSelector& selector) {
    mispredict += selector.prefetch_canceled_tokens(FetchCancelReason::kMisprediction);
    enforce += selector.prefetch_canceled_tokens(FetchCancelReason::kEnforcement);
    release += selector.prefetch_canceled_tokens(FetchCancelReason::kSessionRelease);
  });
  record_.prefetch_canceled_mispredict_tokens = mispredict;
  record_.prefetch_canceled_enforce_tokens = enforce;
  record_.prefetch_canceled_release_tokens = release;
  return record_;
}

void Session::admit(double now_ms) {
  expects(state_ == SessionState::kQueued, "Session::admit: already admitted");
  expects(now_ms >= request_.arrival_ms, "Session::admit: admitted before arrival");
  state_ = SessionState::kPrefilling;
  record_.admit_ms = now_ms;
}

Index Session::prefill_next(Index chunk_tokens, double completed_ms) {
  expects(state_ == SessionState::kPrefilling,
          "Session::prefill_next: session is not prefilling");
  expects(chunk_tokens >= 0, "Session::prefill_next: negative chunk");
  const Index max_tokens =
      chunk_tokens == 0 ? request_.prompt_len : chunk_tokens;
  const Index consumed = engine_->prefill_chunk(max_tokens);
  last_step_ms_ = completed_ms;
  if (engine_->prefilled()) {
    record_.prefill_done_ms = completed_ms;
    state_ = SessionState::kDecoding;
  }
  return consumed;
}

StepResult Session::decode_next(double completed_ms) {
  expects(state_ == SessionState::kDecoding,
          "Session::decode_next: session is not decoding");
  StepResult result = engine_->decode_next();
  last_step_ms_ = completed_ms;
  if (record_.first_token_ms < 0.0) {
    record_.first_token_ms = completed_ms;
  }
  if (engine_->steps_completed() >= request_.decode_len) {
    state_ = SessionState::kFinished;
    record_.finish_ms = completed_ms;
  }
  return result;
}

void Session::abort(double now_ms) {
  expects(state_ == SessionState::kDecoding,
          "Session::abort: only a decoding session can abort mid-decode");
  expects(tokens_generated() >= 1,
          "Session::abort: abort lands after a committed decode step");
  state_ = SessionState::kFinished;
  record_.finish_ms = now_ms;
  record_.aborted = true;
  // Throughput and inter-token math count the tokens actually produced,
  // not the request's never-reached target.
  record_.decode_len = tokens_generated();
}

void Session::note_fetch_fault(Index retries, double penalty_ms, bool dead) {
  record_.fault_retries += retries;
  record_.fault_retry_ms += penalty_ms;
  if (dead) {
    ++record_.dead_fetches;
    ++record_.degraded_steps;
    engine_->selectors().for_each(
        [](KVSelector& selector) { selector.set_degraded_step(true); });
  }
}

void Session::clear_degraded_step() {
  engine_->selectors().for_each(
      [](KVSelector& selector) { selector.set_degraded_step(false); });
}

void Session::attach_fast_tier_ledger(FastTierLedger* ledger) {
  engine_->selectors().for_each(
      [ledger](KVSelector& selector) { selector.attach_fast_tier_ledger(ledger); });
}

std::int64_t Session::fast_resident_bytes() const {
  std::int64_t tokens = 0;
  engine_->selectors().for_each([&tokens](const KVSelector& selector) {
    tokens += selector.fast_resident_tokens();
  });
  return tokens * session_token_bytes(config_);
}

Index Session::release_fast_tier() {
  Index moved = 0;
  engine_->selectors().for_each(
      [&moved](KVSelector& selector) { moved += selector.release_fast_tier(); });
  if (moved > 0) {
    ++record_.preemptions;
  }
  return moved;
}

Index Session::cancel_prefetches(obs::FetchCancelReason reason) {
  Index canceled = 0;
  engine_->selectors().for_each([&canceled, reason](KVSelector& selector) {
    canceled += selector.cancel_prefetches(reason);
  });
  return canceled;
}

std::int64_t Session::context_bytes(Index tokens) const noexcept {
  return static_cast<std::int64_t>(tokens) * session_token_bytes(config_) *
         config_.shape.total_heads();
}

double Session::cache_hit_rate() const {
  const double total = static_cast<double>(engine_->total_cache_hits()) +
                       static_cast<double>(engine_->total_fetched());
  return total <= 0.0 ? 0.0
                      : static_cast<double>(engine_->total_cache_hits()) / total;
}

std::int64_t Session::demand_fetched_tokens() const {
  return engine_->total_fetched() - engine_->total_prefetch_hits();
}

double Session::demand_miss_rate() const {
  const double total = static_cast<double>(engine_->total_cache_hits()) +
                       static_cast<double>(engine_->total_fetched());
  return total <= 0.0 ? 1.0 : static_cast<double>(demand_fetched_tokens()) / total;
}

}  // namespace ckv
