// Runs one compression method over a procedural context: prefill feeds all
// per-head selectors, then each decode step selects tokens per head,
// computes approximate attention, and scores it against exact attention.
// This is the measurement harness behind Fig. 9/10/11 and §V-C.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "model/procedural.hpp"
#include "model/selector_bank.hpp"
#include "tensor/stats.hpp"
#include "util/common.hpp"

namespace ckv {

struct DecodeEngineConfig {
  Index budget = 1024;
  /// Leading layers that always use the full KV cache — the paper disables
  /// selection on the first two layers for every method (§V-A); scaled
  /// simulation slices scale this down proportionally.
  Index full_attention_layers = 1;
  /// Feeds attention probabilities back to selectors (H2O needs it).
  bool attention_feedback = false;
};

/// Aggregated measurements of one decode step across selection-active
/// layers/heads.
struct StepResult {
  double mean_recall = 0.0;        ///< |I_T ∩ I_true| / B, Fig. 11 metric
  double mean_coverage = 0.0;      ///< attention mass captured by I_T
  double mean_output_error = 0.0;  ///< relative L2 error of attention output
  Index tokens_selected = 0;
  Index tokens_fetched = 0;        ///< slow-tier fetches (cache misses)
  Index tokens_cache_hit = 0;
  Index tokens_prefetch_hit = 0;     ///< fetches covered by async prefetch
  Index tokens_prefetch_issued = 0;  ///< speculative fetches issued this step
  std::vector<float> features;     ///< last-layer concat of attention outputs
};

/// Head fan-out and its reduction contract. run_prefill, prefill_chunk and
/// decode_step each run one pool task per (layer, head) over the
/// flattened layer-major range (parallel_for) when there is more than one
/// worker and layers x heads is at least the worker count; otherwise they
/// run the heads in order on the caller, so the kernels inside each head
/// keep the whole pool. A task does all of one head's work — its
/// HeadStream, its selector's observe/select calls, the exact attention
/// and the quality measurement — and writes only into that head's own
/// slot; kernels nested inside a task run serially (the pool is not
/// re-entrant). After the region the slots are reduced serially in
/// (layer, head, sub-query) order: token counters, the RunningStat adds
/// behind recall/coverage/error, and the feature vector. Trace events
/// recorded inside a task go to a per-task obs::TraceBuffer under the
/// caller's ambient track and virtual time, and are committed in head
/// order into the caller's open capture scope (or the ring). Every
/// StepResult field, every aggregate and every trace event is therefore
/// bit-identical at any worker count, on either path.
class DecodeEngine {
 public:
  DecodeEngine(ProceduralContextModel& model, const SelectorFactory& factory,
               const DecodeEngineConfig& config);

  /// Feeds the whole prompt KV to every selector in one shot. Must be
  /// called exactly once, before the first decode_step, and must not be
  /// mixed with prefill_chunk.
  void run_prefill();

  /// Feeds the next at most `max_tokens` prompt rows to every selector —
  /// the re-entrant chunked-prefill mirror of decode_next(), letting a
  /// scheduler interleave one prompt chunk per tick with other sessions'
  /// decode steps. Chunk-aware selectors (supports_chunked_prefill())
  /// receive each slice as it lands; chunk-oblivious ones get one
  /// whole-prompt observe_prefill when the final chunk arrives. Returns
  /// tokens consumed (0 once the prompt is exhausted); prefilled() turns
  /// true with the final chunk.
  Index prefill_chunk(Index max_tokens);

  /// Prompt tokens consumed by prefill so far (== prompt_len once
  /// prefilled() is true).
  [[nodiscard]] Index prefill_tokens_done() const noexcept { return prefill_done_; }

  /// Executes decode step `step` (0-based, strictly increasing): appends
  /// one generated token, selects, computes approximate + exact attention,
  /// and returns the step's measurements.
  StepResult decode_step(Index step);

  /// Executes the next decode step — the re-entry point for interleaved
  /// multi-session scheduling, where each session's engine advances
  /// independently one step per scheduler tick.
  StepResult decode_next() { return decode_step(next_step_); }

  [[nodiscard]] bool prefilled() const noexcept { return prefilled_; }
  [[nodiscard]] Index steps_completed() const noexcept { return next_step_; }

  /// Recall/coverage statistics aggregate only *meaningful* steps — steps
  /// where the context exceeded the budget, so the selector actually had
  /// to drop tokens. Steps whose whole context fits the budget recall 1.0
  /// trivially and would dilute any cross-method or cross-schedule
  /// comparison; they are excluded, and recall_steps() exposes the shared
  /// denominator so aggregations can weight sessions comparably.
  [[nodiscard]] const RunningStat& recall_stat() const noexcept { return recall_; }
  /// Number of meaningful (selection-forced) steps recall_stat covers.
  [[nodiscard]] Index recall_steps() const noexcept { return recall_.count(); }
  /// Recall/coverage with vacuous semantics: when no step ever forced the
  /// selector to drop a token there is nothing to miss, so both are 1.0 —
  /// not the empty-stat 0.0, which would make a lossless run read as
  /// catastrophic. Reporting surfaces should use these over the raw stats.
  [[nodiscard]] double mean_recall() const noexcept {
    return recall_.count() > 0 ? recall_.mean() : 1.0;
  }
  [[nodiscard]] double mean_coverage() const noexcept {
    return coverage_.count() > 0 ? coverage_.mean() : 1.0;
  }
  [[nodiscard]] const RunningStat& coverage_stat() const noexcept { return coverage_; }
  [[nodiscard]] const RunningStat& output_error_stat() const noexcept {
    return output_error_;
  }
  [[nodiscard]] std::int64_t total_fetched() const noexcept { return total_fetched_; }
  [[nodiscard]] std::int64_t total_cache_hits() const noexcept {
    return total_cache_hits_;
  }
  /// Fetches whose latency async prefetch overlapped (subset of
  /// total_fetched; 0 for methods without prefetch).
  [[nodiscard]] std::int64_t total_prefetch_hits() const noexcept {
    return total_prefetch_hits_;
  }
  /// Speculative fetches issued in total (hits + waste).
  [[nodiscard]] std::int64_t total_prefetch_issued() const noexcept {
    return total_prefetch_issued_;
  }
  [[nodiscard]] SelectorBank& selectors() noexcept { return bank_; }
  [[nodiscard]] const DecodeEngineConfig& config() const noexcept { return config_; }

 private:
  /// One (layer, head)'s share of a decode step (defined in the .cpp).
  struct HeadStep;

  /// Runs body(layer, head) for every head as one pool task each, then
  /// commits the tasks' trace buffers in head order; in a plain head loop
  /// with one worker or fewer heads than workers (class comment).
  void for_each_head(const std::function<void(Index, Index)>& body);

  /// All of one head's decode-step work; writes only `out` and, on the
  /// last layer, `features` (this head's group_size x head_dim slice).
  void decode_head(Index step, Index layer, Index head, HeadStep& out,
                   std::span<float> features);

  ProceduralContextModel& model_;
  DecodeEngineConfig config_;
  SelectorBank bank_;
  bool prefilled_ = false;
  Index prefill_done_ = 0;
  Index next_step_ = 0;
  RunningStat recall_;
  RunningStat coverage_;
  RunningStat output_error_;
  std::int64_t total_fetched_ = 0;
  std::int64_t total_cache_hits_ = 0;
  std::int64_t total_prefetch_hits_ = 0;
  std::int64_t total_prefetch_issued_ = 0;
};

}  // namespace ckv
