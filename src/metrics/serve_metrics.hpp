// Serving-level metrics aggregation: per-session records (TTFT,
// inter-token latency, queue wait, selection quality, cache hit rate) plus
// fleet-level occupancy and throughput. All times are virtual milliseconds
// assigned by the scheduler from sim/latency_model step costs.
//
// One store per kind of number: every fleet total (a scalar sum) is an
// obs::MetricsRegistry counter and every per-tick level a gauge, read back
// through the registry; the per-session records keep what needs raw
// per-session values (percentiles, step- or session-weighted means). The
// registry itself is exported by `ckv serve --metrics-out` as flat
// JSON/CSV.
#pragma once

#include <string_view>
#include <vector>

#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"
#include "tensor/stats.hpp"
#include "util/common.hpp"

namespace ckv {

/// Completed-session summary: Session fills it as events happen and the
/// scheduler hands it over at retirement. Timestamps are ordered arrival
/// <= admit <= prefill_done <= first_token <= finish, splitting TTFT into
/// queue wait, (chunked) prefill time, and the wait for the first decode
/// tick.
struct SessionRecord {
  Index id = 0;
  Index prompt_len = 0;
  Index decode_len = 0;
  double arrival_ms = 0.0;
  double admit_ms = 0.0;
  double prefill_done_ms = 0.0;
  double first_token_ms = 0.0;
  double finish_ms = 0.0;
  double mean_recall = 0.0;
  /// Meaningful (selection-forced) decode steps behind mean_recall. The
  /// fleet recall aggregate weights sessions by this count, so runs over
  /// the same trace share one denominator regardless of scheduling mode
  /// (chunked vs inline, repair on or off) and sessions with no
  /// selection-forced steps cannot dilute the comparison.
  Index recall_steps = 0;
  double mean_coverage = 0.0;
  double cache_hit_rate = 0.0;
  Index preemptions = 0;
  /// Async-prefetch traffic split (all zero when prefetch is off):
  /// fetched = prefetch_hit_tokens + demand_fetched_tokens; issued counts
  /// speculative fetches (hits + waste). Fleet rates weight sessions by
  /// these token counts, not per-session averages.
  std::int64_t prefetch_hit_tokens = 0;
  std::int64_t prefetch_issued_tokens = 0;
  std::int64_t demand_fetched_tokens = 0;
  /// Waste attribution: issued speculative fetches canceled, split by
  /// cause (obs::FetchCancelReason). Once a session retires every issued
  /// fetch has resolved, so the three components sum to
  /// prefetch_issued_tokens - prefetch_hit_tokens exactly.
  std::int64_t prefetch_canceled_mispredict_tokens = 0;
  std::int64_t prefetch_canceled_enforce_tokens = 0;
  std::int64_t prefetch_canceled_release_tokens = 0;

  // ---- fault injection (all zero on the fault-free path; decode_len is
  // the tokens actually generated, so an aborted session's throughput
  // contribution is what it really produced) ----

  /// True when the session ended via a mid-decode abort.
  bool aborted = false;
  /// Decode steps served in degraded (resident-only) selection mode.
  Index degraded_steps = 0;
  /// Billed fetch-retry attempts and their total backoff stall.
  Index fault_retries = 0;
  double fault_retry_ms = 0.0;
  /// Demand fetches declared dead (retries/deadline exhausted).
  Index dead_fetches = 0;

  /// Time spent queued before admission.
  [[nodiscard]] double queue_wait_ms() const noexcept {
    return admit_ms - arrival_ms;
  }
  /// Time from admission to the final prefill chunk. Under chunked prefill
  /// this spans several ticks and includes the decode work interleaved
  /// with the chunks, not just the prompt's own compute.
  [[nodiscard]] double prefill_ms() const noexcept {
    return prefill_done_ms - admit_ms;
  }
  /// Time from prefill completion to the first generated token (the
  /// scheduling gap before the session's first decode tick).
  [[nodiscard]] double first_decode_wait_ms() const noexcept {
    return first_token_ms - prefill_done_ms;
  }
  /// Time to first token, measured from arrival (== queue_wait_ms() +
  /// prefill_ms() + first_decode_wait_ms()).
  [[nodiscard]] double ttft_ms() const noexcept {
    return first_token_ms - arrival_ms;
  }
  /// Mean inter-token latency over the generation.
  [[nodiscard]] double inter_token_ms() const noexcept {
    return decode_len <= 1 ? 0.0
                           : (finish_ms - first_token_ms) /
                                 static_cast<double>(decode_len - 1);
  }
};

class ServeMetrics {
 public:
  ServeMetrics();
  // The cached handles point into registry_'s maps (node addresses survive
  // a move, not a copy).
  ServeMetrics(const ServeMetrics&) = delete;
  ServeMetrics& operator=(const ServeMetrics&) = delete;
  ServeMetrics(ServeMetrics&&) = default;
  ServeMetrics& operator=(ServeMetrics&&) = default;

  /// Ingests a retired session's record; validates timestamp ordering.
  void record_session(SessionRecord record);

  /// Samples global fast-tier occupancy at a tick boundary (unweighted
  /// per-tick sample, not time-weighted).
  void record_occupancy(std::int64_t fast_bytes);

  /// Records one scheduler tick: its virtual duration, the number of
  /// sessions that made progress (prefill chunks + decode steps), and the
  /// admission-queue depth at the tick boundary.
  void record_tick(double tick_ms, Index running_sessions, Index queued = 0);

  /// Records cluster-repair work billed this tick (virtual ms).
  void record_repair(double repair_ms);

  /// Records one observed inter-token gap (virtual ms between consecutive
  /// decode completions of one session) into the latency histogram.
  void record_decode_gap(double gap_ms);

  /// Records the *wall* time of one tick's advance phase (host
  /// milliseconds spent stepping sessions, parallel fan-out included) and
  /// how the batch was executed: `fanned_out` of the `advanced` sessions
  /// ran as pool tasks, the rest on the exact serial path. Wall time is
  /// the only non-deterministic quantity the scheduler records — billed
  /// virtual time stays the serial per-session composition — so these
  /// counters never feed a quality or billing column.
  void record_advance_wall(double wall_ms, Index fanned_out, Index advanced);

  /// Records the bytes one session demand-fetched in one decode step
  /// (synchronous slow->fast traffic that stalled the step).
  void record_fetch_bytes(std::int64_t bytes);

  // ---- transfer-engine instrumentation (sim/transfer_engine) ----

  /// Records one decode step's engine-modeled demand stall: the virtual ms
  /// the session waited for its demand bytes to reach the front of the
  /// contended slow->fast queue and cross the wire. Grows with queue
  /// position, which is what makes fleet contention visible per session.
  void record_demand_stall(double stall_ms);

  /// Records one tick's wire activity: bytes the engine drained and the
  /// virtual ms the link spent transferring (link utilization numerator).
  void record_transfer_tick(double drained_bytes, double busy_ms);

  /// Records speculative-fetch tokens whose copy had not finished draining
  /// when the selection wanted them (late prefetch: the hit converts back
  /// into demand traffic on the engine's queue).
  void record_late_prefetch(std::int64_t tokens);

  // ---- fault injection (serve.fault_* / serve.retry_* / degraded /
  // shed). Counters register lazily on first nonzero record so the
  // fault-free metrics export stays byte-identical to a pre-fault build.

  /// Records the resolved fate of one faulted demand fetch: `retries`
  /// billed retry attempts costing `penalty_ms` of backoff stall, `dead`
  /// when the fetch was declared dead (the step then degrades). A call
  /// with retries == 0 and !dead is a no-op (fault-free fetch).
  void record_fault_fetch(Index retries, double penalty_ms, bool dead);

  /// Records wire-level transfer retries reported by the engine.
  void record_wire_retries(Index retries);
  /// Records one demand transfer that failed after exhausting wire retries.
  void record_wire_failure();
  /// Records one queued arrival shed after waiting past the plan's bound.
  void record_shed_session();

  /// Fleet fault totals, each read from its registry counter (0 while
  /// the counter is unregistered; reading never registers it, so queries
  /// leave the export untouched).
  [[nodiscard]] Index degraded_steps_total() const noexcept;
  [[nodiscard]] Index fault_aborts_total() const noexcept;
  [[nodiscard]] Index shed_sessions_total() const noexcept;
  [[nodiscard]] Index fault_retries_total() const noexcept;
  [[nodiscard]] double fault_retry_ms_total() const noexcept;
  /// Demand fetches that hit at least one transient fault...
  [[nodiscard]] Index fault_fetch_faults_total() const noexcept;
  /// ...of which this many recovered via retry...
  [[nodiscard]] Index fault_retried_ok_total() const noexcept;
  /// ...and this many were declared dead (== degraded steps, each dead
  /// fetch degrades exactly one step).
  [[nodiscard]] Index dead_fetches_total() const noexcept;
  [[nodiscard]] Index wire_retries_total() const noexcept;
  [[nodiscard]] Index wire_failures_total() const noexcept;

  /// All retired sessions, retirement order.
  [[nodiscard]] const std::vector<SessionRecord>& records() const noexcept {
    return records_;
  }
  /// Retired session count.
  [[nodiscard]] Index sessions() const noexcept {
    return static_cast<Index>(records_.size());
  }
  /// Generated tokens summed over retired sessions.
  [[nodiscard]] std::int64_t total_tokens() const noexcept;
  /// Preemption events summed over retired sessions.
  [[nodiscard]] Index total_preemptions() const noexcept;

  /// Virtual time from the first arrival to the last finish.
  [[nodiscard]] double makespan_ms() const noexcept;

  /// Sustained decode throughput: generated tokens / makespan.
  [[nodiscard]] double throughput_tps() const noexcept;

  /// Percentiles over completed sessions (p in [0, 100]; 0 when none).
  [[nodiscard]] double ttft_percentile(double p) const;
  [[nodiscard]] double inter_token_percentile(double p) const;
  [[nodiscard]] double queue_wait_percentile(double p) const;
  /// Percentile of the prefill span (admit -> last chunk) per session.
  [[nodiscard]] double prefill_percentile(double p) const;
  /// Percentile of the post-prefill wait for the first decode tick.
  [[nodiscard]] double first_decode_wait_percentile(double p) const;
  [[nodiscard]] double mean_queue_wait_ms() const noexcept;

  /// p99 of per-step inter-token gaps from the serve.inter_token_ms
  /// histogram — a tail the per-session mean (inter_token_percentile)
  /// cannot see. 0 until the scheduler feeds gaps via record_decode_gap.
  [[nodiscard]] double inter_token_gap_p99_ms() const;
  /// Largest admission-queue depth sampled at any tick (0 before any).
  [[nodiscard]] Index max_queue_depth() const;

  /// Fleet recall@B: session means weighted by their recall_steps count
  /// (the Fig. 11-style recall signal over every selection-forced decode
  /// step). Sessions that never had to drop a token carry zero weight;
  /// when *no* session ever dropped one the metric is vacuously 1.0 (a
  /// lossless run must not read as zero recall). 0.0 with no sessions.
  [[nodiscard]] double mean_recall() const noexcept;
  /// Total selection-forced steps across retired sessions — the recall
  /// denominator, identical across runs of the same trace.
  [[nodiscard]] std::int64_t recall_steps_total() const noexcept;
  /// Step-weighted like mean_recall (coverage is sampled on the same
  /// selection-forced steps); vacuously 1.0 when nothing was dropped.
  [[nodiscard]] double mean_coverage() const noexcept;
  [[nodiscard]] double mean_cache_hit_rate() const noexcept;

  // ---- async-prefetch totals and rates (token sums over retired sessions) ----

  /// Share of slow-tier fetch traffic covered in flight by prefetch:
  /// Σ prefetch hits / (Σ prefetch hits + Σ demand fetches). Vacuously
  /// 1.0 when sessions exist but nothing was ever fetched (a fleet with
  /// no fetch traffic has nothing to overlap); 0.0 with no sessions.
  [[nodiscard]] double prefetch_hit_rate() const noexcept;
  /// Share of issued speculative fetches the next selection did not use:
  /// (Σ issued - Σ hits) / Σ issued; 0 when nothing was issued.
  [[nodiscard]] double prefetch_waste_rate() const noexcept;
  [[nodiscard]] std::int64_t prefetch_issued_total() const noexcept;
  [[nodiscard]] std::int64_t prefetch_hits_total() const noexcept;

  /// Waste attribution: the share of issued speculative fetches canceled
  /// for the given cause (Σ canceled-for-reason / Σ issued; 0 when
  /// nothing was issued). Once every session has retired the three
  /// components sum to prefetch_waste_rate() exactly — waste is no longer
  /// one unexplained scalar.
  [[nodiscard]] double prefetch_waste_rate(obs::FetchCancelReason reason)
      const noexcept;
  [[nodiscard]] std::int64_t prefetch_canceled_total(
      obs::FetchCancelReason reason) const noexcept;

  /// Cluster-repair cost billed so far (virtual ms) and the tick count
  /// that carried any (bench_serving's repair-cost column).
  [[nodiscard]] double repair_ms_total() const noexcept;
  [[nodiscard]] Index repair_ticks() const noexcept;

  // ---- transfer-engine aggregates (zero for methods other than ClusterKV) ----

  /// Summed engine-modeled demand stall over every decode step, and the
  /// step count behind it (mean stall = total / steps).
  [[nodiscard]] double demand_stall_ms_total() const noexcept;
  [[nodiscard]] std::int64_t demand_stall_steps() const noexcept;
  /// Bytes the transfer engine drained across the run.
  [[nodiscard]] double link_drained_bytes_total() const noexcept;
  /// Virtual ms the modeled wire spent transferring (divide by makespan
  /// for link utilization).
  [[nodiscard]] double link_busy_ms_total() const noexcept;
  /// Prefetch-hit tokens that arrived late (converted back to demand).
  [[nodiscard]] std::int64_t late_prefetch_tokens_total() const noexcept;

  // ---- wall-clock advance-phase accounting (host time, not billed) ----

  /// Total host milliseconds spent in tick advance phases.
  [[nodiscard]] double advance_wall_ms_total() const noexcept;
  /// Session advancements executed as parallel pool tasks / in total.
  [[nodiscard]] std::int64_t fanout_sessions_total() const noexcept;
  [[nodiscard]] std::int64_t advanced_sessions_total() const noexcept;
  /// Share of session advancements that ran on the pool (0 when none ran
  /// at all): how often the headroom guard let the tick fan out.
  [[nodiscard]] double fanout_fraction() const noexcept;

  /// Per-tick samples of global fast-tier occupancy (bytes).
  [[nodiscard]] const RunningStat& occupancy_bytes() const noexcept;
  /// Largest occupancy sample seen (0 before any sample).
  [[nodiscard]] std::int64_t peak_occupancy_bytes() const noexcept;
  /// Per-tick samples of the active batch size.
  [[nodiscard]] const RunningStat& concurrency() const noexcept;

  /// The instrument store behind the aggregates (serve.* namespace):
  /// export with write_json/write_csv, or extend from driver code.
  [[nodiscard]] obs::MetricsRegistry& registry() noexcept { return registry_; }
  [[nodiscard]] const obs::MetricsRegistry& registry() const noexcept {
    return registry_;
  }

 private:
  [[nodiscard]] std::vector<double> collect(double (SessionRecord::*fn)()
                                                const noexcept) const;
  /// Integer value of a registry counter (0 while unregistered).
  [[nodiscard]] std::int64_t count(std::string_view name) const noexcept;

  obs::MetricsRegistry registry_;
  // Cached instrument handles (registry_ map nodes are stable; this
  // class is never copied). Records stay as a vector: exact per-session
  // percentiles and weighted means need the raw values.
  obs::Counter* total_tokens_;
  obs::Counter* total_preemptions_;
  obs::Counter* repair_ms_total_;
  obs::Counter* repair_ticks_;
  obs::Counter* advance_wall_ms_;
  obs::Counter* fanout_sessions_;
  obs::Counter* advanced_sessions_;
  obs::Gauge* occupancy_;
  obs::Gauge* concurrency_;
  obs::Gauge* queue_depth_;
  obs::Gauge* arrival_ms_;
  obs::Gauge* finish_ms_;
  obs::Counter* demand_stall_ms_total_;
  obs::Counter* demand_stall_steps_;
  obs::Counter* link_drained_bytes_;
  obs::Counter* link_busy_ms_;
  obs::Counter* late_prefetch_tokens_;
  obs::Histogram* ttft_hist_;
  obs::Histogram* inter_token_hist_;
  obs::Histogram* fetch_bytes_hist_;
  obs::Histogram* repair_hist_;
  obs::Histogram* demand_stall_hist_;
  std::vector<SessionRecord> records_;
};

}  // namespace ckv
