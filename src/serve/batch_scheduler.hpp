// Continuous-batching scheduler over per-session ClusterKV engines, with
// vLLM-style chunked prefill. Each tick:
//   1. admits queued sessions in FIFO order while their projected fast-tier
//      footprint fits the global HBM byte budget (admission only changes
//      state — the prompt is consumed chunk by chunk in later ticks);
//   2. advances every running session once: prefilling sessions consume one
//      prompt chunk of prefill_chunk_tokens, decoding sessions run one
//      decode step round-robin. The tick bills a mixed prefill+decode cost:
//      decoders share one weight pass and one framework overhead, each adds
//      its private KV-read / selection cost (ClusterKV demand fetches queue
//      on one contended slow->fast wire, sim/transfer_engine, whose backlog
//      the tick bills), and each prefill chunk adds its causal-prefix
//      attention + GEMM compute (plus visible
//      clustering overhead for ClusterKV; the final chunk of a multi-chunk
//      prompt also bills one cross-chunk cluster-repair pass, as does every
//      repair_decode_interval-th decode step when periodic repair is on);
//   3. enforces the budget: while global residency exceeds it, the coldest
//      session (least recent progress) offloads its non-sink, non-pending
//      clusters to the slow tier (sinks are never offloaded). This holds
//      mid-prefill too — already-clustered prompt chunks are reclaimable.
//
// The full scheduling model (tick lifecycle, cost accounting, knobs) is
// documented in docs/ARCHITECTURE.md and docs/SCHEDULING.md.
//
// The virtual clock composes sim/latency_model step costs, so tick
// durations reflect the full-size model the slice stands in for; residency
// bytes stay at slice scale, matching the configured budget.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/clusterkv_engine.hpp"
#include "kvcache/tiered_store.hpp"
#include "metrics/serve_metrics.hpp"
#include "obs/trace.hpp"
#include "serve/request_queue.hpp"
#include "serve/session.hpp"
#include "sim/fault_injector.hpp"
#include "sim/latency_model.hpp"
#include "sim/transfer_engine.hpp"
#include "util/common.hpp"
#include "util/thread_safety.hpp"

namespace ckv {

struct BatchSchedulerConfig {
  /// Global fast-tier (HBM) byte budget summed over all running sessions'
  /// residency, at slice scale. 0 = unlimited.
  std::int64_t fast_tier_budget_bytes = 0;
  /// Hard cap on concurrently running sessions (0 = unlimited).
  Index max_running = 0;
  /// Latency composition for the virtual clock.
  LatencyModel::Method method = LatencyModel::Method::kClusterKV;
  /// True for methods with a tiered store (ClusterKV, which requires it):
  /// admission projects the bounded working-set floor instead of the full
  /// context.
  bool tiered_residency = false;
  /// Floor parameters when tiered_residency (match the engine's config).
  Index sink_tokens = 16;
  Index decode_interval = 320;
  Index cache_depth = 1;
  /// Cluster granularity for ClusterKV step costs (match the engine's
  /// config: the latency model bills centroid scoring per live cluster).
  Index tokens_per_cluster = 80;
  /// Admission overcommit: reservations may sum to budget * overcommit
  /// while *actual* residency is still enforced to the plain budget by
  /// preempting cold sessions. 1.0 = reserve true peaks (no preemption
  /// ever needed); > 1.0 trades preemption churn for utilization. Only
  /// meaningful with tiered_residency — untiered sessions cannot release
  /// anything, so overcommitting them would make the budget unenforceable.
  double admission_overcommit = 1.0;
  /// Prompt tokens a prefilling session consumes per tick. Small chunks
  /// bound how long one admission can stall the running batch's decode
  /// steps (TTFT of everyone else); 0 runs the whole prompt as a single
  /// chunk in one tick (the inline-prefill baseline).
  Index prefill_chunk_tokens = 256;
  /// Cross-chunk cluster-repair billing (match the engine's
  /// ClusterKVConfig): the tick that lands a session's final prompt chunk
  /// bills one LatencyModel::repair_ms pass when the prompt actually
  /// spanned multiple chunks, and decoding sessions bill one pass every
  /// repair_decode_interval generated tokens. 0 refine iterations = repair
  /// off, nothing billed.
  Index repair_refine_iterations = 4;
  Index repair_decode_interval = 0;
  /// Async cluster-prefetch mirror (match the engine's
  /// ClusterKVConfig::prefetch_clusters): > 0 bills ClusterKV demand
  /// traffic at the measured demand-miss rate and puts each step's
  /// speculative fetches on the transfer engine's wire, where a copy still
  /// queued when the selection wants it turns back into demand. It also
  /// widens the fan-out guard's growth bound by one speculative round. In
  /// residency terms nothing changes here: in-flight fetch bytes reach the
  /// budget through the ledger's reserved counter regardless.
  Index prefetch_clusters = 0;
  /// Stub kept so callers that still set it compile: ClusterKV fetch
  /// traffic is always billed by the transfer engine (sim/transfer_engine),
  /// and the constructor rejects false. Nothing else reads it.
  bool use_transfer_engine = true;
  /// Bandwidth of the modeled slow->fast link (GB/s); 0 = the hardware
  /// model's pcie_gather_gbps. Sweeping this down makes contention bite.
  double link_gbps = 0.0;
  /// Deterministic fault injection (docs/ROBUSTNESS.md). Disabled by
  /// default: every fault branch in the scheduler is gated on the plan,
  /// so a disabled plan reproduces the fault-free schedule byte for
  /// byte. When enabled, requires kClusterKV (the degradation fallback is
  /// resident-only cluster selection; brownouts and wire failures act on
  /// its transfer engine).
  FaultPlan fault_plan;
};

/// Scheduler config for sessions built by make_clusterkv_factory(ckv):
/// kClusterKV with tiered residency, and every knob the scheduler mirrors
/// (working-set floor, cluster granularity, repair, prefetch) copied from
/// `ckv`. Budget, overcommit, chunking, link and faults keep their defaults.
[[nodiscard]] BatchSchedulerConfig clusterkv_scheduler_config(
    const ClusterKVConfig& ckv);

class BatchScheduler {
 public:
  BatchScheduler(std::vector<ServeRequest> trace, SelectorFactory factory,
                 SessionConfig session_config, LatencyModel latency,
                 BatchSchedulerConfig config);

  /// Runs one tick (admit, advance every session one chunk or step,
  /// enforce the budget). Returns true while sessions remain (queued or
  /// running). The budget invariant holds at every return, including while
  /// sessions are mid-prefill.
  ///
  /// With more than one pool worker, sessions the headroom guard proves
  /// independent advance concurrently in waves; order-sensitive work
  /// (metrics, preemption, enforcement, retirement) always replays in the
  /// serial commit order, so every virtual-time, quality and billing
  /// output is byte-identical at any worker count. With one worker every
  /// item takes the advance-then-commit path, which makes CKV_THREADS=1
  /// the serial interleaving oracle (see docs/SCHEDULING.md).
  bool tick();

  /// Ticks until every request has finished.
  void run();

  /// Current virtual time (ms) on the scheduler's clock.
  [[nodiscard]] double now_ms() const noexcept {
    const ExclusiveLock serial(serial_phase_);
    return now_ms_;
  }
  /// Admitted, unfinished sessions (prefilling + decoding).
  [[nodiscard]] Index running_count() const noexcept {
    const ExclusiveLock serial(serial_phase_);
    return static_cast<Index>(running_.size());
  }
  /// Requests still waiting for admission.
  [[nodiscard]] Index queued_count() const noexcept {
    const ExclusiveLock serial(serial_phase_);
    return queue_.size();
  }
  /// Sessions retired so far.
  [[nodiscard]] Index finished_count() const noexcept {
    const ExclusiveLock serial(serial_phase_);
    return finished_count_;
  }
  /// Ticks executed so far.
  [[nodiscard]] Index ticks() const noexcept {
    const ExclusiveLock serial(serial_phase_);
    return ticks_;
  }

  /// Global fast-tier footprint right now, summed over running sessions:
  /// resident bytes plus bytes reserved by in-flight prefetches — an
  /// async copy owns its destination from issue to completion, so the
  /// budget invariant covers transfers in flight.
  [[nodiscard]] std::int64_t fast_tier_bytes() const;

  /// O(1) residency of the tiered per-head stores (cross-check for the
  /// summed value; equals fast_tier_bytes() when every method is tiered).
  [[nodiscard]] const FastTierLedger& ledger() const noexcept { return ledger_; }

  [[nodiscard]] const ServeMetrics& metrics() const noexcept {
    const ExclusiveLock serial(serial_phase_);
    return metrics_;
  }
  /// Mutable access for exporters that append driver-side instruments
  /// (e.g. parallel.worker<i>.* counters) before dumping the registry.
  [[nodiscard]] ServeMetrics& metrics() noexcept {
    const ExclusiveLock serial(serial_phase_);
    return metrics_;
  }
  [[nodiscard]] const BatchSchedulerConfig& config() const noexcept { return config_; }

  /// Running sessions, admission order (testing hook: invariant checks
  /// walk these to assert sink residency).
  [[nodiscard]] const std::vector<std::unique_ptr<Session>>& running() const noexcept {
    const ExclusiveLock serial(serial_phase_);
    return running_;
  }

  /// Replay of ClusterKVEngine's chunked-prefill flush policy for one
  /// prompt (sinks don't pend; pending flushes at chunk boundaries once
  /// tokens_per_cluster accumulated; a final tail below that folds into
  /// the preceding batch). The repair and tail-fold bills key off this so
  /// the virtual clock only charges work the engine actually performs;
  /// public so tests can pin it to the engine's batch registration.
  struct PrefillFlushPlan {
    Index batches = 0;        ///< clustering batches registered by prefill
    bool tail_folds = false;  ///< final tail re-clusters with the last batch
  };
  [[nodiscard]] PrefillFlushPlan prefill_flush_plan(Index prompt_len) const;

 private:
  /// One session's advancement this tick, carried from the serial pre-pass
  /// through the (possibly parallel) advance phase into the serial commit
  /// phase. Pre-step values are captured before anything advances because
  /// commit-phase accounting (the inter-token gap) must see the state the
  /// serial scheduler would have seen at its sequence point.
  struct AdvanceItem {
    Session* session = nullptr;
    bool prefilling = false;
    Index chunk = 0;  ///< prefill chunk tokens (prefillers only)
    double pre_last_step_ms = -1.0;
    double pre_first_token_ms = -1.0;
    StepResult step;  ///< decode outcome (decoders only)
    /// Leaf trace events the advance recorded, appended to the ring by
    /// commit_item so their order is the serial order at any worker count.
    obs::TraceBuffer trace;
  };

  /// One tick's schedule and bill, built by plan_tick before anything
  /// advances and read by the phases after it.
  struct TickPlan {
    Index batch = 0;       ///< running sessions after admission
    Index prefillers = 0;  ///< items[0, prefillers) consume a prompt chunk
    /// Prefillers, then decoders, each group in round-robin order.
    std::vector<AdvanceItem> items;
    double tick_ms = 0.0;       ///< billed duration of the whole tick
    double decode_ms = 0.0;     ///< decode share of tick_ms
    double prefill_ms = 0.0;    ///< prefill-chunk share of tick_ms
    double repair_ms = 0.0;     ///< cluster-repair share of tick_ms
    double completed_ms = 0.0;  ///< now_ms_ + tick_ms
  };

  // ---- tick phases, in the order tick() runs them ----

  /// Idle jump to the next arrival, admission, and the tick's brownout
  /// sample. Returns the link-rate factor for this tick (1 = no fault).
  double begin_tick() CKV_REQUIRES(serial_phase_);
  /// Partitions the running batch into AdvanceItems and runs the billing
  /// pre-pass (step costs, fault rolls, contended demand stall, prefill
  /// chunks, tail folds, repair) — a pure function of pre-advance state.
  TickPlan plan_tick(double link_rate_factor) CKV_REQUIRES(serial_phase_);
  /// Emits the tick span and its decode/prefill/repair phase sub-spans,
  /// laid out back to back from now_ms_ to plan.completed_ms.
  void trace_tick(const TickPlan& plan) CKV_REQUIRES(serial_phase_);
  /// Advances every item at plan.completed_ms and commits it in item
  /// order: in guard-proven waves on the pool when there is more than one
  /// worker, one advance-then-commit at a time otherwise.
  void advance_tick(TickPlan& plan) CKV_REQUIRES(serial_phase_);
  /// Closes the tick span, drains the wire, moves the clock and the
  /// round-robin offset, and records the tick.
  void end_tick(const TickPlan& plan) CKV_REQUIRES(serial_phase_);
  /// Per-tick trace counters and the occupancy sample, after retirement.
  void record_tick_counters() CKV_REQUIRES(serial_phase_);

  /// Decode pre-pass fault roll for the step `decoder` is about to take:
  /// records retries and dead fetches (metrics, trace, session counters)
  /// and arms degraded mode for a dead fetch. No-op without a fault plan.
  FaultInjector::FetchOutcome roll_fetch_fault(Session& decoder)
      CKV_REQUIRES(serial_phase_);
  /// Periodic decode-side repair bill for the step `decoder` is about to
  /// take (0 when no pass is due or the pass would be a no-op).
  [[nodiscard]] double decode_repair_ms(const Session& decoder) const;
  /// End of the wave that starts at items[next]: the longest prefix whose
  /// summed advance_growth_bound_bytes fits the budget headroom.
  [[nodiscard]] std::size_t wave_end(const std::vector<AdvanceItem>& items,
                                     std::size_t next) const
      CKV_REQUIRES(serial_phase_);

  void admit_arrivals() CKV_REQUIRES(serial_phase_);
  void enforce_budget(Session* just_stepped) CKV_REQUIRES(serial_phase_);
  void retire_finished() CKV_REQUIRES(serial_phase_);
  /// Runs one item's prefill chunk / decode step at `completed_ms`,
  /// setting the calling thread's tracer context to the session's track
  /// (safe from pool workers — the ambient context is per-thread) and
  /// capturing the step's trace events into item.trace.
  ///
  /// Deliberately *not* CKV_REQUIRES(serial_phase_): this is the one
  /// scheduler method pool workers may run concurrently, and the analysis
  /// proves it touches no serial-phase state (any new read of a
  /// CKV_GUARDED_BY(serial_phase_) member here is a clang CI error — the
  /// compile-time form of "workers stay out of the commit phase").
  void advance_item(AdvanceItem& item, double completed_ms);
  /// The item's order-sensitive tail, serial-only: the advance's captured
  /// trace events, then trace edges, metrics, the ledger cross-check and
  /// the budget-enforcement checkpoint, in the exact order the serial
  /// scheduler interleaves them between steps.
  void commit_item(AdvanceItem& item, double completed_ms)
      CKV_REQUIRES(serial_phase_);
  /// fast_tier_bytes() for callers already inside the serial phase.
  [[nodiscard]] std::int64_t fast_tier_bytes_locked() const
      CKV_REQUIRES(serial_phase_);
  /// Conservative upper bound on the fast-tier bytes this advancement can
  /// add (nothing subtracted for releases). The fan-out guard admits a
  /// wave only while the summed bounds fit the budget headroom, which
  /// proves every per-session enforcement checkpoint inside the wave
  /// would have been silent — the wave is then order-free and safe to
  /// run concurrently without changing a single observable byte.
  [[nodiscard]] std::int64_t advance_growth_bound_bytes(
      const AdvanceItem& item) const;
  /// Sheds the blocked queue head when the fault plan's shed bound says
  /// its wait is hopeless; returns true when a request was dropped (the
  /// admission loop then re-examines the new head).
  bool shed_blocked_head() CKV_REQUIRES(serial_phase_);
  /// Peak fast-tier bytes a request can pin once admitted.
  [[nodiscard]] std::int64_t projected_bytes(const ServeRequest& request) const;
  /// Irreducible bytes a session holds even after release_fast_tier
  /// (sinks + pending for tiered methods, the whole context otherwise) —
  /// admission keeps the sum of these under the plain budget so
  /// enforcement can always succeed, regardless of overcommit.
  [[nodiscard]] std::int64_t residual_bytes(const ServeRequest& request) const;
  /// Latency-model step cost for one session at its current context.
  [[nodiscard]] StepBreakdown step_cost(const Session& session) const;
  /// Latency-model cost of one `chunk_tokens` prefill chunk for a
  /// prefilling session (causal-prefix attention + GEMM compute, plus
  /// visible per-chunk clustering overhead for ClusterKV).
  [[nodiscard]] double prefill_chunk_cost_ms(const Session& session,
                                             Index chunk_tokens) const;
  /// Chunk size a prefilling session consumes this tick (remaining prompt
  /// capped by prefill_chunk_tokens; the whole remainder when 0).
  [[nodiscard]] Index next_chunk_tokens(const Session& session) const;
  /// Emits the session's resume trace edge when it makes progress after a
  /// preemption (first step whose preemption count moved past what the
  /// scheduler last saw).
  void mark_resume_if_preempted(const Session& session)
      CKV_REQUIRES(serial_phase_);

  // ---- the slow->fast wire (ClusterKV schedulers only) ----

  /// One session's outstanding speculative transfer on the engine's queue:
  /// issued at the decode commit that billed the prefetch, resolved into
  /// hits / late hits / refunded waste at the session's next decode
  /// commit, or canceled by enforcement / retirement.
  struct TransferLink {
    std::uint64_t spec_id = 0;
    Index spec_tokens = 0;
  };

  /// Model-scale wire bytes of one head-summed step-token count unit
  /// (StepResult counts sum over layers x heads of the slice, so one full
  /// token's fetch equals total_heads of them).
  [[nodiscard]] double model_bytes_per_step_token() const;
  /// Demand bytes this decoder is projected to put on the wire this step
  /// (its measured demand rate x attended tokens, model scale) — the
  /// billing pre-pass input, a pure function of pre-tick state.
  [[nodiscard]] double projected_demand_bytes(const Session& session) const;
  /// Decode-commit engine bookkeeping: resolves the session's outstanding
  /// speculation against the step's observed hits (late hits re-enqueue as
  /// demand), enqueues the step's demand misses, and issues this step's
  /// speculative traffic.
  void resolve_session_transfers(Session& session, const StepResult& step)
      CKV_REQUIRES(serial_phase_);
  /// Drops the session's outstanding speculative request from the engine
  /// (mirrors Session::cancel_prefetches at the wire level).
  void cancel_session_spec(const Session& session) CKV_REQUIRES(serial_phase_);
  /// Advances the engine's wire to `completed_ms`, records per-tick drain
  /// metrics and emits the transfer-track spans.
  void drain_transfer_engine(double completed_ms) CKV_REQUIRES(serial_phase_);

  /// The tick's serial phase as a compile-time capability: everything a
  /// worker must not touch while the wave fan-out is in flight is
  /// CKV_GUARDED_BY(serial_phase_). tick() claims it for the tick body;
  /// advance_item (the only code that runs on pool workers) does not, so
  /// the clang -Wthread-safety leg statically separates the parallel
  /// advance phase from the serial commit phase. No runtime lock — ticks
  /// are single-threaded by contract; this makes the contract checkable.
  mutable ExclusiveContext serial_phase_;

  RequestQueue queue_ CKV_GUARDED_BY(serial_phase_);
  SelectorFactory factory_;
  SessionConfig session_config_;
  LatencyModel latency_;
  BatchSchedulerConfig config_;

  std::vector<std::unique_ptr<Session>> running_ CKV_GUARDED_BY(serial_phase_);
  /// Not guarded: workers' stores feed it through commutative relaxed
  /// atomics during the fan-out (see FastTierLedger).
  FastTierLedger ledger_;
  ServeMetrics metrics_ CKV_GUARDED_BY(serial_phase_);
  double now_ms_ CKV_GUARDED_BY(serial_phase_) = 0.0;
  Index ticks_ CKV_GUARDED_BY(serial_phase_) = 0;
  Index finished_count_ CKV_GUARDED_BY(serial_phase_) = 0;
  Index round_robin_offset_ CKV_GUARDED_BY(serial_phase_) = 0;
  /// Preemption count last observed per running session id — the
  /// scheduler's memory for preempt -> resume trace edges.
  std::unordered_map<Index, Index> preempt_seen_ CKV_GUARDED_BY(serial_phase_);
  /// The contended slow->fast wire (null unless method is kClusterKV). All
  /// engine state advances in the serial phase on the virtual clock.
  std::unique_ptr<TransferEngine> transfer_engine_ CKV_GUARDED_BY(serial_phase_);
  /// Effective engine link rate (GB/s) — config_.link_gbps or the
  /// hardware gather rate; cached so billing and the engine agree exactly.
  double transfer_link_gbps_ = 0.0;
  /// Outstanding speculative transfer per running session id (keyed
  /// access only — never iterated, so order cannot leak anywhere).
  std::unordered_map<Index, TransferLink> transfer_links_
      CKV_GUARDED_BY(serial_phase_);
  /// Pure-hash fault oracle (null unless config_.fault_plan.enabled) —
  /// every fault branch in the tick gates on this pointer, so the
  /// fault-free path is the pre-fault code verbatim.
  std::unique_ptr<FaultInjector> fault_injector_;
};

}  // namespace ckv
