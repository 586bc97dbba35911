// The repository benchmark's measuring program: runs one named workload in
// this process and prints one JSON object with every metric, the samples
// behind it, its correctness checks and the build it ran on.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans-out <file>]
//
// All timing happens out here, around calls into the library's public
// functions: BatchScheduler::tick, DecodeEngine::run_prefill/decode_step,
// ProceduralContextModel construction and, in the traced run, every
// KVSelector virtual (spans.hpp). Two clocks are reported: the host (what
// the C++ costs, on the wall clock) and the scheduler's virtual clock (simulated TTFT/ITL/throughput, deterministic
// for a given seed). perfbench/run.py
// builds this program, drives it and prints the benchmark's result line;
// perfbench/README.md documents the workloads and metrics.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "baselines/full_kv.hpp"
#include "baselines/infinigen.hpp"
#include "baselines/quest.hpp"
#include "core/clusterkv_engine.hpp"
#include "model/decode_engine.hpp"
#include "model/procedural.hpp"
#include "serve/batch_scheduler.hpp"
#include "serve/trace.hpp"
#include "sim/fault_injector.hpp"
#include "sim/latency_model.hpp"
#include "spans.hpp"
#include "tensor/rng.hpp"
#include "tensor/stats.hpp"
#include "util/parallel.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_LTO
#define PERFBENCH_LTO "unknown"
#endif

namespace perfbench {
namespace {

using ckv::Index;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// True while one more replay as long as the last one still ends inside
/// the measuring window (the first replay always runs).
bool another_fits(Clock::time_point started, Clock::time_point replay_start,
                  double window_s) {
  return seconds_since(started) + seconds_since(replay_start) <= window_s;
}

double median(std::vector<double> values) {
  return values.empty() ? 0.0 : ckv::percentile(values, 50.0);
}

double pct(const std::vector<double>& values, double p) {
  return values.empty() ? 0.0 : ckv::percentile(values, p);
}

/// 17 significant digits, which read back as the same double: virtual-clock
/// and quality values are compared as these strings, byte for byte.
std::string exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Process CPU time (user + system, all threads), recorded next to the
/// wall-clock host metrics as a reference: it shows whether a slow run was
/// descheduled (wall grew, CPU did not) or did more work.
double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// Wall and CPU time since construction.
class HostTimer {
 public:
  [[nodiscard]] double wall_s() const { return seconds_since(wall_); }
  [[nodiscard]] double cpu_s() const { return cpu_seconds() - cpu_; }

 private:
  Clock::time_point wall_ = Clock::now();
  double cpu_ = cpu_seconds();
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Result model

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  Index samples = 1;
};

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

/// Deterministic (virtual-clock and quality) values by name, exact.
using VirtualRecord = std::map<std::string, std::string>;

struct Result {
  std::vector<Metric> metrics;
  VirtualRecord virtual_record;
  std::vector<Check> checks;
  Index attempted = 0;
  Index failed = 0;
  Index replays = 0;
  double slo_ttft_ms = 0.0;
  double slo_itl_ms = 0.0;
  /// CPU-time medians of the timed phase and set-up (reference only).
  double cpu_timed_s = 0.0;
  double cpu_setup_s = 0.0;
};

void add_check(std::vector<Check>& checks, std::string name, bool ok,
               std::string detail = "") {
  checks.push_back({std::move(name), ok, std::move(detail)});
}

// ---------------------------------------------------------------------------
// Workloads

/// The paper's hardware/model pairing for the virtual clock (as in
/// bench_serving and fig13).
ckv::LatencyModel paper_latency() {
  return ckv::LatencyModel(ckv::HardwareModel::ada6000(), ckv::ModelConfig::llama31_8b());
}

/// Open-loop serving workload: seeded Poisson arrivals on the virtual
/// clock, ClusterKV in the serving-default configuration.
struct ServeSpec {
  const char* name;
  ckv::TraceConfig trace;
  /// Global fast-tier budget in mean full contexts (prompt + decode KV).
  double budget_contexts;
  double overcommit;
  /// Slow->fast link bandwidth of the transfer engine (0 = hardware rate).
  double link_gbps;
  bool chaos;
  /// Per-request SLO: TTFT (from the scheduled arrival) and mean ITL.
  double slo_ttft_ms;
  double slo_itl_ms;
};

ckv::TraceConfig trace_config(Index requests, double rps, Index prompt_min,
                              Index prompt_max, Index decode_min, Index decode_max) {
  ckv::TraceConfig t;
  t.num_requests = requests;
  t.offered_rps = rps;
  t.prompt_len_min = prompt_min;
  t.prompt_len_max = prompt_max;
  t.decode_len_min = decode_min;
  t.decode_len_max = decode_max;
  return t;
}

const ServeSpec kServeSpecs[] = {
    {"serve_decode_heavy", trace_config(400, 2.5, 150, 250, 48, 80), 8.0, 1.5, 2.5,
     false, 250.0, 35.0},
    {"serve_prefill_heavy", trace_config(600, 1.5, 512, 1024, 16, 32), 0.8, 1.6, 0.0,
     false, 800.0, 50.0},
    {"serve_chaos", trace_config(400, 2.5, 150, 250, 24, 40), 8.0, 1.5, 2.5, true,
     300.0, 40.0},
};

/// Offline long-context workload: one procedural context per method, its
/// length drawn from the seed just below 32k (every method gets the same
/// context). The jitter is small enough that every context crosses 32768
/// rows while decoding, so the context matrices' capacity doubling there
/// is part of every run, not of some seeds only.
struct OfflineSpec {
  Index prompt_len = 32768;
  Index prompt_jitter = 16;  ///< prompt_len - U[0, prompt_jitter]
  Index budget = 1024;
  Index decode_steps = 32;
  double slo_ttft_ms = 20000.0;
  double slo_itl_ms = 200.0;
};

const char* const kOfflineName = "offline_longctx";

/// Session shape shared by the serving workloads: bench_serving's slice,
/// but with 1 head instead of 2. Two heads halve the host rate (a
/// prefill-heavy replay would outlast the measuring window) and leave the
/// virtual-clock figures nearly unchanged.
ckv::SessionConfig serving_session() {
  ckv::SessionConfig s;
  s.shape.num_layers = 1;
  s.shape.num_heads = 1;
  s.shape.head_dim = 64;
  s.params.head_dim = 64;
  s.engine.budget = 128;
  s.engine.full_attention_layers = 0;
  return s;
}

/// bench_serving's serving default: chunked prefill 256, repair, async
/// prefetch of 10 clusters, on the transfer engine.
ckv::ClusterKVConfig serving_clusterkv() {
  ckv::ClusterKVConfig c;
  c.sink_tokens = 16;
  c.tokens_per_cluster = 20;
  c.decode_interval = 32;
  c.decode_clusters = 2;
  c.cache_depth = 1;
  c.kmeans_max_iterations = 12;
  c.prefetch_clusters = 10;
  c.prefetch_prior_weight = 1.0;
  c.prefetch_prior_decay = 0.8;
  return c;
}

struct ServeSetup {
  ckv::SessionConfig session;
  ckv::ClusterKVConfig clusterkv;
  ckv::BatchSchedulerConfig scheduler;
  std::vector<ckv::ServeRequest> trace;
  std::uint64_t engine_seed = 0;
};

ServeSetup make_serve_setup(const ServeSpec& spec, std::uint64_t seed) {
  const ckv::Rng root(seed);
  ServeSetup s;
  s.session = serving_session();
  s.clusterkv = serving_clusterkv();
  s.engine_seed = root.fork("engine").seed();
  s.trace = ckv::make_poisson_trace(spec.trace, root.fork("trace").seed());
  // Condition the Poisson process on its count: rescale the arrivals so
  // the trace spans exactly num_requests / offered_rps seconds. Gaps stay
  // exponential-like and bursty, but the offered load no longer varies
  // with the seed, which keeps the virtual-clock figures steady across
  // seeds at a trace size the host can replay in seconds.
  const double span_ms = 1000.0 * static_cast<double>(spec.trace.num_requests) /
                         spec.trace.offered_rps;
  const double last_ms = s.trace.back().arrival_ms;
  for (ckv::ServeRequest& r : s.trace) {
    r.arrival_ms = last_ms > 0.0 ? r.arrival_ms * span_ms / last_ms : 0.0;
  }

  const Index mean_context = (spec.trace.prompt_len_min + spec.trace.prompt_len_max) / 2 +
                             (spec.trace.decode_len_min + spec.trace.decode_len_max) / 2;
  const double context_bytes =
      static_cast<double>(mean_context * ckv::session_token_bytes(s.session) *
                          s.session.shape.total_heads());

  ckv::BatchSchedulerConfig& b = s.scheduler;
  b.method = ckv::LatencyModel::Method::kClusterKV;
  b.tiered_residency = true;
  b.sink_tokens = s.clusterkv.sink_tokens;
  b.decode_interval = s.clusterkv.decode_interval;
  b.cache_depth = s.clusterkv.cache_depth;
  b.tokens_per_cluster = s.clusterkv.tokens_per_cluster;
  b.admission_overcommit = spec.overcommit;
  b.fast_tier_budget_bytes =
      static_cast<std::int64_t>(spec.budget_contexts * context_bytes);
  b.prefill_chunk_tokens = 256;
  b.repair_refine_iterations = s.clusterkv.repair_refine_iterations;
  b.repair_decode_interval = s.clusterkv.repair_decode_interval;
  b.prefetch_clusters = s.clusterkv.prefetch_clusters;
  b.use_transfer_engine = true;
  b.link_gbps = spec.link_gbps;
  if (spec.chaos) {
    // Every fault class that a request survives: transient fetch and wire
    // failures with retry/backoff, dead fetches served degraded, link
    // brownouts, admission squeezes. Client aborts and queue shedding are
    // off so that every offered request completes; one retry instead of
    // three makes dead fetches (and so degraded steps) common enough to
    // measure at this trace size.
    b.fault_plan = ckv::FaultPlan::chaos(root.fork("faults").seed());
    b.fault_plan.abort_rate = 0.0;
    b.fault_plan.shed_wait_ms = 0.0;
    b.fault_plan.fetch_max_retries = 1;
  }
  return s;
}

// ---------------------------------------------------------------------------
// Serving: one replay of the trace through BatchScheduler::tick

/// Per-token gaps read after each tick: a session's token lands at the
/// tick's completion (now_ms() after tick()), and a session that retires
/// inside a tick lands its last token at its record's finish_ms.
class GapTracker {
 public:
  void after_tick(const ckv::BatchScheduler& scheduler) {
    const double now = scheduler.now_ms();
    for (const auto& session : scheduler.running()) {
      const Index generated = session->tokens_generated();
      Seen& seen = seen_[session->request().id];
      if (generated > seen.tokens) {
        land(seen, generated, now);
      }
    }
    const auto& records = scheduler.metrics().records();
    for (; records_seen_ < records.size(); ++records_seen_) {
      const ckv::SessionRecord& r = records[records_seen_];
      Seen seen = seen_[r.id];
      seen_.erase(r.id);
      if (r.decode_len > seen.tokens) {
        land(seen, r.decode_len, r.finish_ms);
      }
      if (seen.first_ms != r.first_token_ms || seen.last_ms != r.finish_ms) {
        exact_ = false;
      }
    }
  }

  [[nodiscard]] const std::vector<double>& gaps() const noexcept { return gaps_; }
  /// False if any session skipped a token between ticks or its tracked
  /// first/last token times disagree with its record.
  [[nodiscard]] bool exact() const noexcept { return exact_; }

 private:
  struct Seen {
    Index tokens = 0;
    double first_ms = -1.0;
    double last_ms = -1.0;
  };

  void land(Seen& seen, Index generated, double at_ms) {
    if (generated != seen.tokens + 1) {
      exact_ = false;
    }
    if (seen.tokens == 0) {
      seen.first_ms = at_ms;
    } else {
      gaps_.push_back(at_ms - seen.last_ms);
    }
    seen.tokens = generated;
    seen.last_ms = at_ms;
  }

  std::map<Index, Seen> seen_;
  std::size_t records_seen_ = 0;
  std::vector<double> gaps_;
  bool exact_ = true;
};

struct ServeOutcome {
  VirtualRecord virt;
  std::vector<Check> checks;
  Index offered = 0;
  Index failed = 0;
  std::int64_t tokens = 0;  ///< prompt + generated tokens served
  double cpu_s = 0.0;       ///< CPU time of the replay loop
  double wall_s = 0.0;      ///< wall time inside tick() calls
  std::vector<double> tick_wall_ms;
  double advance_wall_ms = 0.0;
  double fanout_frac = 0.0;
};

ServeOutcome run_serving(const ServeSpec& spec, const ServeSetup& setup,
                         std::unique_ptr<ckv::BatchScheduler> scheduler,
                         SpanRecorder* recorder) {
  ServeOutcome out;
  out.offered = static_cast<Index>(setup.trace.size());
  const std::int64_t budget = setup.scheduler.fast_tier_budget_bytes;
  GapTracker gaps;
  std::vector<double> arrivals;
  for (const ckv::ServeRequest& r : setup.trace) {
    arrivals.push_back(r.arrival_ms);
  }
  std::sort(arrivals.begin(), arrivals.end());
  Index max_waiting = 0;
  bool within_budget = true;
  double util_sum = 0.0;
  Index util_ticks = 0;
  const Index heads = setup.session.shape.num_heads;
  const Index layers = setup.session.shape.num_layers;

  const HostTimer replay;
  for (;;) {
    std::int64_t frame = -1;
    double frame_start = 0.0;
    if (recorder != nullptr) {
      frame = recorder->next_id();
      recorder->set_parent(frame);
      frame_start = recorder->now_us();
    }
    const auto t0 = Clock::now();
    const bool more = scheduler->tick();
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    if (recorder != nullptr) {
      recorder->record(
          {"tick", "serve", frame_start, recorder->now_us(), frame, -1, -1, 0});
      recorder->set_parent(-1);
      for (const auto& session : scheduler->running()) {
        for (Index l = 0; l < layers; ++l) {
          for (Index h = 0; h < heads; ++h) {
            const auto* timed = dynamic_cast<const TimedSelector*>(
                &session->engine().selectors().at(l, h));
            if (timed != nullptr && recorder->request_of(timed->instance()) < 0) {
              recorder->bind_instance(timed->instance(), session->request().id);
            }
          }
        }
      }
    }
    out.tick_wall_ms.push_back(ms);
    out.wall_s += ms / 1000.0;

    const std::int64_t fast = scheduler->fast_tier_bytes();
    if (budget > 0) {
      within_budget = within_budget && fast <= budget;
      util_sum += static_cast<double>(fast) / static_cast<double>(budget);
      ++util_ticks;
    }
    gaps.after_tick(*scheduler);
    // Arrived but not admitted (the scheduler's queue also holds requests
    // whose arrival time is still ahead).
    const auto arrived = static_cast<Index>(
        std::upper_bound(arrivals.begin(), arrivals.end(), scheduler->now_ms()) -
        arrivals.begin());
    max_waiting =
        std::max(max_waiting, scheduler->queued_count() - (out.offered - arrived));
    if (!more) {
      break;
    }
  }
  out.cpu_s = replay.cpu_s();

  const ckv::ServeMetrics& m = scheduler->metrics();
  std::vector<double> ttft;
  Index attained = 0;
  Index aborted = 0;
  for (const ckv::SessionRecord& r : m.records()) {
    ttft.push_back(r.ttft_ms());
    out.tokens += r.prompt_len + r.decode_len;
    aborted += r.aborted ? 1 : 0;
    if (!r.aborted && r.ttft_ms() <= spec.slo_ttft_ms &&
        r.inter_token_ms() <= spec.slo_itl_ms) {
      ++attained;
    }
  }
  const Index finished = static_cast<Index>(m.records().size());
  const Index shed = m.shed_sessions_total();
  out.failed = shed + aborted;
  const double recall = m.mean_recall();
  out.advance_wall_ms = m.advance_wall_ms_total();
  out.fanout_frac = m.fanout_fraction();

  std::vector<double> queue_wait;
  for (const ckv::SessionRecord& r : m.records()) {
    queue_wait.push_back(r.queue_wait_ms());
  }
  const double makespan = m.makespan_ms();
  VirtualRecord& v = out.virt;
  v["sim_tok_per_s"] = exact(m.throughput_tps());
  v["sim_ttft_p50_ms"] = exact(pct(ttft, 50.0));
  v["sim_ttft_p95_ms"] = exact(pct(ttft, 95.0));
  v["sim_ttft.samples"] = exact(static_cast<double>(ttft.size()));
  v["sim_itl_p50_ms"] = exact(pct(gaps.gaps(), 50.0));
  v["sim_itl_p99_ms"] = exact(pct(gaps.gaps(), 99.0));
  v["sim_itl.samples"] = exact(static_cast<double>(gaps.gaps().size()));
  v["sim_slo_attain"] =
      exact(static_cast<double>(attained) / static_cast<double>(out.offered));
  v["recall_at_b"] = exact(recall);
  v["requests.offered"] = exact(static_cast<double>(out.offered));
  v["requests.finished"] = exact(static_cast<double>(finished - aborted));
  v["requests.aborted"] = exact(static_cast<double>(aborted));
  v["requests.shed"] = exact(static_cast<double>(shed));
  v["sim.makespan_ms"] = exact(makespan);
  v["serve.ticks"] = exact(static_cast<double>(scheduler->ticks()));
  v["serve.queue_wait_ms.p50"] = exact(pct(queue_wait, 50.0));
  v["serve.queue_wait_ms.p95"] = exact(pct(queue_wait, 95.0));
  v["serve.batch_mean"] = exact(m.concurrency().mean());
  v["serve.max_queue_depth"] = exact(static_cast<double>(max_waiting));
  v["serve.preemptions"] = exact(static_cast<double>(m.total_preemptions()));
  v["core.cache_hit_rate.session_mean"] = exact(m.mean_cache_hit_rate());
  v["core.prefetch_hit_rate"] = exact(m.prefetch_hit_rate());
  v["core.repair_ms"] = exact(m.repair_ms_total());
  v["kvcache.fast_tier_util"] =
      exact(util_ticks > 0 ? util_sum / static_cast<double>(util_ticks) : 0.0);
  v["sim.demand_stall_ms"] = exact(m.demand_stall_ms_total());
  v["sim.link_util"] = exact(makespan > 0.0 ? m.link_busy_ms_total() / makespan : 0.0);
  v["sim.late_prefetch_tokens"] =
      exact(static_cast<double>(m.late_prefetch_tokens_total()));
  v["sim.fault_retries"] = exact(static_cast<double>(m.fault_retries_total()));
  v["sim.dead_fetches"] = exact(static_cast<double>(m.dead_fetches_total()));
  v["sim.degraded_steps"] = exact(static_cast<double>(m.degraded_steps_total()));

  add_check(out.checks, "conservation: finished + shed + aborted == offered",
            (finished - aborted) + shed + aborted == out.offered && aborted <= finished,
            std::to_string(finished - aborted) + " + " + std::to_string(shed) + " + " +
                std::to_string(aborted) + " vs " + std::to_string(out.offered));
  add_check(out.checks, "fast_tier_bytes() <= budget after every tick", within_budget);
  add_check(out.checks, "recall_at_b in [0, 1]", recall >= 0.0 && recall <= 1.0,
            exact(recall));
  add_check(out.checks, "per-token gaps match the session records", gaps.exact());
  if (spec.chaos) {
    add_check(out.checks, "dead_fetches == degraded_steps",
              m.dead_fetches_total() == m.degraded_steps_total(),
              std::to_string(m.dead_fetches_total()) + " vs " +
                  std::to_string(m.degraded_steps_total()));
    add_check(out.checks, "fault plan injected faults", m.fault_fetch_faults_total() > 0,
              std::to_string(m.fault_fetch_faults_total()));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Offline quality runs through DecodeEngine

struct QualityRun {
  double recall = 0.0;        ///< mean over selection-forced steps
  Index recall_steps = 0;
  double output_error = 0.0;  ///< mean relative L2 error of the attention output
  Index error_steps = 0;
  std::vector<ckv::StepResult> steps;
};

/// One-shot prefill plus `decode_steps` decode steps of one method over
/// one context; frame spans (run_prefill / decode_step) when traced.
QualityRun run_quality(ckv::ProceduralContextModel& model,
                       const ckv::SelectorFactory& factory, Index budget,
                       Index decode_steps, SpanRecorder* recorder) {
  ckv::DecodeEngineConfig config;
  config.budget = budget;
  config.full_attention_layers = 0;
  ckv::DecodeEngine engine(model, factory, config);
  // Frame spans: selector calls made inside nest under them.
  const auto frame = [&](const char* name, const auto& body) {
    if (recorder == nullptr) {
      body();
      return;
    }
    const std::int64_t id = recorder->next_id();
    recorder->set_parent(id);
    const double start = recorder->now_us();
    body();
    recorder->record({name, "model", start, recorder->now_us(), id, -1, -1, 0});
    recorder->set_parent(-1);
  };
  QualityRun run;
  frame("run_prefill", [&] { engine.run_prefill(); });
  for (Index step = 0; step < decode_steps; ++step) {
    ckv::StepResult result;
    frame("decode_step", [&] { result = engine.decode_step(step); });
    result.features.clear();
    run.steps.push_back(std::move(result));
  }
  run.recall = engine.mean_recall();
  run.recall_steps = engine.recall_steps();
  run.output_error = engine.output_error_stat().mean();
  run.error_steps = engine.output_error_stat().count();
  return run;
}

ckv::SelectorFactory quest_factory() {
  ckv::QuestConfig q;
  q.page_size = 16;
  return ckv::make_quest_factory(q);
}

ckv::SelectorFactory infinigen_factory() {
  ckv::InfiniGenConfig i;
  i.partial_dim = 16;  // d/4 partial weights
  i.calibration_tokens = 512;
  return ckv::make_infinigen_factory(i);
}

/// The paper's ClusterKV settings (§III-B, §IV-D).
ckv::ClusterKVConfig paper_clusterkv() {
  ckv::ClusterKVConfig c;
  c.sink_tokens = 16;
  c.tokens_per_cluster = 80;
  c.decode_interval = 320;
  c.decode_clusters = 4;
  c.cache_depth = 1;
  c.kmeans_max_iterations = 12;
  return c;
}

/// Cross-method quality on a serving workload's own contexts: the first
/// requests of the trace, one-shot prefill at the serving budget, Quest
/// against ClusterKV. Runs outside the timed phase. (InfiniGen is left
/// out: its SVD would dominate the probe's cost, and its recall is
/// reported from offline_longctx.)
struct ProbeQuality {
  double quest = 0.0;
  double clusterkv_error = 0.0;
};

ProbeQuality serving_quality_probe(const ServeSetup& setup) {
  constexpr Index kProbeRequests = 48;
  constexpr Index kProbeSteps = 16;
  struct Acc {
    double sum = 0.0;
    Index n = 0;
    void add(double mean, Index count) {
      sum += mean * static_cast<double>(count);
      n += count;
    }
    [[nodiscard]] double mean() const {
      return n > 0 ? sum / static_cast<double>(n) : 0.0;
    }
  };
  Acc quest, error;
  const Index requests =
      std::min<Index>(kProbeRequests, static_cast<Index>(setup.trace.size()));
  for (Index i = 0; i < requests; ++i) {
    const ckv::ServeRequest& r = setup.trace[static_cast<std::size_t>(i)];
    const Index steps = std::min<Index>(kProbeSteps, r.decode_len);
    const auto run = [&](const ckv::SelectorFactory& factory) {
      ckv::ProceduralContextModel model(setup.session.shape, setup.session.params, r.seed,
                                        r.prompt_len);
      return run_quality(model, factory, setup.session.engine.budget, steps, nullptr);
    };
    const QualityRun q = run(quest_factory());
    quest.add(q.recall, q.recall_steps);
    const QualityRun c =
        run(ckv::make_clusterkv_factory(setup.clusterkv, setup.engine_seed));
    error.add(c.output_error, c.error_steps);
  }
  return {quest.mean(), error.mean()};
}

// ---------------------------------------------------------------------------
// Per-layer metrics from the recorded spans

struct SpanStats {
  std::map<std::string, double> self_ms;  ///< by top-level layer
  std::map<std::string, std::vector<double>> durations_us;  ///< by "layer/name"
  double decode_step_select_ms = 0.0;  ///< select time inside decode_step frames
};

SpanStats analyse_spans(const std::vector<Span>& spans) {
  SpanStats stats;
  std::map<std::int64_t, std::vector<std::pair<double, double>>> children;
  std::map<std::int64_t, const Span*> by_id;
  for (const Span& s : spans) {
    by_id[s.id] = &s;
    if (s.parent >= 0) {
      children[s.parent].emplace_back(s.start_us, s.end_us);
    }
    stats.durations_us[std::string(s.layer) + "/" + s.name].push_back(s.end_us -
                                                                      s.start_us);
  }
  for (const Span& s : spans) {
    double covered = 0.0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      double cur_begin = -1.0;
      double cur_end = -1.0;
      for (auto [b, e] : intervals) {
        b = std::max(b, s.start_us);
        e = std::min(e, s.end_us);
        if (e <= b) {
          continue;
        }
        if (b > cur_end) {
          covered += std::max(0.0, cur_end - cur_begin);
          cur_begin = b;
          cur_end = e;
        } else {
          cur_end = std::max(cur_end, e);
        }
      }
      covered += std::max(0.0, cur_end - cur_begin);
    }
    std::string layer = s.layer;
    layer = layer.substr(0, layer.find('.'));
    stats.self_ms[layer] += (s.end_us - s.start_us - covered) / 1000.0;
    if (std::string_view(s.name) == "select" && s.parent >= 0) {
      auto parent = by_id.find(s.parent);
      if (parent != by_id.end() &&
          std::string_view(parent->second->name) == "decode_step") {
        stats.decode_step_select_ms += (s.end_us - s.start_us) / 1000.0;
      }
    }
  }
  return stats;
}

double sum_of(const std::vector<double>& v) {
  double total = 0.0;
  for (const double x : v) {
    total += x;
  }
  return total;
}

const std::vector<double>& durations(const SpanStats& stats, const std::string& key) {
  static const std::vector<double> kEmpty;
  auto it = stats.durations_us.find(key);
  return it == stats.durations_us.end() ? kEmpty : it->second;
}

void write_spans(const std::string& path, const SpanRecorder& recorder,
                 const std::vector<Span>& spans) {
  std::ofstream out(path);
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"name\": \"" << s.name << "\", \"cat\": \"" << s.layer
        << "\", \"ph\": \"X\", \"pid\": 0, \"tid\": " << s.slot
        << ", \"ts\": " << exact(s.start_us)
        << ", \"dur\": " << exact(s.end_us - s.start_us)
        << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"request\": " << recorder.request_of(s.instance) << "}}"
        << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

/// The per-layer metric table, identical on every workload (0 where the
/// workload bypasses the layer).
std::vector<Metric> layer_metrics(const SpanStats& stats, const SelectionCounts& counts,
                                  const VirtualRecord& virt, double context_build_s,
                                  double overhead_frac, double advance_share,
                                  double fanout_frac,
                                  const std::vector<double>& tick_wall_ms) {
  const auto vget = [&](const std::string& key) {
    auto it = virt.find(key);
    return it == virt.end() ? 0.0 : std::stod(it->second);
  };
  const auto count_of = [](const std::vector<double>& v) {
    return static_cast<Index>(v.size());
  };
  const auto& ckv_select = durations(stats, "core/select");
  const auto& ckv_decode = durations(stats, "core/observe_decode");
  const auto& ckv_prefill = durations(stats, "core/observe_prefill");
  const auto& ckv_chunks = durations(stats, "core/observe_prefill_chunk");
  const auto& quest_prefill = durations(stats, "baselines.quest/observe_prefill");
  const auto& quest_select = durations(stats, "baselines.quest/select");
  const auto& ig_prefill = durations(stats, "baselines.infinigen/observe_prefill");
  const auto& ig_select = durations(stats, "baselines.infinigen/select");
  const auto& decode_steps = durations(stats, "model/decode_step");
  std::vector<double> decode_steps_ms;
  for (const double us : decode_steps) {
    decode_steps_ms.push_back(us / 1000.0);
  }
  std::vector<double> chunk_ms;
  for (const double us : ckv_chunks) {
    chunk_ms.push_back(us / 1000.0);
  }
  const double decode_total_ms = sum_of(decode_steps_ms);
  const auto self = [&](const char* layer) {
    auto it = stats.self_ms.find(layer);
    return it == stats.self_ms.end() ? 0.0 : it->second;
  };
  const std::int64_t looked_up = counts.fetched + counts.cache_hit;
  return {
      {"serve.tick_ms.p50", pct(tick_wall_ms, 50.0), "ms", count_of(tick_wall_ms)},
      {"serve.tick_ms.p99", pct(tick_wall_ms, 99.0), "ms", count_of(tick_wall_ms)},
      {"serve.advance_share", advance_share, "frac", count_of(tick_wall_ms)},
      {"serve.fanout_frac", fanout_frac, "frac", 1},
      {"serve.queue_wait_ms.p50", vget("serve.queue_wait_ms.p50"), "ms", 1},
      {"serve.queue_wait_ms.p95", vget("serve.queue_wait_ms.p95"), "ms", 1},
      {"serve.batch_mean", vget("serve.batch_mean"), "sessions", 1},
      {"serve.max_queue_depth", vget("serve.max_queue_depth"), "count", 1},
      {"serve.preemptions", vget("serve.preemptions"), "count", 1},
      {"serve.self_ms", self("serve"), "ms", 1},
      {"core.prefill_s", sum_of(ckv_prefill) / 1e6, "s", count_of(ckv_prefill)},
      {"core.prefill_chunk_ms.total", sum_of(chunk_ms), "ms", count_of(chunk_ms)},
      {"core.prefill_chunk_ms.p99", pct(chunk_ms, 99.0), "ms", count_of(chunk_ms)},
      {"core.select_us.p50", pct(ckv_select, 50.0), "us", count_of(ckv_select)},
      {"core.select_us.p99", pct(ckv_select, 99.0), "us", count_of(ckv_select)},
      {"core.observe_decode_us",
       ckv_decode.empty() ? 0.0
                          : sum_of(ckv_decode) / static_cast<double>(ckv_decode.size()),
       "us", count_of(ckv_decode)},
      {"core.cache_hit_rate",
       looked_up > 0
           ? static_cast<double>(counts.cache_hit) / static_cast<double>(looked_up)
           : 0.0,
       "frac", looked_up},
      {"core.prefetch_hit_rate",
       counts.prefetch_issued > 0 ? static_cast<double>(counts.prefetch_hit) /
                                        static_cast<double>(counts.prefetch_issued)
                                  : 0.0,
       "frac", counts.prefetch_issued},
      {"core.repair_ms", vget("core.repair_ms"), "ms", 1},
      {"core.attn_output_err", vget("attn_output_err"), "rel", 1},
      {"core.self_ms", self("core"), "ms", 1},
      {"baselines.infinigen.prefill_s", sum_of(ig_prefill) / 1e6, "s",
       count_of(ig_prefill)},
      {"baselines.infinigen.select_us.p50", pct(ig_select, 50.0), "us",
       count_of(ig_select)},
      {"baselines.quest.prefill_s", sum_of(quest_prefill) / 1e6, "s",
       count_of(quest_prefill)},
      {"baselines.quest.select_us.p50", pct(quest_select, 50.0), "us",
       count_of(quest_select)},
      {"baselines.infinigen.recall_at_b", vget("recall_at_b.infinigen"), "frac", 1},
      {"baselines.self_ms", self("baselines"), "ms", 1},
      {"kvcache.tokens_fetched", static_cast<double>(counts.fetched), "tokens", 1},
      {"kvcache.tokens_cache_hit", static_cast<double>(counts.cache_hit), "tokens", 1},
      {"kvcache.tokens_released", static_cast<double>(counts.released), "tokens", 1},
      {"kvcache.fast_tier_util", vget("kvcache.fast_tier_util"), "frac", 1},
      {"sim.demand_stall_ms", vget("sim.demand_stall_ms"), "ms", 1},
      {"sim.link_util", vget("sim.link_util"), "frac", 1},
      {"sim.late_prefetch_tokens", vget("sim.late_prefetch_tokens"), "tokens", 1},
      {"sim.fault_retries", vget("sim.fault_retries"), "count", 1},
      {"sim.dead_fetches", vget("sim.dead_fetches"), "count", 1},
      {"sim.degraded_steps", vget("sim.degraded_steps"), "count", 1},
      {"model.decode_step_ms.p50", pct(decode_steps_ms, 50.0), "ms",
       count_of(decode_steps_ms)},
      {"model.decode_step_ms.p99", pct(decode_steps_ms, 99.0), "ms",
       count_of(decode_steps_ms)},
      {"model.harness_share",
       decode_total_ms > 0.0 ? 1.0 - stats.decode_step_select_ms / decode_total_ms : 0.0,
       "frac", count_of(decode_steps_ms)},
      {"model.context_build_s", context_build_s, "s", context_build_s > 0.0 ? 1 : 0},
      {"model.self_ms", self("model"), "ms", 1},
      {"trace.overhead_frac", overhead_frac, "frac", 1},
  };
}

/// Two runs of the same inputs (a replay, or the traced run) must agree on
/// every virtual-clock and quality value, byte for byte.
void compare_virtual(const VirtualRecord& expected, const VirtualRecord& got,
                     const std::string& name, std::vector<Check>& checks) {
  std::string diff;
  const auto value_in = [](const VirtualRecord& record, const std::string& key) {
    auto it = record.find(key);
    return it == record.end() ? std::string("missing") : it->second;
  };
  VirtualRecord keys = expected;
  keys.insert(got.begin(), got.end());
  for (const auto& entry : keys) {
    const std::string want = value_in(expected, entry.first);
    const std::string have = value_in(got, entry.first);
    if (want != have) {
      diff += entry.first + " " + want + " vs " + have + "; ";
    }
  }
  add_check(checks, name, diff.empty(), diff);
}

std::string replay_check_name(Index replay) {
  return "replay " + std::to_string(replay) + " reproduces the first replay's virtual clock";
}

const char* const kTracedCheckName =
    "traced run's virtual-clock and quality values == untraced";

// ---------------------------------------------------------------------------
// Workload drivers

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
};

constexpr std::uint64_t kWarmupSeed = 2025;
/// Set-ups per run at least, so setup_s is a median even when only one
/// replay fits the measuring window.
constexpr int kMinSetups = 3;

Result run_serve_workload(const ServeSpec& spec, const Options& opt) {
  const ckv::LatencyModel latency = paper_latency();
  Result result;
  result.slo_ttft_ms = spec.slo_ttft_ms;
  result.slo_itl_ms = spec.slo_itl_ms;
  std::vector<double> setup_cpu, setup_wall, timed_cpu, timed_wall;

  // Set-up: input generation, a warm-up replay (worker pool, allocator
  // arenas, code paths) and scheduler construction. The warm-up inputs
  // are fixed, not drawn from --seed, so set-up cost does not vary with
  // the workload seed.
  const auto set_up = [&](ServeSetup& setup) {
    const HostTimer timer;
    setup = make_serve_setup(spec, opt.seed);
    ckv::TraceConfig warmup_trace = spec.trace;
    warmup_trace.num_requests = 24;
    ckv::BatchScheduler warmup(ckv::make_poisson_trace(warmup_trace, kWarmupSeed),
                               ckv::make_clusterkv_factory(setup.clusterkv, kWarmupSeed),
                               setup.session, latency, setup.scheduler);
    warmup.run();
    auto scheduler = std::make_unique<ckv::BatchScheduler>(
        setup.trace, ckv::make_clusterkv_factory(setup.clusterkv, setup.engine_seed),
        setup.session, latency, setup.scheduler);
    setup_cpu.push_back(timer.cpu_s());
    setup_wall.push_back(timer.wall_s());
    return scheduler;
  };

  ServeSetup setup;
  for (int i = 1; i < kMinSetups; ++i) {
    set_up(setup);
  }
  // Untraced replays while one more fits the window (half of it in the
  // traced run, whose second half is the one traced replay).
  const auto started = Clock::now();
  const double untraced_seconds = opt.trace ? opt.seconds / 2.0 : opt.seconds;
  ServeOutcome first;
  for (;;) {
    const auto replay_start = Clock::now();
    auto scheduler = set_up(setup);
    ServeOutcome out = run_serving(spec, setup, std::move(scheduler), nullptr);
    timed_cpu.push_back(out.cpu_s);
    timed_wall.push_back(out.wall_s);
    result.attempted += out.offered;
    result.failed += out.failed;
    if (result.replays == 0) {
      first = std::move(out);
    } else {
      compare_virtual(first.virt, out.virt, replay_check_name(result.replays),
                      result.checks);
    }
    ++result.replays;
    if (!another_fits(started, replay_start, untraced_seconds)) {
      break;
    }
  }
  result.checks.insert(result.checks.end(), first.checks.begin(), first.checks.end());
  result.cpu_timed_s = median(timed_cpu);
  result.cpu_setup_s = median(setup_cpu);

  // Cross-method quality probe, outside the timed phase.
  const ProbeQuality probe = serving_quality_probe(setup);
  add_check(result.checks, "probe recall_at_b.quest in [0, 1]",
            probe.quest >= 0.0 && probe.quest <= 1.0);
  result.virtual_record = first.virt;
  result.virtual_record["recall_at_b.quest"] = exact(probe.quest);
  result.virtual_record["attn_output_err"] = exact(probe.clusterkv_error);

  const auto v = [&](const char* key) {
    return std::stod(result.virtual_record.at(key));
  };
  const auto n = [&](const char* key) { return static_cast<Index>(v(key)); };
  if (!opt.trace) {
    result.metrics = {
        {"host_tok_per_s", static_cast<double>(first.tokens) / median(timed_wall),
         "tok/s", static_cast<Index>(timed_wall.size())},
        {"setup_s", median(setup_wall), "s", static_cast<Index>(setup_wall.size())},
        {"peak_rss_mb", peak_rss_mb(), "MB", 1},
        {"sim_tok_per_s", v("sim_tok_per_s"), "tok/s", 1},
        {"sim_ttft_p50_ms", v("sim_ttft_p50_ms"), "ms", n("sim_ttft.samples")},
        {"sim_ttft_p95_ms", v("sim_ttft_p95_ms"), "ms", n("sim_ttft.samples")},
        {"sim_itl_p50_ms", v("sim_itl_p50_ms"), "ms", n("sim_itl.samples")},
        {"sim_itl_p99_ms", v("sim_itl_p99_ms"), "ms", n("sim_itl.samples")},
        {"sim_slo_attain", v("sim_slo_attain"), "frac", n("requests.offered")},
        {"recall_at_b", v("recall_at_b"), "frac", 1},
        {"recall_at_b.quest", v("recall_at_b.quest"), "frac", 1},
    };
    return result;
  }

  // Traced replay: same inputs, selectors wrapped in the timing decorator.
  SpanRecorder recorder(ckv::parallel_worker_count());
  auto scheduler = std::make_unique<ckv::BatchScheduler>(
      setup.trace,
      timed_factory(ckv::make_clusterkv_factory(setup.clusterkv, setup.engine_seed),
                    recorder),
      setup.session, latency, setup.scheduler);
  const ServeOutcome traced = run_serving(spec, setup, std::move(scheduler), &recorder);
  result.attempted += traced.offered;
  result.failed += traced.failed;
  compare_virtual(first.virt, traced.virt, kTracedCheckName, result.checks);
  result.checks.insert(result.checks.end(), traced.checks.begin(), traced.checks.end());

  const std::vector<Span> spans = recorder.all_spans();
  const double tick_total_ms = sum_of(traced.tick_wall_ms);
  result.metrics = layer_metrics(
      analyse_spans(spans), recorder.total_counts(), result.virtual_record, 0.0,
      traced.wall_s / median(timed_wall) - 1.0,
      tick_total_ms > 0.0 ? traced.advance_wall_ms / tick_total_ms : 0.0,
      traced.fanout_frac, traced.tick_wall_ms);
  if (!opt.spans_out.empty()) {
    write_spans(opt.spans_out, recorder, spans);
  }
  return result;
}

/// One offline pass's deterministic outputs. The virtual clock is the
/// paper's latency model billed with ClusterKV's measured per-step cache
/// misses: one-shot prefill + visible clustering, then one decode step
/// per token.
VirtualRecord offline_virtual(const OfflineSpec& spec, const ckv::LatencyModel& latency,
                              const ckv::ClusterKVConfig& clusterkv,
                              const std::vector<QualityRun>& runs) {
  const QualityRun& ckv_run = runs[0];
  const Index clusters = spec.prompt_len / clusterkv.tokens_per_cluster;
  std::vector<double> step_cost;
  for (std::size_t s = 0; s < ckv_run.steps.size(); ++s) {
    const ckv::StepResult& r = ckv_run.steps[s];
    const Index looked_up = r.tokens_fetched + r.tokens_cache_hit;
    const double miss = looked_up > 0 ? static_cast<double>(r.tokens_fetched) /
                                            static_cast<double>(looked_up)
                                      : 0.0;
    step_cost.push_back(latency
                            .clusterkv_step(spec.prompt_len + static_cast<Index>(s) + 1,
                                            spec.budget, miss, clusters)
                            .total_ms());
  }
  const double ttft = latency.prefill_ms(spec.prompt_len) +
                      latency.clustering_visible_overhead_ms(spec.prompt_len) +
                      step_cost.front();
  const std::vector<double> gaps(step_cost.begin() + 1, step_cost.end());
  const double mean_itl = sum_of(gaps) / static_cast<double>(gaps.size());
  const double total_ms = ttft + sum_of(gaps);
  VirtualRecord v;
  v["sim_tok_per_s"] = exact(static_cast<double>(step_cost.size()) / (total_ms / 1000.0));
  v["sim_ttft_p50_ms"] = exact(ttft);
  v["sim_ttft_p95_ms"] = exact(ttft);
  v["sim_ttft.samples"] = exact(1.0);
  v["sim_itl_p50_ms"] = exact(pct(gaps, 50.0));
  v["sim_itl_p99_ms"] = exact(pct(gaps, 99.0));
  v["sim_itl.samples"] = exact(static_cast<double>(gaps.size()));
  v["sim_slo_attain"] =
      exact(ttft <= spec.slo_ttft_ms && mean_itl <= spec.slo_itl_ms ? 1.0 : 0.0);
  v["recall_at_b"] = exact(runs[0].recall);
  v["recall_at_b.quest"] = exact(runs[1].recall);
  v["recall_at_b.infinigen"] = exact(runs[2].recall);
  v["recall_at_b.full_kv"] = exact(runs[3].recall);
  v["attn_output_err"] = exact(runs[0].output_error);
  return v;
}

Result run_offline_workload(const Options& opt) {
  const ckv::Rng root(opt.seed);
  OfflineSpec spec;
  spec.prompt_len -= root.fork("length").uniform_int(0, spec.prompt_jitter);
  const ckv::LatencyModel latency = paper_latency();
  const std::uint64_t context_seed = root.fork("context").seed();
  ckv::SimShape shape;
  shape.num_layers = 1;
  shape.num_heads = 2;
  shape.head_dim = 64;
  ckv::ProceduralParams params;
  params.head_dim = 64;
  params.num_topics = 64;
  const ckv::ClusterKVConfig clusterkv = paper_clusterkv();
  // runs[] follow this order: ClusterKV, Quest, InfiniGen, Full KV.
  const std::vector<ckv::SelectorFactory> methods = {
      ckv::make_clusterkv_factory(clusterkv, root.fork("engine").seed()),
      quest_factory(),
      infinigen_factory(),
      ckv::make_full_kv_factory(),
  };
  const auto n_methods = static_cast<Index>(methods.size());

  Result result;
  result.slo_ttft_ms = spec.slo_ttft_ms;
  result.slo_itl_ms = spec.slo_itl_ms;
  std::vector<double> setup_cpu, setup_wall, timed_cpu, timed_wall;
  double traced_setup_s = 0.0;
  double traced_wall_s = 0.0;

  // One pass: set-up (every method's context, built concurrently on the
  // pool), then each method's prefill and decode steps.
  const auto pass = [&](SpanRecorder* rec) {
    const HostTimer setup_timer;
    const double build_start = rec != nullptr ? rec->now_us() : 0.0;
    std::vector<std::unique_ptr<ckv::ProceduralContextModel>> contexts(
        static_cast<std::size_t>(n_methods));
    ckv::parallel_for(0, n_methods, [&](Index i) {
      contexts[static_cast<std::size_t>(i)] =
          std::make_unique<ckv::ProceduralContextModel>(shape, params, context_seed,
                                                        spec.prompt_len);
    });
    if (rec != nullptr) {
      rec->record({"context_build", "model", build_start, rec->now_us(), rec->next_id(),
                   -1, -1, 0});
    }
    const double setup_w = setup_timer.wall_s();
    const double setup_c = setup_timer.cpu_s();

    const HostTimer timed;
    std::vector<QualityRun> runs;
    for (Index i = 0; i < n_methods; ++i) {
      const auto& method = methods[static_cast<std::size_t>(i)];
      runs.push_back(run_quality(
          *contexts[static_cast<std::size_t>(i)],
          rec != nullptr ? timed_factory(method, *rec, i) : method,
          spec.budget, spec.decode_steps, rec));
    }
    if (rec != nullptr) {
      traced_setup_s = setup_w;
      traced_wall_s = timed.wall_s();
    } else {
      setup_cpu.push_back(setup_c);
      setup_wall.push_back(setup_w);
      timed_cpu.push_back(timed.cpu_s());
      timed_wall.push_back(timed.wall_s());
    }
    result.attempted += n_methods;
    return runs;
  };

  VirtualRecord first;
  const auto started = Clock::now();
  const double untraced_seconds = opt.trace ? opt.seconds / 2.0 : opt.seconds;
  for (;;) {
    const auto replay_start = Clock::now();
    const std::vector<QualityRun> runs = pass(nullptr);
    const VirtualRecord v = offline_virtual(spec, latency, clusterkv, runs);
    if (result.replays == 0) {
      first = v;
      bool in_range = true;
      for (const QualityRun& run : runs) {
        in_range = in_range && run.recall >= 0.0 && run.recall <= 1.0;
      }
      add_check(result.checks, "recall_at_b in [0, 1] for every method", in_range);
      add_check(result.checks, "Full KV recall == 1.0 exactly", runs[3].recall == 1.0,
                exact(runs[3].recall));
      add_check(result.checks, "selection was forced (context > budget)",
                runs[0].recall_steps > 0 && runs[3].recall_steps > 0);
    } else {
      compare_virtual(first, v, replay_check_name(result.replays), result.checks);
    }
    ++result.replays;
    if (!another_fits(started, replay_start, untraced_seconds)) {
      break;
    }
  }
  result.virtual_record = first;
  result.cpu_timed_s = median(timed_cpu);
  result.cpu_setup_s = median(setup_cpu);

  if (!opt.trace) {
    const auto v = [&](const char* key) { return std::stod(first.at(key)); };
    const double tokens =
        static_cast<double>(n_methods * (spec.prompt_len + spec.decode_steps));
    const auto gaps_n = static_cast<Index>(spec.decode_steps - 1);
    result.metrics = {
        {"host_tok_per_s", tokens / median(timed_wall), "tok/s",
         static_cast<Index>(timed_wall.size())},
        {"setup_s", median(setup_wall), "s", static_cast<Index>(setup_wall.size())},
        {"peak_rss_mb", peak_rss_mb(), "MB", 1},
        {"sim_tok_per_s", v("sim_tok_per_s"), "tok/s", 1},
        {"sim_ttft_p50_ms", v("sim_ttft_p50_ms"), "ms", 1},
        {"sim_ttft_p95_ms", v("sim_ttft_p95_ms"), "ms", 1},
        {"sim_itl_p50_ms", v("sim_itl_p50_ms"), "ms", gaps_n},
        {"sim_itl_p99_ms", v("sim_itl_p99_ms"), "ms", gaps_n},
        {"sim_slo_attain", v("sim_slo_attain"), "frac", 1},
        {"recall_at_b", v("recall_at_b"), "frac", 1},
        {"recall_at_b.quest", v("recall_at_b.quest"), "frac", 1},
    };
    return result;
  }

  SpanRecorder recorder(ckv::parallel_worker_count());
  const std::vector<QualityRun> traced = pass(&recorder);
  compare_virtual(first, offline_virtual(spec, latency, clusterkv, traced),
                  kTracedCheckName, result.checks);
  const std::vector<Span> spans = recorder.all_spans();
  result.metrics =
      layer_metrics(analyse_spans(spans), recorder.total_counts(), first, traced_setup_s,
                    traced_wall_s / median(timed_wall) - 1.0, 0.0, 0.0, {});
  if (!opt.spans_out.empty()) {
    write_spans(opt.spans_out, recorder, spans);
  }
  return result;
}

// ---------------------------------------------------------------------------
// Output

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += (c == '\n') ? ' ' : c;
  }
  return out + "\"";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __VERSION__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

void print_result(const Options& opt, const Result& r) {
  bool correct = true;
  for (const Check& c : r.checks) {
    correct = correct && c.ok;
  }
  std::ostringstream out;
  out << "{\"workload\": " << json_string(opt.workload) << ", \"seed\": " << opt.seed
      << ", \"trace\": " << (opt.trace ? 1 : 0)
      << ", \"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ", \"replays\": " << r.replays << ", \"env\": {\"workers\": "
      << ckv::parallel_worker_count()
      << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
      << ", \"lto\": " << json_string(PERFBENCH_LTO)
      << ", \"compiler\": " << json_string(compiler()) << "}, \"slo\": {\"ttft_ms\": "
      << exact(r.slo_ttft_ms) << ", \"itl_ms\": " << exact(r.slo_itl_ms)
      << "}, \"host_cpu\": {\"timed_s\": " << exact(r.cpu_timed_s)
      << ", \"setup_s\": " << exact(r.cpu_setup_s) << "}, \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    out << (i > 0 ? ", " : "") << json_string(m.name)
        << ": {\"value\": " << exact(m.value) << ", \"unit\": " << json_string(m.unit)
        << ", \"samples\": " << m.samples << "}";
  }
  out << "}, \"virtual\": {";
  bool first = true;
  for (const auto& [key, value] : r.virtual_record) {
    out << (first ? "" : ", ") << json_string(key) << ": " << json_string(value);
    first = false;
  }
  out << "}, \"checks\": [";
  for (std::size_t i = 0; i < r.checks.size(); ++i) {
    const Check& c = r.checks[i];
    out << (i > 0 ? ", " : "") << "{\"name\": " << json_string(c.name)
        << ", \"ok\": " << (c.ok ? "true" : "false")
        << ", \"detail\": " << json_string(c.detail) << "}";
  }
  out << "]}";
  std::cout << out.str() << "\n";
}

int usage(const std::string& error) {
  std::cerr << "error: " << error
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--spans-out <file>]\n";
  return 2;
}

int run(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--spans-out") {
      opt.spans_out = value;
    } else {
      return usage("unknown flag " + flag);
    }
  }
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::cerr << "error: refusing to time a " << PERFBENCH_BUILD_TYPE
              << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 3;
  }
  Result result;
  if (opt.workload == kOfflineName) {
    result = run_offline_workload(opt);
  } else {
    const ServeSpec* spec = nullptr;
    for (const ServeSpec& s : kServeSpecs) {
      if (opt.workload == s.name) {
        spec = &s;
      }
    }
    if (spec == nullptr) {
      return usage("unknown workload '" + opt.workload + "'");
    }
    result = run_serve_workload(*spec, opt);
  }
  print_result(opt, result);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
