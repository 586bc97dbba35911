#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "baselines/full_kv.hpp"
#include "baselines/h2o.hpp"
#include "baselines/infinigen.hpp"
#include "baselines/quest.hpp"
#include "baselines/streaming_llm.hpp"
#include "core/clusterkv_engine.hpp"
#include "model/decode_engine.hpp"
#include "obs/trace.hpp"
#include "worker_guard.hpp"

namespace ckv {
namespace {

SimShape small_shape() {
  SimShape s;
  s.num_layers = 2;
  s.num_heads = 2;
  s.head_dim = 32;
  return s;
}

ProceduralParams small_params() {
  ProceduralParams p;
  p.head_dim = 32;
  p.num_topics = 16;
  return p;
}

ClusterKVConfig small_ckv() {
  ClusterKVConfig c;
  c.sink_tokens = 8;
  c.tokens_per_cluster = 40;
  c.decode_interval = 16;
  c.decode_clusters = 2;
  return c;
}

TEST(DecodeEngine, FullKVIsPerfect) {
  ProceduralContextModel model(small_shape(), small_params(), 1, 400);
  DecodeEngineConfig config;
  config.budget = 64;
  config.full_attention_layers = 1;
  DecodeEngine engine(model, make_full_kv_factory(), config);
  engine.run_prefill();
  for (Index s = 0; s < 4; ++s) {
    const auto step = engine.decode_step(s);
    EXPECT_DOUBLE_EQ(step.mean_recall, 1.0);
    EXPECT_NEAR(step.mean_coverage, 1.0, 1e-6);
    EXPECT_NEAR(step.mean_output_error, 0.0, 1e-6);
  }
}

TEST(DecodeEngine, StepsMustBeSequential) {
  ProceduralContextModel model(small_shape(), small_params(), 2, 100);
  DecodeEngineConfig config;
  DecodeEngine engine(model, make_full_kv_factory(), config);
  EXPECT_THROW(engine.decode_step(0), std::invalid_argument);  // prefill first
  engine.run_prefill();
  EXPECT_THROW(engine.decode_step(1), std::invalid_argument);
  EXPECT_NO_THROW(engine.decode_step(0));
  EXPECT_THROW(engine.run_prefill(), std::invalid_argument);
}

// prefill_chunk is the re-entrant mirror of decode_next: consuming the
// prompt in slices must leave every selector with the same context, and
// for chunk-oblivious methods (full KV defers to one whole-prompt
// observe_prefill at the final chunk) the selection is bit-identical.
TEST(DecodeEngine, ChunkedPrefillMatchesWholePromptForChunkObliviousMethods) {
  const Index prompt = 250;
  ProceduralContextModel whole_model(small_shape(), small_params(), 5, prompt);
  ProceduralContextModel chunk_model(small_shape(), small_params(), 5, prompt);
  DecodeEngineConfig config;
  config.budget = 64;
  config.full_attention_layers = 1;

  DecodeEngine whole(whole_model, make_quest_factory(), config);
  whole.run_prefill();

  DecodeEngine chunked(chunk_model, make_quest_factory(), config);
  EXPECT_FALSE(chunked.prefilled());
  Index consumed = 0;
  Index calls = 0;
  while (!chunked.prefilled()) {
    consumed += chunked.prefill_chunk(64);
    ++calls;
  }
  EXPECT_EQ(consumed, prompt);
  EXPECT_EQ(calls, 4);  // ceil(250 / 64)
  EXPECT_EQ(chunked.prefill_tokens_done(), prompt);
  EXPECT_EQ(chunked.prefill_chunk(64), 0);  // exhausted: consumes nothing

  for (Index s = 0; s < 4; ++s) {
    const auto a = whole.decode_step(s);
    const auto b = chunked.decode_step(s);
    EXPECT_EQ(a.tokens_selected, b.tokens_selected);
    EXPECT_DOUBLE_EQ(a.mean_recall, b.mean_recall);
    EXPECT_DOUBLE_EQ(a.mean_coverage, b.mean_coverage);
  }
}

TEST(DecodeEngine, ChunkedPrefillDrivesClusterKVIncrementally) {
  const Index prompt = 300;
  ProceduralContextModel model(small_shape(), small_params(), 6, prompt);
  DecodeEngineConfig config;
  config.budget = 64;
  config.full_attention_layers = 1;
  DecodeEngine engine(model, make_clusterkv_factory(small_ckv(), 2), config);
  while (!engine.prefilled()) {
    engine.prefill_chunk(50);
    // Mixing the one-shot path into an ongoing chunked prefill is a
    // contract violation, not silent double feeding.
    EXPECT_THROW(engine.run_prefill(), std::invalid_argument);
  }
  // Every selector saw the full prompt and clustered all non-sink tokens.
  auto& bank = engine.selectors();
  for (Index l = 0; l < small_shape().num_layers; ++l) {
    for (Index h = 0; h < small_shape().num_heads; ++h) {
      const auto* ckv = dynamic_cast<const ClusterKVEngine*>(&bank.at(l, h));
      ASSERT_NE(ckv, nullptr);
      EXPECT_EQ(ckv->context_size(), prompt);
      EXPECT_EQ(ckv->pending_count(), 0);  // last chunk flushed the tail
      EXPECT_EQ(ckv->centroid_store().token_count(),
                prompt - small_ckv().sink_tokens);
    }
  }
  const auto step = engine.decode_step(0);
  EXPECT_GT(step.mean_recall, 0.0);
}

TEST(DecodeEngine, FeaturesHaveLastLayerWidth) {
  ProceduralContextModel model(small_shape(), small_params(), 3, 100);
  DecodeEngineConfig config;
  DecodeEngine engine(model, make_full_kv_factory(), config);
  engine.run_prefill();
  const auto step = engine.decode_step(0);
  EXPECT_EQ(step.features.size(), 2u * 32u);  // heads * head_dim
}

TEST(DecodeEngine, ClusterKVBeatsStreamingWindow) {
  const std::uint64_t seed = 4;
  const Index budget = 96;

  ProceduralContextModel m1(small_shape(), small_params(), seed, 800);
  DecodeEngineConfig config;
  config.budget = budget;
  config.full_attention_layers = 1;
  DecodeEngine ckv(m1, make_clusterkv_factory(small_ckv(), 1), config);
  ckv.run_prefill();

  ProceduralContextModel m2(small_shape(), small_params(), seed, 800);
  DecodeEngine window(m2, make_streaming_llm_factory(), config);
  window.run_prefill();

  for (Index s = 0; s < 16; ++s) {
    ckv.decode_step(s);
    window.decode_step(s);
  }
  EXPECT_GT(ckv.recall_stat().mean(), window.recall_stat().mean());
  EXPECT_GT(ckv.coverage_stat().mean(), window.coverage_stat().mean());
}

TEST(DecodeEngine, FullAttentionLayersBypassSelection) {
  ProceduralContextModel model(small_shape(), small_params(), 5, 300);
  DecodeEngineConfig config;
  config.budget = 32;
  config.full_attention_layers = 2;  // all layers full: metrics over none
  DecodeEngine engine(model, make_quest_factory(), config);
  engine.run_prefill();
  const auto step = engine.decode_step(0);
  // No selection-active layer contributes: attention was exact everywhere,
  // so the step reports vacuously lossless quality and the engine
  // aggregates collect no sample (recall_steps stays 0).
  EXPECT_DOUBLE_EQ(step.mean_recall, 1.0);
  EXPECT_DOUBLE_EQ(step.mean_coverage, 1.0);
  EXPECT_DOUBLE_EQ(step.mean_output_error, 0.0);
  EXPECT_EQ(step.tokens_selected, 0);
  EXPECT_EQ(engine.recall_steps(), 0);
}

TEST(DecodeEngine, CacheCountersFlowThrough) {
  ProceduralContextModel model(small_shape(), small_params(), 6, 800);
  DecodeEngineConfig config;
  config.budget = 96;
  DecodeEngine engine(model, make_clusterkv_factory(small_ckv(), 2), config);
  engine.run_prefill();
  Index fetched = 0;
  Index hits = 0;
  for (Index s = 0; s < 12; ++s) {
    const auto step = engine.decode_step(s);
    fetched += step.tokens_fetched;
    hits += step.tokens_cache_hit;
  }
  EXPECT_GT(fetched, 0);
  EXPECT_GT(hits, 0);  // consecutive steps share clusters (R = 1)
  EXPECT_EQ(engine.total_fetched(), fetched);
  EXPECT_EQ(engine.total_cache_hits(), hits);
}

TEST(DecodeEngine, BudgetValidation) {
  ProceduralContextModel model(small_shape(), small_params(), 7, 50);
  DecodeEngineConfig config;
  config.budget = 0;
  EXPECT_THROW(DecodeEngine(model, make_full_kv_factory(), config),
               std::invalid_argument);
  config.budget = 10;
  config.full_attention_layers = 5;
  EXPECT_THROW(DecodeEngine(model, make_full_kv_factory(), config),
               std::invalid_argument);
}

// ---- per-head fan-out: bit-identical at any worker count ----

/// Everything observable about one engine run: each step's StepResult,
/// the engine aggregates, and the trace events the run recorded.
struct EngineRun {
  std::vector<StepResult> steps;
  std::vector<double> aggregates;
  std::vector<std::int64_t> totals;
  std::vector<std::string> trace;
};

struct FanOutCase {
  const char* name;
  SelectorFactory factory;
  bool attention_feedback = false;
  Index prefill_chunk = 0;  ///< 0 = one-shot run_prefill
};

std::vector<FanOutCase> fan_out_cases() {
  ClusterKVConfig repairing = small_ckv();
  repairing.repair_decode_interval = 4;
  InfiniGenConfig infinigen;
  infinigen.partial_dim = 8;
  infinigen.calibration_tokens = 128;
  H2OConfig h2o;
  h2o.budget = 64;
  return {
      {"clusterkv", make_clusterkv_factory(small_ckv(), 3)},
      {"clusterkv-chunked-repair", make_clusterkv_factory(repairing, 3), false, 96},
      {"quest", make_quest_factory()},
      {"infinigen", make_infinigen_factory(infinigen)},
      {"h2o", make_h2o_factory(h2o), true},
      {"streaming", make_streaming_llm_factory()},
      {"full", make_full_kv_factory()},
  };
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

EngineRun run_engine(const FanOutCase& c, int workers) {
  set_parallel_workers(workers);
  SimShape shape;
  shape.num_layers = 2;
  shape.num_heads = 3;
  shape.head_dim = 32;
  shape.queries_per_kv = 2;
  ProceduralParams params = small_params();
  params.queries_per_kv = 2;
  ProceduralContextModel model(shape, params, 21, 420);
  DecodeEngineConfig config;
  config.budget = 64;
  config.full_attention_layers = 1;
  config.attention_feedback = c.attention_feedback;

  auto& tr = obs::tracer();
  tr.enable();
  tr.set_track(5);
  tr.set_virtual_now_ms(2.5);
  DecodeEngine engine(model, c.factory, config);
  if (c.prefill_chunk > 0) {
    while (!engine.prefilled()) {
      engine.prefill_chunk(c.prefill_chunk);
    }
  } else {
    engine.run_prefill();
  }
  EngineRun run;
  for (Index s = 0; s < 10; ++s) {
    tr.set_virtual_now_ms(3.0 + static_cast<double>(s));
    run.steps.push_back(engine.decode_step(s));
  }
  for (const RunningStat* stat :
       {&engine.recall_stat(), &engine.coverage_stat(), &engine.output_error_stat()}) {
    run.aggregates.insert(run.aggregates.end(),
                          {stat->mean(), stat->variance(), stat->min(), stat->max(),
                           static_cast<double>(stat->count())});
  }
  run.aggregates.push_back(engine.mean_recall());
  run.aggregates.push_back(engine.mean_coverage());
  run.totals = {engine.total_fetched(), engine.total_cache_hits(),
                engine.total_prefetch_hits(), engine.total_prefetch_issued(),
                engine.recall_steps()};
  for (const obs::TraceEvent& e : tr.events()) {
    run.trace.push_back(tr.name_of(e.name) + "@" + std::to_string(e.track) + "/" +
                        std::to_string(bits(e.virtual_us)) + "/" +
                        std::to_string(e.args[0]) + "," + std::to_string(e.args[1]));
  }
  tr.disable();
  return run;
}

void expect_bit_equal(const EngineRun& a, const EngineRun& b, const std::string& what) {
  ASSERT_EQ(a.steps.size(), b.steps.size()) << what;
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    const StepResult& x = a.steps[i];
    const StepResult& y = b.steps[i];
    EXPECT_EQ(bits(x.mean_recall), bits(y.mean_recall)) << what << " step " << i;
    EXPECT_EQ(bits(x.mean_coverage), bits(y.mean_coverage)) << what << " step " << i;
    EXPECT_EQ(bits(x.mean_output_error), bits(y.mean_output_error))
        << what << " step " << i;
    EXPECT_EQ(x.tokens_selected, y.tokens_selected) << what << " step " << i;
    EXPECT_EQ(x.tokens_fetched, y.tokens_fetched) << what << " step " << i;
    EXPECT_EQ(x.tokens_cache_hit, y.tokens_cache_hit) << what << " step " << i;
    EXPECT_EQ(x.tokens_prefetch_hit, y.tokens_prefetch_hit) << what << " step " << i;
    EXPECT_EQ(x.tokens_prefetch_issued, y.tokens_prefetch_issued)
        << what << " step " << i;
    ASSERT_EQ(x.features.size(), y.features.size()) << what << " step " << i;
    for (std::size_t f = 0; f < x.features.size(); ++f) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(x.features[f]),
                std::bit_cast<std::uint32_t>(y.features[f]))
          << what << " step " << i << " feature " << f;
    }
  }
  ASSERT_EQ(a.aggregates.size(), b.aggregates.size()) << what;
  for (std::size_t i = 0; i < a.aggregates.size(); ++i) {
    EXPECT_EQ(bits(a.aggregates[i]), bits(b.aggregates[i])) << what << " aggregate " << i;
  }
  EXPECT_EQ(a.totals, b.totals) << what;
  EXPECT_EQ(a.trace, b.trace) << what;
}

// Each (layer, head) is one pool task and the slots are reduced in head
// order, so nothing a run reports — StepResult fields, features, engine
// aggregates, trace events — may depend on the worker count. The shape
// has GQA groups and a full-attention layer, so every reduction path is
// exercised. Its 6 heads fan out at 1, 2 and 4 workers; at 8 workers they
// run as a plain head loop with the nested kernels on the pool, which
// must match too.
TEST(DecodeEngineFanOut, BitIdenticalAcrossWorkerCounts) {
  WorkerGuard guard;
  for (const FanOutCase& c : fan_out_cases()) {
    const EngineRun serial = run_engine(c, 1);
    ASSERT_EQ(serial.steps.size(), 10u) << c.name;
    EXPECT_GT(serial.totals.back(), 0) << c.name << ": no selection-forced step";
    EXPECT_EQ(serial.steps.front().features.size(), 3u * 2u * 32u) << c.name;
    if (std::string(c.name).starts_with("clusterkv")) {
      // Its tiered store records fetch instants from inside head tasks.
      EXPECT_GT(serial.trace.size(), 6u) << c.name;
    }
    for (const int workers : {2, 4, 8}) {
      expect_bit_equal(serial, run_engine(c, workers),
                       std::string(c.name) + " @" + std::to_string(workers));
    }
  }
}

/// Returns a fixed index list from select(), whatever the context.
class FixedSelector final : public KVSelector {
 public:
  explicit FixedSelector(std::vector<Index> indices) : indices_(std::move(indices)) {}
  [[nodiscard]] std::string name() const override { return "Fixed"; }
  void observe_prefill(const Matrix& keys, const Matrix& /*values*/) override {
    size_ = keys.rows();
  }
  void observe_decode(std::span<const float> /*key*/,
                      std::span<const float> /*value*/) override {
    ++size_;
  }
  SelectionResult select(std::span<const float> /*query*/, Index /*budget*/) override {
    SelectionResult result;
    result.indices = indices_;
    return result;
  }
  [[nodiscard]] Index context_size() const override { return size_; }

 private:
  std::vector<Index> indices_;
  Index size_ = 0;
};

// The engine merges `selected` against the sorted truth set, so a
// selector that breaks SelectionResult's "ascending, deduplicated"
// contract is rejected instead of silently miscounting recall.
TEST(DecodeEngine, RejectsSelectionsBreakingTheContract) {
  const auto run_with = [](std::vector<Index> indices) {
    ProceduralContextModel model(small_shape(), small_params(), 8, 200);
    DecodeEngineConfig config;
    config.budget = 16;
    DecodeEngine engine(
        model,
        [&indices](Index, Index, Index) {
          return std::make_unique<FixedSelector>(indices);
        },
        config);
    engine.run_prefill();
    return engine.decode_step(0);
  };
  EXPECT_NO_THROW(run_with({0, 3, 7, 199}));
  EXPECT_THROW(run_with({3, 0, 7}), std::invalid_argument);    // unsorted
  EXPECT_THROW(run_with({0, 3, 3, 7}), std::invalid_argument);  // duplicate
  EXPECT_THROW(run_with({0, 3, 201}), std::invalid_argument);   // past the context
  EXPECT_THROW(run_with({-1, 3}), std::invalid_argument);       // negative
}

class BudgetMonotonicity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BudgetMonotonicity, ClusterKVCoverageGrowsWithBudget) {
  // Property: more budget never hurts coverage (averaged over steps).
  const std::uint64_t seed = GetParam();
  double previous = -1.0;
  for (const Index budget : {32, 96, 256}) {
    ProceduralContextModel model(small_shape(), small_params(), seed, 600);
    DecodeEngineConfig config;
    config.budget = budget;
    DecodeEngine engine(model, make_clusterkv_factory(small_ckv(), seed), config);
    engine.run_prefill();
    for (Index s = 0; s < 8; ++s) {
      engine.decode_step(s);
    }
    EXPECT_GT(engine.coverage_stat().mean(), previous);
    previous = engine.coverage_stat().mean();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BudgetMonotonicity, ::testing::Values(11, 22, 33));

}  // namespace
}  // namespace ckv
