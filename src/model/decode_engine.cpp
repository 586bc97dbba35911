#include "model/decode_engine.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <optional>

#include "metrics/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/softmax.hpp"
#include "tensor/topk.hpp"
#include "tensor/vec_ops.hpp"
#include "util/parallel.hpp"

namespace ckv {

namespace {

/// One query's quality sample on a measured step (see recall_stat).
struct QualitySample {
  double recall = 0.0;
  double coverage = 0.0;
  double error = 0.0;
};

}  // namespace

struct DecodeEngine::HeadStep {
  Index tokens_selected = 0;
  Index tokens_fetched = 0;
  Index tokens_cache_hit = 0;
  Index tokens_prefetch_hit = 0;
  Index tokens_prefetch_issued = 0;
  /// One sample per query of the GQA group, on measured steps only.
  std::vector<QualitySample> quality;
};

DecodeEngine::DecodeEngine(ProceduralContextModel& model,
                           const SelectorFactory& factory,
                           const DecodeEngineConfig& config)
    : model_(model),
      config_(config),
      bank_(model.shape().num_layers, model.shape().num_heads, model.shape().head_dim,
            factory) {
  expects(config.budget > 0, "DecodeEngine: budget must be positive");
  expects(config.full_attention_layers >= 0 &&
              config.full_attention_layers <= model.shape().num_layers,
          "DecodeEngine: full_attention_layers out of range");
}

void DecodeEngine::for_each_head(const std::function<void(Index, Index)>& body) {
  const Index layers = model_.shape().num_layers;
  const Index heads = model_.shape().num_heads;
  const Index tasks = layers * heads;
  const int workers = parallel_worker_count();
  if (workers == 1 || tasks < workers) {
    // One worker, or fewer heads than workers: a task per head would idle
    // the spare workers and serialize the kernels nested in each head, so
    // the heads run in order on the caller and those kernels keep the
    // whole pool. Same results and the same trace events as the fan-out.
    for (Index l = 0; l < layers; ++l) {
      for (Index h = 0; h < heads; ++h) {
        body(l, h);
      }
    }
    return;
  }
  auto& tr = obs::tracer();
  const bool tracing = tr.enabled();
  const obs::Tracer::Ambient ambient = tr.ambient();
  // No buffers (and no allocation) while the tracer is off: disabled
  // record calls never reach a capture.
  std::vector<obs::TraceBuffer> buffers(tracing ? static_cast<std::size_t>(tasks) : 0);
  parallel_for(0, tasks, [&](Index task) {
    std::optional<obs::Tracer::CaptureScope> capture;
    if (tracing) {
      tr.set_ambient(ambient);
      capture.emplace(buffers[static_cast<std::size_t>(task)]);
    }
    body(task / heads, task % heads);
  });
  for (obs::TraceBuffer& buffer : buffers) {
    tr.commit(buffer);
  }
}

void DecodeEngine::run_prefill() {
  expects(!prefilled_, "DecodeEngine::run_prefill: already prefilled");
  expects(prefill_done_ == 0,
          "DecodeEngine::run_prefill: chunked prefill already started; finish "
          "it with prefill_chunk");
  for_each_head([this](Index l, Index h) {
    const auto& stream = model_.head(l, h);
    bank_.at(l, h).observe_prefill(stream.keys(), stream.values());
  });
  prefill_done_ = model_.prompt_len();
  prefilled_ = true;
}

Index DecodeEngine::prefill_chunk(Index max_tokens) {
  expects(max_tokens > 0, "DecodeEngine::prefill_chunk: max_tokens must be > 0");
  if (prefilled_) {
    return 0;
  }
  const Index prompt = model_.prompt_len();
  const Index begin = prefill_done_;
  const Index end = std::min<Index>(prompt, begin + max_tokens);
  const bool last = end == prompt;
  for_each_head([&](Index l, Index h) {
    const auto& stream = model_.head(l, h);
    auto& selector = bank_.at(l, h);
    if (selector.supports_chunked_prefill()) {
      selector.observe_prefill_chunk(stream.keys().row_slice(begin, end),
                                     stream.values().row_slice(begin, end), last);
    } else if (last) {
      // Chunk-oblivious methods build whole-prompt state once the final
      // chunk lands; the scheduler has billed every chunk's latency by
      // then, so only the state construction is deferred, not the time.
      selector.observe_prefill(stream.keys(), stream.values());
    }
  });
  prefill_done_ = end;
  prefilled_ = last;
  return end - begin;
}

void DecodeEngine::decode_head(Index step, Index layer, Index head, HeadStep& out,
                               std::span<float> features) {
  auto& stream = model_.head(layer, head);
  auto& selector = bank_.at(layer, head);
  const Index group = model_.shape().queries_per_kv;
  const auto head_dim = static_cast<std::size_t>(model_.shape().head_dim);

  // The generated token joins the context before selection: its KV is on
  // the fast tier (ClusterKV's pending buffer / Quest's partial page).
  stream.append_generated();
  const Index n = stream.size();
  selector.observe_decode(stream.keys().row(n - 1), stream.values().row(n - 1));

  // GQA: the query-head group shares one selection per KV head. The
  // selection query is the group sum — centroid/page scores are linear
  // in q, so this equals summing the group's scores.
  std::vector<std::vector<float>> group_queries;
  group_queries.reserve(static_cast<std::size_t>(group));
  for (Index sub = 0; sub < group; ++sub) {
    group_queries.push_back(stream.query(step, sub));
  }
  std::vector<float> selection_query = group_queries.front();
  for (Index sub = 1; sub < group; ++sub) {
    add_in_place(selection_query, group_queries[static_cast<std::size_t>(sub)]);
  }

  const bool selection_active = layer >= config_.full_attention_layers;
  std::vector<Index> selected;
  if (selection_active) {
    SelectionResult sel = selector.select(selection_query, config_.budget);
    expects(std::adjacent_find(sel.indices.begin(), sel.indices.end(),
                               std::greater_equal<>()) == sel.indices.end() &&
                (sel.indices.empty() ||
                 (sel.indices.front() >= 0 && sel.indices.back() < n)),
            "DecodeEngine::decode_step: selector broke the SelectionResult "
            "contract (indices must be ascending, deduplicated context "
            "positions)");
    out.tokens_selected = static_cast<Index>(sel.indices.size());
    out.tokens_fetched = sel.tokens_fetched;
    out.tokens_cache_hit = sel.tokens_cache_hit;
    out.tokens_prefetch_hit = sel.tokens_prefetch_hit;
    out.tokens_prefetch_issued = sel.tokens_prefetch_issued;
    selected = std::move(sel.indices);
  } else {
    selected.resize(static_cast<std::size_t>(n));
    std::iota(selected.begin(), selected.end(), Index{0});
  }

  // Recall/coverage are only measured on meaningful steps (context
  // larger than the budget): when everything fits, every method
  // trivially recalls 1.0 and the sample only dilutes comparisons (see
  // recall_stat's contract in the header). Exact attention feeds nothing
  // else, so it is only computed on those steps.
  const bool measured = selection_active && n > config_.budget;
  for (Index sub = 0; sub < group; ++sub) {
    const auto& query = group_queries[static_cast<std::size_t>(sub)];
    const auto full_scores = stream.attention_scores(query);

    // Approximate attention output over the shared selected subset.
    std::vector<float> sel_scores(selected.size());
    for (std::size_t i = 0; i < selected.size(); ++i) {
      sel_scores[i] = full_scores[static_cast<std::size_t>(selected[i])];
    }
    std::vector<float> approx_out(head_dim);
    attention_output(sel_scores, selected, stream.values(), approx_out);

    if (config_.attention_feedback && sub == 0) {
      std::vector<float> probs = sel_scores;
      softmax_in_place(probs);
      selector.observe_attention(selected, probs);
    }

    if (measured) {
      // One softmax over the whole context serves both the exact output
      // and the attention-mass coverage.
      std::vector<float> full_probs = full_scores;
      softmax_in_place(full_probs);
      std::vector<float> full_out(head_dim);
      weighted_value_sum(full_probs, stream.values(), full_out);

      QualitySample sample;
      // Recall of important tokens (Fig. 11): both sets sized by budget.
      const Index b = std::min<Index>(config_.budget, n);
      sample.recall = recall_of(selected, top_k_indices(full_scores, b));

      // Attention-mass coverage of the selected set.
      for (const Index t : selected) {
        sample.coverage += static_cast<double>(full_probs[static_cast<std::size_t>(t)]);
      }

      // Relative output error.
      std::vector<float> diff(head_dim);
      for (std::size_t i = 0; i < head_dim; ++i) {
        diff[i] = approx_out[i] - full_out[i];
      }
      const double denom = norm2(full_out);
      sample.error = denom > 0.0 ? norm2(diff) / denom : 0.0;
      out.quality.push_back(sample);
    }

    if (!features.empty()) {
      std::copy(approx_out.begin(), approx_out.end(),
                features.subspan(static_cast<std::size_t>(sub) * head_dim).begin());
    }
  }
}

StepResult DecodeEngine::decode_step(Index step) {
  expects(prefilled_, "DecodeEngine::decode_step: run_prefill first");
  expects(step == next_step_, "DecodeEngine::decode_step: steps must be sequential");
  ++next_step_;

  const Index layers = model_.shape().num_layers;
  const Index heads = model_.shape().num_heads;
  const auto slice = static_cast<std::size_t>(model_.shape().queries_per_kv *
                                              model_.shape().head_dim);
  StepResult result;
  // Last-layer attention outputs in (head, sub-query) order; each head's
  // task fills its own slice.
  result.features.resize(static_cast<std::size_t>(heads) * slice);
  std::vector<HeadStep> slots(static_cast<std::size_t>(layers * heads));
  for_each_head([&](Index l, Index h) {
    std::span<float> features;
    if (l == layers - 1) {
      features = std::span<float>(result.features)
                     .subspan(static_cast<std::size_t>(h) * slice, slice);
    }
    decode_head(step, l, h, slots[static_cast<std::size_t>(l * heads + h)], features);
  });

  // Head-order reduction (the class comment's contract).
  RunningStat step_recall;
  RunningStat step_coverage;
  RunningStat step_error;
  for (const HeadStep& slot : slots) {
    result.tokens_selected += slot.tokens_selected;
    result.tokens_fetched += slot.tokens_fetched;
    result.tokens_cache_hit += slot.tokens_cache_hit;
    result.tokens_prefetch_hit += slot.tokens_prefetch_hit;
    result.tokens_prefetch_issued += slot.tokens_prefetch_issued;
    for (const QualitySample& sample : slot.quality) {
      step_recall.add(sample.recall);
      step_coverage.add(sample.coverage);
      step_error.add(sample.error);
    }
  }

  if (step_recall.count() > 0) {
    result.mean_recall = step_recall.mean();
    result.mean_coverage = step_coverage.mean();
    result.mean_output_error = step_error.mean();
    recall_.add(result.mean_recall);
    coverage_.add(result.mean_coverage);
    output_error_.add(result.mean_output_error);
  } else {
    // No selection was forced anywhere this step (every context fit its
    // budget, or every layer ran full attention): attention was computed
    // exactly, so the step is vacuously lossless. Reporting it as 1.0
    // recall / 1.0 coverage / 0.0 error keeps per-step consumers
    // (workloads blending quality) honest, while the engine aggregates
    // skip it entirely — a lossless step must neither read as catastrophic
    // nor dilute the selection-forced average.
    result.mean_recall = 1.0;
    result.mean_coverage = 1.0;
    result.mean_output_error = 0.0;
  }
  total_fetched_ += result.tokens_fetched;
  total_cache_hits_ += result.tokens_cache_hit;
  total_prefetch_hits_ += result.tokens_prefetch_hit;
  total_prefetch_issued_ += result.tokens_prefetch_issued;
  return result;
}

}  // namespace ckv
