// Latency model: per-step cost breakdowns for every method plus prefill,
// composed into the end-to-end latencies of Fig. 12 and Fig. 13 and the
// decode-throughput numbers of §V-C. All byte counts come from the model
// shape; dynamic quantities (cache miss rate) come from measurements of
// the actual pipeline simulation.
//
// Every quantity here is *simulated* time on the scheduler's virtual
// clock — a pure function of the schedule, independent of host speed or
// worker count. The scheduler bills it in a pre-pass before any session
// advances, which is what lets the advance phase run in parallel while
// latency columns stay byte-identical at every CKV_THREADS (wall time is
// tracked separately; see docs/PERFORMANCE.md).
#pragma once

#include <cstdint>
#include <string>

#include "model/model_config.hpp"
#include "sim/hardware_model.hpp"
#include "util/common.hpp"

namespace ckv {

/// One decode step's cost components (milliseconds).
struct StepBreakdown {
  double weights_ms = 0.0;    ///< streaming model weights from HBM
  double kv_read_ms = 0.0;    ///< reading attended KV (HBM)
  double metadata_ms = 0.0;   ///< reading selection metadata (pages/centroids)
  double selection_ms = 0.0;  ///< scoring + indexing compute
  double sync_ms = 0.0;       ///< host synchronization (per-token selection)
  double transfer_ms = 0.0;   ///< PCIe fetches after overlap
  double overhead_ms = 0.0;   ///< launches + framework per-step overhead

  [[nodiscard]] double total_ms() const noexcept {
    return weights_ms + kv_read_ms + metadata_ms + selection_ms + sync_ms +
           transfer_ms + overhead_ms;
  }
};

/// End-to-end latency of a (prompt, decode) run.
struct RunLatency {
  double prefill_ms = 0.0;
  double decode_ms = 0.0;

  [[nodiscard]] double total_ms() const noexcept { return prefill_ms + decode_ms; }
  [[nodiscard]] double decode_throughput_tps(Index decode_len) const noexcept {
    return decode_ms <= 0.0 ? 0.0
                            : static_cast<double>(decode_len) / (decode_ms / 1000.0);
  }
};

class LatencyModel {
 public:
  /// KV and weights are stored at kFp16Bytes.
  LatencyModel(const HardwareModel& hw, const ModelConfig& model);

  [[nodiscard]] const ModelConfig& model() const noexcept { return model_; }

  // ---- transfer-engine support (sim/transfer_engine) ----
  // The engine models the slow->fast wire explicitly; these expose the
  // hardware terms clusterkv_step's closed-form transfer term bills with,
  // so the two stay one parameterization (a lone session on an idle wire
  // bills exactly the closed form, which serves as the engine's oracle).

  /// Modeled slow->fast gather bandwidth (GB/s).
  [[nodiscard]] double link_gather_gbps() const noexcept {
    return hw_.pcie_gather_gbps;
  }
  /// Wire bytes of one fetched token's KV entry at model scale (the byte
  /// unit every closed-form transfer term bills with); 0 = storage width.
  [[nodiscard]] std::int64_t fetch_bytes_per_token(
      Index transfer_element_bytes = 0) const noexcept {
    return model_.kv_bytes_per_token(
        transfer_element_bytes > 0 ? transfer_element_bytes : kFp16Bytes);
  }
  /// Visible stall of `bytes` of demand traffic on a shared link running
  /// at `link_gbps` (0 = the hardware gather rate): the closed-form
  /// transfer term's formula with the wire rate as a knob, applied by the
  /// scheduler to engine-modeled queue occupancy instead of per-session
  /// bytes.
  [[nodiscard]] double contended_fetch_ms(double bytes,
                                          double link_gbps = 0.0) const noexcept {
    const double gbps = link_gbps > 0.0 ? link_gbps : hw_.pcie_gather_gbps;
    return (1.0 - hw_.transfer_overlap) * bytes / (gbps * 1e6);
  }

  // ---- prefill ----

  /// Prefill compute time (GEMMs + quadratic attention).
  [[nodiscard]] double prefill_ms(Index prompt_len) const;

  /// Compute time of prefilling `chunk_tokens` prompt tokens whose causal
  /// prefix already holds `chunk_begin` tokens (chunked prefill): GEMM
  /// flops are linear in the chunk, attention flops bill each chunk query
  /// against its full prefix, so the chunks of one prompt sum exactly to
  /// prefill_ms of the whole prompt.
  [[nodiscard]] double prefill_chunk_ms(Index chunk_begin, Index chunk_tokens) const;

  /// Clustering cost during prefill before overlap (§IV-B): n_i k-means
  /// iterations over C0 = L/80 centroids for every KV head.
  [[nodiscard]] double clustering_cost_ms(Index prompt_len, Index iterations = 10,
                                          Index tokens_per_cluster = 80) const;

  /// Visible clustering overhead after overlapping with attention/FFN of
  /// the same and next layer (Fig. 6); the paper measures 6-8% of prefill.
  [[nodiscard]] double clustering_visible_overhead_ms(Index prompt_len) const;

  /// Cost of one cross-chunk cluster-repair pass over a `context_len`
  /// context: adjacent-batch centroid-pair scoring plus per-group k-means
  /// refinement (each refine iteration re-assigns at most every clustered
  /// token against its merged group's centroids, whose average width a
  /// small constant bounds). Like §IV-B clustering it is overlappable
  /// compute, billed at the clustering efficiency. An analytic upper
  /// bound: it bills the refinement term even when the merge threshold
  /// finds no pairs (ClusterKVEngine::repair_flops exposes the measured
  /// work for calibration). 0 when repair is off (refine_iterations <= 0).
  [[nodiscard]] double repair_ms(Index context_len, Index refine_iterations,
                                 Index tokens_per_cluster = 80) const;

  // ---- per-step decode costs ----

  [[nodiscard]] StepBreakdown full_kv_step(Index context_len) const;

  /// budget = attended tokens; miss_rate = measured cluster-cache miss
  /// rate; clusters = live centroid count (C0 + decode additions);
  /// transfer_element_bytes lets cache-miss fetches cross PCIe quantized
  /// (1 = int8 per-channel, KIVI-style; 0 = storage width).
  [[nodiscard]] StepBreakdown clusterkv_step(Index context_len, Index budget,
                                             double miss_rate, Index clusters,
                                             Index transfer_element_bytes = 0) const;

  [[nodiscard]] StepBreakdown quest_step(Index context_len, Index budget,
                                         Index page_size = 16) const;

  /// InfiniGen on its FlexGen-style substrate: KV lives in host memory,
  /// per-token partial scoring on the host path with per-layer sync.
  [[nodiscard]] StepBreakdown infinigen_step(Index context_len, Index budget,
                                             Index partial_dim = 32) const;

  /// Full KV on the FlexGen-style substrate (Fig. 13a "InfiniGen (Full)"):
  /// every step streams the whole KV cache over PCIe.
  [[nodiscard]] StepBreakdown full_kv_offload_step(Index context_len) const;

  // ---- end-to-end composition ----

  enum class Method { kFullKV, kClusterKV, kQuest, kInfiniGen, kFullKVOffload };

  struct RunParams {
    Method method = Method::kFullKV;
    Index prompt_len = 8192;
    Index decode_len = 256;
    Index budget = 1024;
    double clusterkv_miss_rate = 0.37;  ///< measured default (R = 1)
    Index tokens_per_cluster = 80;
    Index decode_interval = 320;  ///< m (decode-side clustering cadence)
    Index decode_clusters = 4;    ///< C+
  };

  /// Sums per-step costs over the decode phase (context grows each step)
  /// plus prefill (and clustering overhead for ClusterKV).
  [[nodiscard]] RunLatency run_latency(const RunParams& params) const;

 private:
  [[nodiscard]] double hbm_ms(double bytes, double efficiency) const noexcept;
  [[nodiscard]] double common_overhead_ms() const noexcept;

  HardwareModel hw_;
  ModelConfig model_;
};

/// Display name for tables.
std::string to_string(LatencyModel::Method method);

}  // namespace ckv
