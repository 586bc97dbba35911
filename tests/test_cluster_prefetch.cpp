// Async cluster prefetch: deterministic prediction, the in-flight byte
// budget invariant (preemption mid-fetch included), cancel-on-session-
// release, prefetch equivalence (selection identical to sync fetch, only
// latency accounting differs), and the repair-remap regression — a repair
// rebuild landing between fetch issue and completion must relabel
// in-flight entries instead of stranding them.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/cluster_cache.hpp"
#include "core/cluster_prefetch.hpp"
#include "core/clusterkv_engine.hpp"
#include "kvcache/tiered_store.hpp"
#include "serve/session.hpp"
#include "tensor/matrix.hpp"
#include "tensor/rng.hpp"

namespace ckv {
namespace {

// ---------------------------------------------------------------- predictor

TEST(ClusterPrefetcher, PredictionIsDeterministic) {
  ClusterPrefetchConfig config;
  config.max_clusters = 3;
  ClusterPrefetcher a(config);
  ClusterPrefetcher b(config);

  const std::vector<float> scores{0.1f, 0.9f, 0.4f, 0.8f, 0.2f};
  const std::vector<Index> selected{1};
  a.observe_selection(selected, 5);
  b.observe_selection(selected, 5);
  const auto pa = a.predict(scores, selected);
  const auto pb = b.predict(scores, selected);
  EXPECT_EQ(pa, pb);
  // Best-first by blended score, the selected cluster excluded.
  EXPECT_EQ(pa, (std::vector<Index>{3, 2, 4}));
  // Re-predicting without state changes gives the same answer.
  EXPECT_EQ(a.predict(scores, selected), pa);
}

TEST(ClusterPrefetcher, PriorShiftsRankingDeterministically) {
  ClusterPrefetchConfig config;
  config.max_clusters = 1;
  config.prior_weight = 10.0;  // let the prior dominate similarity
  config.prior_decay = 0.5;
  ClusterPrefetcher prefetcher(config);

  // Cluster 2 keeps being selected; clusters 0/1 never are.
  for (int step = 0; step < 4; ++step) {
    prefetcher.observe_selection(std::vector<Index>{2}, 4);
  }
  // Similarity alone would rank cluster 3 (score 0.9) over 2 (0.1).
  const std::vector<float> scores{0.0f, 0.5f, 0.1f, 0.9f};
  EXPECT_EQ(prefetcher.predict(scores, {}), (std::vector<Index>{2}));
  EXPECT_GT(prefetcher.prior()[2], 0.9);
}

TEST(ClusterPrefetcher, RespectsDepthExclusionAndRebuild) {
  ClusterPrefetchConfig config;
  config.max_clusters = 2;
  ClusterPrefetcher prefetcher(config);
  const std::vector<float> scores{0.9f, 0.8f, 0.7f, 0.6f};

  EXPECT_EQ(prefetcher.predict(scores, {}), (std::vector<Index>{0, 1}));
  const std::vector<Index> exclude{0, 1};
  EXPECT_EQ(prefetcher.predict(scores, exclude), (std::vector<Index>{2, 3}));

  prefetcher.observe_selection(std::vector<Index>{3}, 4);
  EXPECT_GT(prefetcher.prior()[3], 0.0);
  // Repair rebuild: old cluster ids are dead, the prior resets.
  prefetcher.on_rebuild(2);
  ASSERT_EQ(prefetcher.prior().size(), 2u);
  EXPECT_DOUBLE_EQ(prefetcher.prior()[0], 0.0);
  EXPECT_DOUBLE_EQ(prefetcher.prior()[1], 0.0);

  EXPECT_TRUE(ClusterPrefetcher(ClusterPrefetchConfig{}).predict(scores, {}).empty());
  ClusterPrefetchConfig bad;
  bad.prior_decay = 1.0;
  EXPECT_THROW(ClusterPrefetcher{bad}, std::invalid_argument);
}

// ------------------------------------------------- cache in-flight states

using Selected = std::vector<std::pair<Index, std::vector<Index>>>;

TEST(ClusterCache, InFlightResolvesToPrefetchHitsAndWaste) {
  ClusterCache cache(1);
  cache.step(Selected{{0, {1, 2}}});
  // Issue cluster 1's tokens; token 1 is resident and must be filtered.
  const auto issued = cache.issue_fetch(1, std::vector<Index>{1, 5, 6});
  EXPECT_EQ(issued, (std::vector<Index>{5, 6}));
  EXPECT_EQ(cache.in_flight_tokens(), 2);
  // Double-issue is a no-op.
  EXPECT_TRUE(cache.issue_fetch(1, std::vector<Index>{5}).empty());

  // Next step selects token 5 (prefetch hit) but not 6 (waste).
  const auto r = cache.step(Selected{{0, {1, 2}}, {1, {5}}});
  EXPECT_EQ(r.hits, 2);
  EXPECT_EQ(r.misses, 1);  // token 5: fetched either way
  EXPECT_EQ(r.prefetch_hits, 1);
  EXPECT_EQ(r.prefetched_tokens, (std::vector<Index>{5}));
  EXPECT_TRUE(r.missing_tokens.empty());
  EXPECT_EQ(r.wasted_tokens, (std::vector<Index>{6}));
  EXPECT_EQ(cache.in_flight_tokens(), 0);  // one-step lifetime
  EXPECT_EQ(cache.total_prefetch_hits(), 1);
  EXPECT_EQ(cache.total_prefetch_issued(), 2);
  EXPECT_EQ(cache.total_prefetch_wasted(), 1);
}

TEST(ClusterCache, CancelFetchesDrainsInFlight) {
  ClusterCache cache(1);
  cache.issue_fetch(0, std::vector<Index>{3, 4});
  cache.issue_fetch(2, std::vector<Index>{9});
  const auto canceled = cache.cancel_fetches();
  EXPECT_EQ(canceled, (std::vector<Index>{3, 4, 9}));
  EXPECT_EQ(cache.in_flight_tokens(), 0);
  EXPECT_EQ(cache.total_prefetch_wasted(), 3);
  // Canceled fetches never count as hits later.
  const auto r = cache.step(Selected{{0, {3}}});
  EXPECT_EQ(r.prefetch_hits, 0);
  EXPECT_EQ(r.missing_tokens, (std::vector<Index>{3}));
}

// The regression the repair fix pins down: a rebuild relabeling the window
// must relabel in-flight entries too, so a prefetch issued before the
// repair still resolves as a hit after it (under the new cluster ids).
TEST(ClusterCache, RemapWindowRelabelsInFlightEntries) {
  ClusterCache cache(1);
  cache.step(Selected{{0, {1}}});
  cache.issue_fetch(1, std::vector<Index>{5, 6});

  // Repair: token 1 moves to cluster 7; tokens 5,6 move to cluster 3.
  const std::vector<Index> token_to_cluster{-1, 7, -1, -1, -1, 3, 3};
  cache.remap_window(token_to_cluster);
  ASSERT_EQ(cache.in_flight().size(), 1u);
  EXPECT_TRUE(cache.in_flight().contains(3));
  EXPECT_EQ(cache.in_flight().at(3), (std::vector<Index>{5, 6}));

  // Selecting under the new labels: the in-flight tokens hit as prefetch.
  const auto r = cache.step(Selected{{7, {1}}, {3, {5, 6}}});
  EXPECT_EQ(r.hits, 1);
  EXPECT_EQ(r.prefetch_hits, 2);
  EXPECT_TRUE(r.missing_tokens.empty());
  EXPECT_TRUE(r.wasted_tokens.empty());

  // An in-flight token with no cluster after the rebuild is a bug.
  cache.issue_fetch(3, std::vector<Index>{9});
  EXPECT_THROW(cache.remap_window(token_to_cluster), std::invalid_argument);
}

// --------------------------------------------- tiered-store reservations

TEST(TieredKVStore, FetchLifecycleReservesAndLandsBytes) {
  TieredKVStore store(4);
  Matrix keys(6, 4);
  Matrix values(6, 4);
  store.append_block(keys, values);
  store.offload_to_slow(0, 6);
  FastTierLedger ledger;
  store.attach_ledger(&ledger);
  const Index tb = store.token_bytes();

  const std::vector<Index> positions{0, 1, 2};
  EXPECT_EQ(store.begin_fetch(positions), 3);
  EXPECT_EQ(store.in_flight_count(), 3);
  EXPECT_EQ(store.fast_resident_count(), 0);
  EXPECT_EQ(ledger.bytes(), 0);
  EXPECT_EQ(ledger.reserved_bytes(), 3 * tb);
  EXPECT_EQ(ledger.total_bytes(), 3 * tb);
  EXPECT_EQ(store.stats().tokens_prefetch_issued, 3);
  // Issue accounting happens once: re-issuing in-flight or resident
  // positions moves nothing.
  EXPECT_EQ(store.begin_fetch(positions), 0);
  EXPECT_EQ(store.stats().tokens_prefetch_issued, 3);

  const std::vector<Index> landed{0, 1};
  EXPECT_EQ(store.complete_fetch(landed), 2);
  EXPECT_TRUE(store.is_fast_resident(0));
  EXPECT_FALSE(store.is_in_flight(0));
  EXPECT_EQ(ledger.bytes(), 2 * tb);
  EXPECT_EQ(ledger.reserved_bytes(), tb);
  // Bytes were counted at issue; landing adds no new transfer traffic.
  EXPECT_EQ(store.stats().bytes_to_fast, 3 * tb);
  EXPECT_EQ(store.stats().tokens_fetched, 0);  // no demand moves

  const std::vector<Index> dropped{2};
  EXPECT_EQ(store.cancel_fetch(dropped), 1);
  EXPECT_EQ(ledger.reserved_bytes(), 0);
  EXPECT_EQ(store.stats().tokens_prefetch_canceled, 1);
}

// Regression pin: a demand fetch that catches an in-flight speculative
// copy used to report 0 moved tokens and leave tokens_fetched untouched,
// so callers billed zero transfer time for a copy that may have just been
// issued. It now counts as a demand fetch (under the demand_landed split)
// while its PCIe bytes stay counted once, at issue.
TEST(TieredKVStore, EnsureResidentCountsLandedInFlightAsDemand) {
  TieredKVStore store(4);
  Matrix keys(3, 4);
  Matrix values(3, 4);
  store.append_block(keys, values);
  store.offload_to_slow(0, 3);
  const std::vector<Index> p0{0};
  store.begin_fetch(p0);
  const auto issued_bytes = store.stats().bytes_to_fast;
  // The demand path catches up with the issued copy: it lands and counts
  // as a demand-moved token, but its bytes are not re-counted.
  EXPECT_EQ(store.ensure_resident(p0), 1);
  EXPECT_TRUE(store.is_fast_resident(0));
  EXPECT_EQ(store.in_flight_count(), 0);
  EXPECT_EQ(store.stats().bytes_to_fast, issued_bytes);
  EXPECT_EQ(store.stats().tokens_fetched, 1);
  EXPECT_EQ(store.stats().demand_landed, 1);

  // A plain demand fetch is not a landing: the split stays disjoint.
  const std::vector<Index> p1{1};
  EXPECT_EQ(store.ensure_resident(p1), 1);
  EXPECT_EQ(store.stats().tokens_fetched, 2);
  EXPECT_EQ(store.stats().demand_landed, 1);
  EXPECT_EQ(store.stats().bytes_to_fast, issued_bytes + store.token_bytes());

  // merge() carries the new counter.
  TransferStats merged;
  merged.merge(store.stats());
  merged.merge(store.stats());
  EXPECT_EQ(merged.demand_landed, 2);
  EXPECT_EQ(merged.tokens_fetched, 4);
}

TEST(TieredKVStore, CancelAllAndDetachClearReservation) {
  TieredKVStore store(4);
  Matrix keys(4, 4);
  Matrix values(4, 4);
  store.append_block(keys, values);
  store.offload_to_slow(0, 4);
  FastTierLedger ledger;
  store.attach_ledger(&ledger);
  const std::vector<Index> all{0, 1, 2, 3};
  store.begin_fetch(all);
  EXPECT_GT(ledger.reserved_bytes(), 0);
  EXPECT_EQ(store.cancel_all_fetches(), 4);
  EXPECT_EQ(ledger.reserved_bytes(), 0);

  // Detach with live fetches: the reservation leaves the ledger with the
  // store (session-release path).
  store.begin_fetch(all);
  EXPECT_GT(ledger.reserved_bytes(), 0);
  store.attach_ledger(nullptr);
  EXPECT_EQ(ledger.bytes(), 0);
  EXPECT_EQ(ledger.reserved_bytes(), 0);
}

// ------------------------------------------------------ engine integration

ClusterKVConfig prefetch_engine_config() {
  ClusterKVConfig config;
  config.sink_tokens = 4;
  config.tokens_per_cluster = 8;
  config.decode_interval = 16;
  config.decode_clusters = 2;
  config.cache_depth = 1;
  config.prefetch_clusters = 3;
  return config;
}

Matrix random_block(Rng& rng, Index rows, Index dim) {
  Matrix m(rows, dim);
  rng.fill_normal(m.flat(), 0.0, 1.0);
  return m;
}

std::vector<float> random_query(Rng& rng, Index dim) {
  std::vector<float> q(static_cast<std::size_t>(dim));
  rng.fill_normal(q, 0.0, 1.0);
  return q;
}

// Selection must be bit-identical with prefetch on or off, with identical
// hit/fetch accounting — prefetch moves *when* bytes cross, not whether.
TEST(ClusterKVEngine, PrefetchEquivalentToSyncFetch) {
  const Index dim = 16;
  auto sync_config = prefetch_engine_config();
  sync_config.prefetch_clusters = 0;
  ClusterKVEngine with(dim, prefetch_engine_config(), Rng(7));
  ClusterKVEngine without(dim, sync_config, Rng(7));

  Rng data(123);
  const Matrix keys = random_block(data, 96, dim);
  const Matrix values = random_block(data, 96, dim);
  with.observe_prefill(keys, values);
  without.observe_prefill(keys, values);

  std::int64_t prefetch_hits = 0;
  for (int step = 0; step < 40; ++step) {
    const auto query = random_query(data, dim);
    const auto a = with.select(query, 24);
    const auto b = without.select(query, 24);
    EXPECT_EQ(a.indices, b.indices) << "step " << step;
    EXPECT_EQ(a.tokens_fetched, b.tokens_fetched) << "step " << step;
    EXPECT_EQ(a.tokens_cache_hit, b.tokens_cache_hit) << "step " << step;
    EXPECT_EQ(b.tokens_prefetch_hit, 0);
    EXPECT_EQ(b.tokens_prefetch_issued, 0);
    prefetch_hits += a.tokens_prefetch_hit;

    const auto kv = random_query(data, dim);
    with.observe_decode(kv, kv);
    without.observe_decode(kv, kv);
  }
  // The prefetcher actually covered some fetches, or the test is vacuous.
  EXPECT_GT(prefetch_hits, 0);
}

// In-flight bytes are part of the budget footprint and survive neither
// preemption nor release: preemption mid-fetch frees the reservation.
TEST(ClusterKVEngine, InFlightBytesCountAndPreemptionCancels) {
  const Index dim = 16;
  ClusterKVEngine engine(dim, prefetch_engine_config(), Rng(3));
  FastTierLedger ledger;
  engine.attach_fast_tier_ledger(&ledger);

  Rng data(9);
  engine.observe_prefill(random_block(data, 80, dim), random_block(data, 80, dim));
  const auto query = random_query(data, dim);
  engine.select(query, 24);

  const auto& store = engine.tiered_store();
  ASSERT_GT(store.in_flight_count(), 0);
  EXPECT_EQ(ledger.reserved_bytes(), store.in_flight_bytes());
  EXPECT_EQ(ledger.bytes(), store.fast_resident_bytes());
  EXPECT_EQ(ledger.total_bytes(),
            store.fast_resident_bytes() + store.in_flight_bytes());

  // Preemption mid-fetch: reserved bytes free together with resident ones;
  // only sinks stay (no pending decode tokens yet).
  const Index released = engine.release_fast_tier();
  EXPECT_GT(released, 0);
  EXPECT_EQ(store.in_flight_count(), 0);
  EXPECT_EQ(ledger.reserved_bytes(), 0);
  EXPECT_EQ(store.fast_resident_count(), engine.sink_count());

  // The engine keeps working after the cancel: the next select refetches
  // on demand and issues fresh prefetches.
  const auto after = engine.select(query, 24);
  EXPECT_GT(after.tokens_fetched, 0);
  EXPECT_GT(after.tokens_prefetch_issued, 0);
}

// A repair rebuild between issue and completion relabels in-flight state
// consistently across cache and store: nothing leaks, nothing strands,
// and the reservation drains through the normal resolve path.
TEST(ClusterKVEngine, RepairBetweenIssueAndCompletionKeepsInFlightConsistent) {
  const Index dim = 16;
  auto config = prefetch_engine_config();
  config.repair_merge_threshold = -1.0;  // exhaustive: repair always changes
  ClusterKVEngine engine(dim, config, Rng(5));
  FastTierLedger ledger;
  engine.attach_fast_tier_ledger(&ledger);

  Rng data(17);
  engine.observe_prefill(random_block(data, 64, dim), random_block(data, 64, dim));
  // A decode-side clustering flush registers a second batch, so the
  // explicit repair pass below has an adjacent pair to merge (the engine's
  // own post-prefill pass already collapsed the prompt to one batch).
  for (Index step = 0; step < config.decode_interval; ++step) {
    const auto kv = random_query(data, dim);
    engine.observe_decode(kv, kv);
  }
  ASSERT_EQ(engine.pending_count(), 0);  // the flush actually happened

  const auto query = random_query(data, dim);
  engine.select(query, 24);
  const auto& store = engine.tiered_store();
  const Index in_flight_before = store.in_flight_count();
  ASSERT_GT(in_flight_before, 0);
  const auto reserved_before = ledger.reserved_bytes();

  const auto outcome = engine.repair_now();
  ASSERT_TRUE(outcome.changed);
  // The rebuild moved no KV and dropped no fetches: the same tokens are in
  // flight (relabeled), the reservation is untouched.
  EXPECT_EQ(store.in_flight_count(), in_flight_before);
  EXPECT_EQ(ledger.reserved_bytes(), reserved_before);
  EXPECT_EQ(engine.cache().in_flight_tokens(), in_flight_before);

  // The next select resolves every relabeled entry (hit or waste; a
  // wasted token may be legitimately re-issued in the fresh round) and
  // leaves cache-, store- and ledger-side in-flight state in exact
  // agreement — a stale entry would break one of these equalities.
  engine.select(query, 24);
  std::vector<Index> cache_in_flight;
  for (const auto& [cluster, tokens] : engine.cache().in_flight()) {
    EXPECT_LT(cluster, engine.centroid_store().cluster_count())
        << "in-flight entry under a dead cluster id";
    cache_in_flight.insert(cache_in_flight.end(), tokens.begin(), tokens.end());
  }
  EXPECT_EQ(static_cast<Index>(cache_in_flight.size()), store.in_flight_count());
  for (const Index token : cache_in_flight) {
    EXPECT_TRUE(store.is_in_flight(token));
  }
  EXPECT_EQ(ledger.reserved_bytes(), store.in_flight_bytes());
  EXPECT_EQ(ledger.bytes(), store.fast_resident_bytes());
}

// Inter-chunk selections can leave tokens fast-resident but outside the
// cleared window after the end-of-prompt tail fold; a later prefetch must
// not let cache- and store-side in-flight views diverge (the store is the
// residency authority at issue time), and the fold resets the prediction
// prior because it reassigned cluster ids.
TEST(ClusterKVEngine, TailFoldKeepsInFlightViewsAlignedAndResetsPrior) {
  const Index dim = 16;
  auto config = prefetch_engine_config();
  config.repair_refine_iterations = 0;  // isolate the fold from repair
  ClusterKVEngine engine(dim, config, Rng(31));
  Rng data(41);

  // First chunk clusters one batch; a selection *between chunks* pulls
  // clustered tokens fast and warms the prior.
  engine.observe_prefill_chunk(random_block(data, 24, dim),
                               random_block(data, 24, dim), false);
  engine.select(random_query(data, dim), 12);
  // Short final tail (< tokens_per_cluster): folds into the prior batch,
  // truncating and re-registering its cluster ids.
  engine.observe_prefill_chunk(random_block(data, 4, dim),
                               random_block(data, 4, dim), true);
  for (const double p : engine.prefetcher().prior()) {
    EXPECT_DOUBLE_EQ(p, 0.0) << "stale prior survived the tail fold";
  }

  // Decode selections issue prefetches; the in-flight views must agree
  // even though some clustered tokens are fast-resident outside the
  // window (residency left behind by the inter-chunk selection).
  for (int step = 0; step < 6; ++step) {
    const auto kv = random_query(data, dim);
    engine.observe_decode(kv, kv);
    engine.select(random_query(data, dim), 12);
    EXPECT_EQ(engine.cache().in_flight_tokens(),
              engine.tiered_store().in_flight_count())
        << "step " << step;
  }
}

// ------------------------------------------------------- session release

TEST(Session, ReleaseAndRetirementCancelInFlightFetches) {
  SessionConfig config;
  config.shape.num_layers = 1;
  config.shape.num_heads = 2;
  config.shape.head_dim = 32;
  config.params.head_dim = 32;
  config.params.num_topics = 16;
  config.engine.budget = 48;
  config.engine.full_attention_layers = 0;

  auto ckv = prefetch_engine_config();
  ckv.sink_tokens = 8;
  ServeRequest request{0, 0.0, 300, 6, 11};
  Session session(request, make_clusterkv_factory(ckv, 21), config);
  FastTierLedger ledger;
  session.attach_fast_tier_ledger(&ledger);
  session.admit(0.0);
  session.prefill_next(0, 0.0);
  session.decode_next(1.0);
  session.decode_next(2.0);
  ASSERT_GT(ledger.reserved_bytes(), 0);  // prefetches in flight

  // The scheduler's cheap enforcement lever: speculation only.
  const std::int64_t resident_before = ledger.bytes();
  EXPECT_GT(session.cancel_prefetches(), 0);
  EXPECT_EQ(ledger.reserved_bytes(), 0);
  EXPECT_EQ(ledger.bytes(), resident_before);  // resident KV untouched
  EXPECT_EQ(session.record().preemptions, 0);         // not a preemption

  // Fresh fetches get issued; session release (ledger detach, the
  // retirement path) drops them with everything else.
  session.decode_next(3.0);
  ASSERT_GT(ledger.reserved_bytes(), 0);
  session.attach_fast_tier_ledger(nullptr);
  EXPECT_EQ(ledger.bytes(), 0);
  EXPECT_EQ(ledger.reserved_bytes(), 0);
}

}  // namespace
}  // namespace ckv
