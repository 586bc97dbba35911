#include <gtest/gtest.h>

#include <cmath>

#include "kvcache/kv_store.hpp"
#include "kvcache/tiered_store.hpp"
#include "tensor/rng.hpp"
#include "tensor/vec_ops.hpp"

namespace ckv {
namespace {

Matrix random_block(Index rows, Index cols, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  rng.fill_normal(m.flat(), 0.0, 1.0);
  return m;
}

TEST(KVStore, AppendAndAccess) {
  KVStore store(4);
  const std::vector<float> k{1.0f, 2.0f, 3.0f, 4.0f};
  const std::vector<float> v{5.0f, 6.0f, 7.0f, 8.0f};
  store.append(k, v);
  EXPECT_EQ(store.size(), 1);
  EXPECT_FLOAT_EQ(store.key(0)[2], 3.0f);
  EXPECT_FLOAT_EQ(store.value(0)[3], 8.0f);
}

TEST(KVStore, WidthValidated) {
  KVStore store(4);
  const std::vector<float> bad{1.0f, 2.0f};
  const std::vector<float> ok(4, 0.0f);
  EXPECT_THROW(store.append(bad, ok), std::invalid_argument);
  EXPECT_THROW(store.append(ok, bad), std::invalid_argument);
}

TEST(KVStore, AppendBlock) {
  KVStore store(3);
  const auto keys = random_block(5, 3, 1);
  const auto values = random_block(5, 3, 2);
  store.append_block(keys, values);
  EXPECT_EQ(store.size(), 5);
  for (Index i = 0; i < 5; ++i) {
    EXPECT_FLOAT_EQ(store.key(i)[0], keys.at(i, 0));
  }
}

TEST(KVStore, GatherPreservesOrder) {
  KVStore store(2);
  for (Index i = 0; i < 6; ++i) {
    const std::vector<float> k{static_cast<float>(i), 0.0f};
    store.append(k, k);
  }
  const std::vector<Index> pick{4, 1, 5};
  const auto [k, v] = store.gather(pick);
  EXPECT_EQ(k.rows(), 3);
  EXPECT_FLOAT_EQ(k.at(0, 0), 4.0f);
  EXPECT_FLOAT_EQ(k.at(1, 0), 1.0f);
  EXPECT_FLOAT_EQ(k.at(2, 0), 5.0f);
}

TEST(KVStore, GatherValidatesRange) {
  KVStore store(2);
  const std::vector<float> k{0.0f, 0.0f};
  store.append(k, k);
  const std::vector<Index> bad{1};
  EXPECT_THROW(store.gather(bad), std::invalid_argument);
}

TEST(KVStore, AttentionScoresScaledDot) {
  KVStore store(4);
  const std::vector<float> k{2.0f, 0.0f, 0.0f, 0.0f};
  store.append(k, k);
  const std::vector<float> q{3.0f, 0.0f, 0.0f, 0.0f};
  const auto scores = store.attention_scores(q);
  ASSERT_EQ(scores.size(), 1u);
  EXPECT_NEAR(scores[0], 6.0 / std::sqrt(4.0), 1e-6);
}

TEST(KVStore, AttentionScoresAtSubset) {
  KVStore store(2);
  for (Index i = 0; i < 4; ++i) {
    const std::vector<float> k{static_cast<float>(i), 0.0f};
    store.append(k, k);
  }
  const std::vector<float> q{1.0f, 0.0f};
  const std::vector<Index> at{3, 0};
  const auto scores = store.attention_scores_at(q, at);
  ASSERT_EQ(scores.size(), 2u);
  EXPECT_GT(scores[0], scores[1]);
}

TEST(TieredStore, AppendIsFastResident) {
  TieredKVStore store(4);
  const std::vector<float> x(4, 1.0f);
  store.append(x, x);
  EXPECT_TRUE(store.is_fast_resident(0));
  EXPECT_EQ(store.fast_resident_count(), 1);
  EXPECT_EQ(store.stats().bytes_to_fast, 0);  // produced in place, no transfer
}

TEST(TieredStore, OffloadAccountsBytes) {
  TieredKVStore store(8);
  const std::vector<float> x(8, 1.0f);
  for (int i = 0; i < 3; ++i) {
    store.append(x, x);
  }
  store.offload_to_slow(0, 3);
  EXPECT_EQ(store.fast_resident_count(), 0);
  // token_bytes = 2 tensors * 8 channels * 2 bytes = 32.
  EXPECT_EQ(store.token_bytes(), 32);
  EXPECT_EQ(store.stats().bytes_to_slow, 96);
  EXPECT_EQ(store.stats().tokens_offloaded, 3);
}

TEST(TieredStore, EnsureResidentFetchesOnlyMissing) {
  TieredKVStore store(4);
  const std::vector<float> x(4, 1.0f);
  for (int i = 0; i < 4; ++i) {
    store.append(x, x);
  }
  store.offload_to_slow(0, 4);
  const std::vector<Index> want{1, 2};
  EXPECT_EQ(store.ensure_resident(want), 2);
  EXPECT_EQ(store.stats().tokens_fetched, 2);
  // Second request: already resident, no traffic.
  EXPECT_EQ(store.ensure_resident(want), 0);
  EXPECT_EQ(store.stats().tokens_fetched, 2);
  EXPECT_EQ(store.stats().fetch_events, 1);
}

TEST(TieredStore, DropFromFastIsFree) {
  TieredKVStore store(4);
  const std::vector<float> x(4, 1.0f);
  store.append(x, x);
  const auto before = store.stats().bytes_to_slow;
  const std::vector<Index> drop{0};
  store.drop_from_fast(drop);
  EXPECT_FALSE(store.is_fast_resident(0));
  EXPECT_EQ(store.stats().bytes_to_slow, before);
}

TEST(TieredStore, DoubleOffloadCountsOnce) {
  TieredKVStore store(4);
  const std::vector<float> x(4, 1.0f);
  store.append(x, x);
  store.offload_to_slow(0, 1);
  store.offload_to_slow(0, 1);
  EXPECT_EQ(store.stats().tokens_offloaded, 1);
}

TEST(TieredStore, StatsMerge) {
  TransferStats a;
  a.bytes_to_fast = 10;
  a.tokens_fetched = 1;
  TransferStats b;
  b.bytes_to_fast = 5;
  b.fetch_events = 2;
  a.merge(b);
  EXPECT_EQ(a.bytes_to_fast, 15);
  EXPECT_EQ(a.tokens_fetched, 1);
  EXPECT_EQ(a.fetch_events, 2);
}


TEST(TieredStore, RepeatedEvictRefetchCyclesStaySymmetric) {
  // Offload/fetch churn (the serving preemption pattern) must keep the
  // transfer ledger exact: every byte that went out is matched by the byte
  // that came back, with token counters agreeing at token_bytes() scale.
  TieredKVStore store(8);
  const std::vector<float> x(8, 1.0f);
  for (int i = 0; i < 16; ++i) {
    store.append(x, x);
  }
  store.offload_to_slow(0, 16);  // initial placement: all slow
  const auto baseline = store.stats();

  std::vector<Index> working{2, 3, 5, 7, 11, 13};
  for (int cycle = 0; cycle < 10; ++cycle) {
    EXPECT_EQ(store.ensure_resident(working), 6);
    EXPECT_EQ(store.offload_positions(working), 6);
  }
  const auto& stats = store.stats();
  EXPECT_EQ(stats.tokens_fetched, baseline.tokens_fetched + 60);
  EXPECT_EQ(stats.tokens_offloaded, baseline.tokens_offloaded + 60);
  EXPECT_EQ(stats.bytes_to_fast, 60 * store.token_bytes());
  EXPECT_EQ(stats.bytes_to_slow - baseline.bytes_to_slow, 60 * store.token_bytes());
  // Symmetry: fetched bytes equal re-offloaded bytes over whole cycles.
  EXPECT_EQ(stats.bytes_to_fast, stats.bytes_to_slow - baseline.bytes_to_slow);
  EXPECT_EQ(store.fast_resident_count(), 0);
  EXPECT_EQ(store.fast_resident_bytes(), 0);
}

TEST(TieredStore, OffloadPositionsCountsOnlyResident) {
  TieredKVStore store(4);
  const std::vector<float> x(4, 1.0f);
  for (int i = 0; i < 4; ++i) {
    store.append(x, x);
  }
  const std::vector<Index> some{0, 2};
  EXPECT_EQ(store.offload_positions(some), 2);
  EXPECT_EQ(store.offload_positions(some), 0);  // already slow: no traffic
  EXPECT_EQ(store.stats().tokens_offloaded, 2);
  const std::vector<Index> bad{9};
  EXPECT_THROW(store.offload_positions(bad), std::invalid_argument);
}

TEST(TieredStore, FastPositionsAreSortedAndComplete) {
  TieredKVStore store(4);
  const std::vector<float> x(4, 1.0f);
  for (int i = 0; i < 5; ++i) {
    store.append(x, x);
  }
  store.offload_to_slow(1, 3);
  const auto fast = store.fast_positions();
  const std::vector<Index> want{0, 3, 4};
  EXPECT_EQ(fast, want);
}

TEST(TieredStore, TransferStatsMergeAllFields) {
  TransferStats a;
  a.bytes_to_fast = 10;
  a.bytes_to_slow = 20;
  a.fetch_events = 3;
  a.tokens_fetched = 5;
  a.tokens_offloaded = 7;
  TransferStats b = a;
  a.merge(b);
  EXPECT_EQ(a.bytes_to_fast, 20);
  EXPECT_EQ(a.bytes_to_slow, 40);
  EXPECT_EQ(a.fetch_events, 6);
  EXPECT_EQ(a.tokens_fetched, 10);
  EXPECT_EQ(a.tokens_offloaded, 14);
  // Merging an empty accumulator is the identity.
  TransferStats before = a;
  a.merge(TransferStats{});
  EXPECT_EQ(a.bytes_to_fast, before.bytes_to_fast);
  EXPECT_EQ(a.tokens_offloaded, before.tokens_offloaded);
}

TEST(TieredStore, LedgerTracksEveryResidencyMutation) {
  FastTierLedger ledger;
  TieredKVStore store(8);
  const std::vector<float> x(8, 1.0f);
  store.append(x, x);  // resident before attach
  store.attach_ledger(&ledger);
  EXPECT_EQ(ledger.bytes(), store.fast_resident_bytes());  // attach credits

  for (int i = 0; i < 7; ++i) {
    store.append(x, x);
  }
  EXPECT_EQ(ledger.bytes(), 8 * store.token_bytes());

  store.offload_to_slow(0, 8);
  EXPECT_EQ(ledger.bytes(), 0);

  const std::vector<Index> some{1, 4, 6};
  store.ensure_resident(some);
  EXPECT_EQ(ledger.bytes(), 3 * store.token_bytes());

  const std::vector<Index> drop{4};
  store.drop_from_fast(drop);
  EXPECT_EQ(ledger.bytes(), 2 * store.token_bytes());

  store.attach_ledger(nullptr);  // detach debits the residual
  EXPECT_EQ(ledger.bytes(), 0);
}

TEST(TieredStore, LedgerSharedAcrossStores) {
  FastTierLedger ledger;
  TieredKVStore a(4);
  TieredKVStore b(4);
  a.attach_ledger(&ledger);
  b.attach_ledger(&ledger);
  const std::vector<float> x(4, 1.0f);
  a.append(x, x);
  b.append(x, x);
  b.append(x, x);
  EXPECT_EQ(ledger.bytes(), a.fast_resident_bytes() + b.fast_resident_bytes());
  a.offload_to_slow(0, 1);
  EXPECT_EQ(ledger.bytes(), b.fast_resident_bytes());
}


TEST(TieredStore, RangeValidation) {
  TieredKVStore store(4);
  EXPECT_THROW(store.offload_to_slow(0, 1), std::invalid_argument);
  const std::vector<Index> bad{0};
  EXPECT_THROW(store.ensure_resident(bad), std::invalid_argument);
}

}  // namespace
}  // namespace ckv
