// Tests for the concurrent serving subsystem: the worker pool runs every
// task exactly once, the sharded LRU cache evicts in order and survives
// concurrent hammering, the micro-batcher respects its batch ceiling,
// the explanation memo answers exactly what the explainer computes, and
// SuggestionService answers are bit-identical to calling
// DssddiSystem::Suggest directly for the same patients.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/dssddi_system.h"
#include "core/ms_module.h"
#include "data/catalog.h"
#include "data/ddi_database.h"
#include "gtest/gtest.h"
#include "io/inference_bundle.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/admission_controller.h"
#include "serve/explanation_memo.h"
#include "serve/latency_tracker.h"
#include "serve/request_batcher.h"
#include "serve/service.h"
#include "serve/suggestion_cache.h"
#include "serve/thread_pool.h"
#include "tensor/kernels/gemm_backend.h"
#include "test_support.h"
#include "util/rng.h"
#include "worker_gate.h"

namespace dssddi {
namespace {

// ---------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------

TEST(ThreadPoolTest, ExecutesEveryTaskExactlyOnce) {
  constexpr int kTasks = 500;
  std::vector<std::atomic<int>> run_counts(kTasks);
  for (auto& count : run_counts) count = 0;
  {
    serve::ThreadPool pool(4);
    for (int i = 0; i < kTasks; ++i) {
      pool.Submit([&run_counts, i] { run_counts[i].fetch_add(1); });
    }
    // Pool destructor drains the queue before joining.
  }
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(run_counts[i].load(), 1) << "task " << i;
  }
}

TEST(ThreadPoolTest, CountsExecutedTasks) {
  serve::ThreadPool pool(2);
  std::atomic<int> sum{0};
  for (int i = 0; i < 64; ++i) pool.Submit([&sum] { sum.fetch_add(1); });
  while (pool.tasks_executed() < 64) std::this_thread::yield();
  EXPECT_EQ(sum.load(), 64);
  EXPECT_EQ(pool.tasks_executed(), 64u);
  EXPECT_EQ(pool.QueueDepth(), 0u);
}

TEST(ThreadPoolTest, ConcurrentSubmitters) {
  std::atomic<int> sum{0};
  {
    serve::ThreadPool pool(3);
    std::vector<std::thread> producers;
    for (int t = 0; t < 4; ++t) {
      producers.emplace_back([&pool, &sum] {
        for (int i = 0; i < 100; ++i) pool.Submit([&sum] { sum.fetch_add(1); });
      });
    }
    for (auto& producer : producers) producer.join();
  }
  EXPECT_EQ(sum.load(), 400);
}

TEST(ThreadPoolTest, RejectsNonPositiveThreadCounts) {
  // A zero-thread pool would deadlock every Submit, so construction must
  // fail loudly instead of silently clamping.
  EXPECT_THROW(serve::ThreadPool(0), std::invalid_argument);
  EXPECT_THROW(serve::ThreadPool(-3), std::invalid_argument);
}

TEST(ThreadPoolTest, SubmitAfterShutdownIsRejectedNotExecuted) {
  serve::ThreadPool pool(2);
  std::atomic<int> ran{0};
  EXPECT_TRUE(pool.Submit([&ran] { ran.fetch_add(1); }));
  pool.Shutdown();
  EXPECT_EQ(ran.load(), 1);  // Shutdown drained the queue.
  // Late submissions are refused; the task must never run.
  EXPECT_FALSE(pool.Submit([&ran] { ran.fetch_add(100); }));
  EXPECT_EQ(ran.load(), 1);
  pool.Shutdown();  // idempotent
}

TEST(ThreadPoolTest, ThrowingTasksDoNotKillWorkers) {
  serve::ThreadPool pool(2);
  std::atomic<int> survived{0};
  for (int i = 0; i < 8; ++i) {
    pool.Submit([] { throw std::runtime_error("request gone wrong"); });
    pool.Submit([&survived] { survived.fetch_add(1); });
  }
  while (pool.tasks_executed() < 16) std::this_thread::yield();
  // Every well-behaved task still ran on a live worker, and the failures
  // were counted rather than propagated.
  EXPECT_EQ(survived.load(), 8);
  EXPECT_EQ(pool.tasks_failed(), 8u);
  EXPECT_EQ(pool.tasks_executed(), 16u);
}

// ---------------------------------------------------------------------
// SuggestionCache
// ---------------------------------------------------------------------

core::Suggestion MakeSuggestion(int tag) {
  core::Suggestion suggestion;
  suggestion.drugs = {tag, tag + 1};
  suggestion.scores = {1.0f, 0.5f};
  return suggestion;
}

TEST(SuggestionCacheTest, HitReturnsStoredValue) {
  serve::SuggestionCache cache(/*capacity=*/8, /*num_shards=*/2);
  cache.Put({7, 3}, MakeSuggestion(42));
  core::Suggestion out;
  ASSERT_TRUE(cache.Get({7, 3}, &out));
  EXPECT_EQ(out.drugs, (std::vector<int>{42, 43}));
  // Same patient, different k is a different entry; the miss inserts
  // nothing and the hit leaves its entry in place.
  EXPECT_FALSE(cache.Get({7, 4}, &out));
  EXPECT_FALSE(cache.Get({7, 4}, &out));
  EXPECT_TRUE(cache.Get({7, 3}, &out));
}

TEST(SuggestionCacheTest, EvictsLeastRecentlyUsedInOrder) {
  // One shard makes the LRU order global and deterministic.
  serve::SuggestionCache cache(/*capacity=*/3, /*num_shards=*/1);
  cache.Put({1, 1}, MakeSuggestion(1));
  cache.Put({2, 1}, MakeSuggestion(2));
  cache.Put({3, 1}, MakeSuggestion(3));

  core::Suggestion out;
  ASSERT_TRUE(cache.Get({1, 1}, &out));  // refresh 1; LRU order is now 2,3,1

  cache.Put({4, 1}, MakeSuggestion(4));  // evicts 2
  EXPECT_FALSE(cache.Get({2, 1}, &out));
  EXPECT_TRUE(cache.Get({1, 1}, &out));
  EXPECT_TRUE(cache.Get({3, 1}, &out));
  EXPECT_TRUE(cache.Get({4, 1}, &out));

  cache.Put({5, 1}, MakeSuggestion(5));  // evicts 1 (LRU after the gets: 1,3,4)
  EXPECT_FALSE(cache.Get({1, 1}, &out));
  EXPECT_TRUE(cache.Get({3, 1}, &out));

  // Two evictions in all: exactly the three newest-used entries remain.
  EXPECT_FALSE(cache.Get({2, 1}, &out));
  EXPECT_TRUE(cache.Get({4, 1}, &out));
  EXPECT_TRUE(cache.Get({5, 1}, &out));
}

TEST(SuggestionCacheTest, PutOfExistingKeyOverwritesAndRefreshes) {
  serve::SuggestionCache cache(/*capacity=*/2, /*num_shards=*/1);
  cache.Put({1, 1}, MakeSuggestion(1));
  cache.Put({2, 1}, MakeSuggestion(2));
  cache.Put({1, 1}, MakeSuggestion(100));  // overwrite + refresh; order: 1,2
  cache.Put({3, 1}, MakeSuggestion(3));    // evicts 2, not 1

  core::Suggestion out;
  ASSERT_TRUE(cache.Get({1, 1}, &out));
  EXPECT_EQ(out.drugs.front(), 100);
  EXPECT_FALSE(cache.Get({2, 1}, &out));
}

TEST(SuggestionCacheTest, BumpGenerationFlushesAndIsolatesOldEntries) {
  serve::SuggestionCache cache(/*capacity=*/8, /*num_shards=*/2);
  EXPECT_EQ(cache.generation(), 0u);
  serve::CacheKey old_key{7, 3, 0, cache.generation()};
  cache.Put(old_key, MakeSuggestion(1));

  EXPECT_EQ(cache.BumpGeneration(), 1u);
  EXPECT_EQ(cache.generation(), 1u);

  core::Suggestion out;
  EXPECT_FALSE(cache.Get(old_key, &out));  // flushed
  // Even a stale Put that raced the flush stays invisible to callers
  // keying with the new generation.
  cache.Put(old_key, MakeSuggestion(1));
  serve::CacheKey new_key{7, 3, 0, cache.generation()};
  EXPECT_FALSE(cache.Get(new_key, &out));
}

TEST(SuggestionCacheTest, ThreadSafeUnderConcurrentHammering) {
  serve::SuggestionCache cache(/*capacity=*/64, /*num_shards=*/8);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 5000;
  std::atomic<uint64_t> observed_hits{0};
  std::atomic<uint64_t> observed_misses{0};

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, &observed_hits, &observed_misses, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const serve::CacheKey key{(t * 31 + i) % 200, 1 + i % 3};
        if (i % 3 == 0) {
          cache.Put(key, MakeSuggestion(i));
        } else {
          core::Suggestion out;
          if (cache.Get(key, &out)) {
            // A hit must carry a well-formed value, not torn state.
            ASSERT_EQ(out.drugs.size(), 2u);
            ASSERT_EQ(out.drugs[0] + 1, out.drugs[1]);
            observed_hits.fetch_add(1);
          } else {
            observed_misses.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();

  EXPECT_GT(observed_hits.load() + observed_misses.load(), 0u);
  // Every key the threads used that still answers is a resident entry:
  // no more than the capacity, rounded up per shard.
  size_t resident = 0;
  for (int id = 0; id < 200; ++id) {
    for (int k = 1; k <= 3; ++k) {
      core::Suggestion out;
      if (cache.Get({id, k}, &out)) ++resident;
    }
  }
  EXPECT_GT(resident, 0u);
  EXPECT_LE(resident, 64u + 8u);
}

// ---------------------------------------------------------------------
// RequestBatcher
// ---------------------------------------------------------------------

// Every test parks the batcher's single worker on a sacrificial request
// first: completions run on the worker, so while the parking request's
// completion blocks, later arrivals queue up deterministically and the
// next cut sees all of them.
constexpr int64_t kParkingId = 99;

void ParkBatcher(serve::RequestBatcher& batcher, testing::WorkerGate& gate) {
  serve::Request request;
  request.patient_id = kParkingId;
  batcher.Enqueue(std::move(request), {}, gate.Completion());
  gate.WaitParked();
}

bool IsParkingBatch(const std::vector<serve::PendingRequest>& batch) {
  return batch.size() == 1 && batch.front().request.patient_id == kParkingId;
}

TEST(RequestBatcherTest, GroupsRequestsUpToBatchCeiling) {
  std::mutex mutex;
  std::vector<size_t> batch_sizes;
  size_t handled_batches = 0;  // the parking batch included
  size_t handled_requests = 0;
  serve::RequestBatcher::Options options;
  options.max_batch_size = 4;
  serve::RequestBatcher batcher(options, [&](std::vector<serve::PendingRequest> batch) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      ++handled_batches;
      handled_requests += batch.size();
      if (!IsParkingBatch(batch)) batch_sizes.push_back(batch.size());
    }
    for (auto& pending : batch) pending.Complete({});
  });
  testing::WorkerGate gate;
  ParkBatcher(batcher, gate);

  std::vector<std::promise<core::Suggestion>> promises(10);
  std::vector<std::future<core::Suggestion>> futures;
  for (auto& promise : promises) futures.push_back(promise.get_future());
  for (int i = 0; i < 10; ++i) {
    serve::Request request;
    request.k = 1;
    batcher.Enqueue(std::move(request), {},
                    [&promises, i](core::Suggestion suggestion,
                                   std::shared_ptr<const serve::ModelSnapshot>,
                                   std::exception_ptr) {
                      promises[i].set_value(std::move(suggestion));
                    });
  }
  gate.Release();
  for (auto& future : futures) future.get();

  std::lock_guard<std::mutex> lock(mutex);
  size_t total = 0;
  for (size_t size : batch_sizes) {
    EXPECT_GE(size, 1u);
    EXPECT_LE(size, 4u);
    total += size;
  }
  EXPECT_EQ(total, 10u);
  // The parking request is one more request in one more batch.
  EXPECT_EQ(handled_requests, 10u + 1u);
  EXPECT_EQ(handled_batches, batch_sizes.size() + 1u);
}

TEST(RequestBatcherTest, RequestsQueuedBehindABusyWorkerAreCutAsOneBatch) {
  // No window holds a batch open: what forms a batch is the worker being
  // busy. Everything that queued while it was (up to the ceiling) leaves
  // in the next cut, as one matrix pass.
  constexpr int kQueued = 20;
  std::mutex mutex;
  std::vector<size_t> batch_sizes;  // the parking batch included
  std::atomic<int> completions{0};
  serve::RequestBatcher::Options options;
  options.max_batch_size = 32;
  serve::RequestBatcher batcher(options, [&](std::vector<serve::PendingRequest> batch) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      batch_sizes.push_back(batch.size());
    }
    for (auto& pending : batch) {
      pending.Complete({});
      completions.fetch_add(1);
    }
  });
  testing::WorkerGate gate;
  ParkBatcher(batcher, gate);
  for (int i = 0; i < kQueued; ++i) {
    batcher.Enqueue({}, {},
                    [](core::Suggestion, std::shared_ptr<const serve::ModelSnapshot>,
                       std::exception_ptr) {});
  }
  EXPECT_EQ(batcher.QueueDepth(), static_cast<size_t>(kQueued));
  gate.Release();
  while (completions.load() < kQueued + 1) std::this_thread::yield();

  std::lock_guard<std::mutex> lock(mutex);
  // The parking batch, then everything that queued behind it as one.
  EXPECT_EQ(batch_sizes, (std::vector<size_t>{1, kQueued}));
  EXPECT_EQ(batcher.QueueDepth(), 0u);
}

TEST(RequestBatcherTest, FlushesQueueOnDestruction) {
  std::atomic<int> handled{0};
  testing::WorkerGate gate;
  std::thread releaser;
  {
    serve::RequestBatcher::Options options;
    options.max_batch_size = 64;
    serve::RequestBatcher batcher(options, [&](std::vector<serve::PendingRequest> batch) {
      handled.fetch_add(static_cast<int>(batch.size()));
      for (auto& pending : batch) pending.Complete({});
    });
    ParkBatcher(batcher, gate);
    for (int i = 0; i < 5; ++i) {
      batcher.Enqueue({}, {},
                      [](core::Suggestion, std::shared_ptr<const serve::ModelSnapshot>,
                         std::exception_ptr) {});
    }
    // Free the worker only once the destructor below has stopped intake,
    // so the 5 requests are still queued when shutdown begins.
    releaser = std::thread([&gate] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      gate.Release();
    });
    // Destructor must flush the 5 queued requests, not drop them.
  }
  releaser.join();
  EXPECT_EQ(handled.load(), 5 + 1);  // + the parking request
}

TEST(RequestBatcherTest, SweepsExpiredAndOrdersBatchOldestDeadlineFirst) {
  const auto now = std::chrono::steady_clock::now();
  std::mutex mutex;
  std::vector<std::vector<int64_t>> batches;      // patient ids per batch
  std::vector<int64_t> expired_ids;
  std::atomic<int> completions{0};

  serve::RequestBatcher::Options options;
  options.max_batch_size = 10;   // never filled: one cut takes everything
  serve::RequestBatcher batcher(
      options,
      [&](std::vector<serve::PendingRequest> batch) {
        if (!IsParkingBatch(batch)) {
          std::lock_guard<std::mutex> lock(mutex);
          batches.emplace_back();
          for (const auto& pending : batch) {
            batches.back().push_back(pending.request.patient_id);
          }
        }
        for (auto& pending : batch) {
          pending.Complete({});
          completions.fetch_add(1);
        }
      },
      [&](std::vector<serve::PendingRequest> expired) {
        {
          std::lock_guard<std::mutex> lock(mutex);
          for (const auto& pending : expired) {
            expired_ids.push_back(pending.request.patient_id);
          }
        }
        for (auto& pending : expired) {
          pending.Fail(std::make_exception_ptr(
              serve::DeadlineExceeded("expired in batcher")));
          completions.fetch_add(1);
        }
      });
  // All four requests queue behind the parked worker.
  testing::WorkerGate gate;
  ParkBatcher(batcher, gate);

  // Enqueue out of deadline order: id 1 has the latest deadline, id 3
  // the earliest live one, id 9 is already expired on arrival.
  const auto enqueue = [&](int64_t id,
                           std::chrono::steady_clock::time_point deadline) {
    serve::Request request;
    request.patient_id = id;
    request.context.deadline = deadline;
    batcher.Enqueue(std::move(request), {},
                    [](core::Suggestion,
                       std::shared_ptr<const serve::ModelSnapshot>,
                       std::exception_ptr) {});
  };
  enqueue(9, now - std::chrono::milliseconds(1));    // expired
  enqueue(1, now + std::chrono::milliseconds(300));
  enqueue(2, now + std::chrono::milliseconds(200));
  enqueue(3, now + std::chrono::milliseconds(100));
  gate.Release();

  while (completions.load() < 4 + 1) std::this_thread::yield();

  std::lock_guard<std::mutex> lock(mutex);
  ASSERT_EQ(expired_ids.size(), 1u);
  EXPECT_EQ(expired_ids[0], 9);  // swept before scoring, no batch slot
  // One batch besides the parking one, holding the three live requests.
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0], (std::vector<int64_t>{3, 2, 1}));  // oldest first
}

TEST(RequestBatcherTest, NoDeadlineRequestsSortAfterDeadlinesAndKeepFifo) {
  std::mutex mutex;
  std::vector<int64_t> order;
  std::atomic<int> completions{0};
  serve::RequestBatcher::Options options;
  options.max_batch_size = 10;
  serve::RequestBatcher batcher(
      options,
      [&](std::vector<serve::PendingRequest> batch) {
        if (!IsParkingBatch(batch)) {
          std::lock_guard<std::mutex> lock(mutex);
          for (const auto& pending : batch) {
            order.push_back(pending.request.patient_id);
          }
        }
        for (auto& pending : batch) {
          pending.Complete({});
          completions.fetch_add(1);
        }
      },
      [](std::vector<serve::PendingRequest>) { FAIL() << "nothing expires"; });
  testing::WorkerGate gate;
  ParkBatcher(batcher, gate);

  const auto now = std::chrono::steady_clock::now();
  const auto enqueue = [&](int64_t id, bool with_deadline) {
    serve::Request request;
    request.patient_id = id;
    if (with_deadline) {
      request.context.deadline = now + std::chrono::seconds(1);
    }
    batcher.Enqueue(std::move(request), {},
                    [](core::Suggestion,
                       std::shared_ptr<const serve::ModelSnapshot>,
                       std::exception_ptr) {});
  };
  enqueue(10, /*with_deadline=*/false);
  enqueue(11, /*with_deadline=*/false);
  enqueue(12, /*with_deadline=*/true);
  gate.Release();

  while (completions.load() < 3 + 1) std::this_thread::yield();
  std::lock_guard<std::mutex> lock(mutex);
  // The deadline-carrying request jumps the line; the no-deadline pair
  // keeps its arrival order behind it.
  EXPECT_EQ(order, (std::vector<int64_t>{12, 10, 11}));
}

TEST(RequestBatcherTest, OverdueRequestClaimsASlotDespiteUrgencyOrder) {
  // The longest-waiting request is the FIFO head and must claim a slot
  // even though every deadline-carrying request outranks it on urgency —
  // deadline traffic can never starve it. The queue builds behind the
  // parked worker, so no cut races the enqueues.
  std::mutex mutex;
  std::vector<std::vector<int64_t>> batches;
  std::atomic<int> completions{0};
  serve::RequestBatcher::Options options;
  options.max_batch_size = 2;
  serve::RequestBatcher batcher(
      options,
      [&](std::vector<serve::PendingRequest> batch) {
        if (!IsParkingBatch(batch)) {
          std::lock_guard<std::mutex> lock(mutex);
          batches.emplace_back();
          for (const auto& pending : batch) {
            batches.back().push_back(pending.request.patient_id);
          }
        }
        for (auto& pending : batch) {
          pending.Complete({});
          completions.fetch_add(1);
        }
      },
      [](std::vector<serve::PendingRequest>) { FAIL() << "nothing expires"; });
  testing::WorkerGate gate;
  ParkBatcher(batcher, gate);

  const auto enqueue = [&](int64_t id, int deadline_ms) {
    serve::Request request;
    request.patient_id = id;
    if (deadline_ms > 0) {
      request.context.deadline = std::chrono::steady_clock::now() +
                                 std::chrono::milliseconds(deadline_ms);
    }
    batcher.Enqueue(std::move(request), {},
                    [](core::Suggestion,
                       std::shared_ptr<const serve::ModelSnapshot>,
                       std::exception_ptr) {});
  };
  enqueue(20, 0);     // no deadline, enqueued first -> FIFO head
  enqueue(21, 2000);  // both outrank id 20 on urgency...
  enqueue(22, 1000);
  gate.Release();

  while (completions.load() < 3 + 1) std::this_thread::yield();
  std::lock_guard<std::mutex> lock(mutex);
  ASSERT_EQ(batches.size(), 2u);
  // First cut (2 slots): most urgent (22) plus the FIFO head (20) — NOT
  // the two deadline requests. Second cut drains 21.
  EXPECT_EQ(batches[0], (std::vector<int64_t>{22, 20}));
  EXPECT_EQ(batches[1], (std::vector<int64_t>{21}));
}

// ---------------------------------------------------------------------
// ExplanationMemo: a stored answer is exactly the explainer's answer.
// ---------------------------------------------------------------------

/// The bits of a double: equal bits, not just ==, is the memo's promise.
uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

void ExpectSameEdges(const std::vector<core::InteractionEdge>& actual,
                     const std::vector<core::InteractionEdge>& expected,
                     const char* field) {
  ASSERT_EQ(actual.size(), expected.size()) << field;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].drug_u, expected[i].drug_u) << field << " " << i;
    EXPECT_EQ(actual[i].drug_v, expected[i].drug_v) << field << " " << i;
    EXPECT_EQ(static_cast<int>(actual[i].sign),
              static_cast<int>(expected[i].sign))
        << field << " " << i;
  }
}

/// Every Explanation field, in order, doubles bit for bit.
void ExpectSameExplanation(const core::Explanation& actual,
                           const core::Explanation& expected) {
  EXPECT_EQ(actual.suggested_drugs, expected.suggested_drugs);
  EXPECT_EQ(actual.subgraph_drugs, expected.subgraph_drugs);
  ExpectSameEdges(actual.subgraph_edges, expected.subgraph_edges,
                  "subgraph_edges");
  ExpectSameEdges(actual.synergies_within, expected.synergies_within,
                  "synergies_within");
  ExpectSameEdges(actual.antagonisms_within, expected.antagonisms_within,
                  "antagonisms_within");
  ExpectSameEdges(actual.antagonisms_outward, expected.antagonisms_outward,
                  "antagonisms_outward");
  EXPECT_EQ(Bits(actual.suggestion_satisfaction),
            Bits(expected.suggestion_satisfaction));
  EXPECT_EQ(actual.trussness, expected.trussness);
  EXPECT_EQ(actual.diameter, expected.diameter);
  EXPECT_EQ(Bits(actual.density), Bits(expected.density));
}

/// `count` distinct random 3-drug vectors over `num_drugs` drugs.
std::vector<std::vector<int>> DistinctDrugVectors(int num_drugs, size_t count,
                                                  uint64_t seed) {
  util::Rng rng(seed);
  std::set<std::vector<int>> seen;
  std::vector<std::vector<int>> vectors;
  while (vectors.size() < count) {
    std::vector<int> drugs = rng.SampleWithoutReplacement(num_drugs, 3);
    if (seen.insert(drugs).second) vectors.push_back(std::move(drugs));
  }
  return vectors;
}

TEST(ExplanationMemoTest, HitsMatchExplainBitForBitInEveryOrder) {
  const graph::SignedGraph ddi =
      data::GenerateDdiDatabase(data::Catalog::Instance());
  for (const core::ExplainerKind kind :
       {core::ExplainerKind::kClosestTrussCommunity,
        core::ExplainerKind::kDensestSubgraph}) {
    SCOPED_TRACE(core::ExplainerKindName(kind));
    const core::MsModule ms(ddi, 0.5, kind);
    serve::ExplanationMemo memo(ms);
    size_t stored = 0;
    // The sets must reach every field, or a field could go unchecked.
    size_t with_edges = 0, with_within = 0, with_outward = 0;
    for (std::vector<int> drugs :
         DistinctDrugVectors(ddi.num_vertices(), 12, /*seed=*/7)) {
      std::sort(drugs.begin(), drugs.end());
      do {
        SCOPED_TRACE(::testing::PrintToString(drugs));
        const core::Explanation expected = ms.Explain(drugs);
        with_edges += !expected.subgraph_edges.empty();
        with_within += !expected.synergies_within.empty() ||
                       !expected.antagonisms_within.empty();
        with_outward += !expected.antagonisms_outward.empty();
        bool hit = true;
        ExpectSameExplanation(memo.Explain(drugs, &hit), expected);
        EXPECT_FALSE(hit);
        ExpectSameExplanation(memo.Explain(drugs, &hit), expected);
        EXPECT_TRUE(hit);
        // Each order is its own key: the explanation depends on it.
        EXPECT_EQ(memo.size(), ++stored);
      } while (std::next_permutation(drugs.begin(), drugs.end()));
    }
    EXPECT_GT(with_edges, 0u);
    EXPECT_GT(with_within, 0u);
    EXPECT_GT(with_outward, 0u);
  }
}

TEST(ExplanationMemoTest, StopsGrowingAtCapacityAndStaysCorrect) {
  const graph::SignedGraph ddi =
      data::GenerateDdiDatabase(data::Catalog::Instance());
  const core::MsModule ms(ddi);
  serve::ExplanationMemo memo(ms);
  constexpr size_t kCapacity = serve::ExplanationMemo::kCapacity;
  const std::vector<std::vector<int>> vectors =
      DistinctDrugVectors(ddi.num_vertices(), kCapacity + 1, /*seed=*/3);
  bool hit = true;
  for (size_t i = 0; i < kCapacity; ++i) {
    memo.Explain(vectors[i], &hit);
    ASSERT_FALSE(hit) << i;
  }
  EXPECT_EQ(memo.size(), kCapacity);

  // Full: a new vector is computed, answered correctly and not stored,
  // so it misses again.
  const std::vector<int>& late = vectors[kCapacity];
  for (int round = 0; round < 2; ++round) {
    ExpectSameExplanation(memo.Explain(late, &hit), ms.Explain(late));
    EXPECT_FALSE(hit);
    EXPECT_EQ(memo.size(), kCapacity);
  }
  // The stored vectors still hit, with their own answers.
  for (const size_t i : {size_t{0}, kCapacity / 2, kCapacity - 1}) {
    ExpectSameExplanation(memo.Explain(vectors[i], &hit),
                          ms.Explain(vectors[i]));
    EXPECT_TRUE(hit) << i;
  }
}

// ---------------------------------------------------------------------
// SuggestionService end-to-end: identical to the in-process system.
// ---------------------------------------------------------------------

class SuggestionServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new data::SuggestionDataset(testing::TinyDataset());
    core::DssddiConfig config;
    config.ddi.epochs = 60;
    config.md.epochs = 80;
    config.md.hidden_dim = 16;
    system_ = new core::DssddiSystem(config);
    system_->Fit(*dataset_);
    bundle_ = new io::InferenceBundle(
        io::ExtractInferenceBundle(*system_, *dataset_));
    // These tests assert bit-identity against the float training stack,
    // so the bundle pins the float path regardless of DSSDDI_QUANTIZE —
    // the int8 contract (top-k agreement) lives in quantize_serving_test.
    bundle_->quantization = static_cast<int>(tensor::kernels::QuantMode::kNone);
  }
  static void TearDownTestSuite() {
    delete bundle_;
    delete system_;
    delete dataset_;
    bundle_ = nullptr;
    system_ = nullptr;
    dataset_ = nullptr;
  }

  static serve::Request RequestFor(int patient, int k) {
    serve::Request request;
    request.patient_id = patient;
    const auto& features = dataset_->patient_features;
    request.features.assign(features.RowPtr(patient),
                            features.RowPtr(patient) + features.cols());
    request.k = k;
    return request;
  }

  static void ExpectSameSuggestion(const core::Suggestion& actual,
                                   const core::Suggestion& expected) {
    EXPECT_EQ(actual.drugs, expected.drugs);
    ASSERT_EQ(actual.scores.size(), expected.scores.size());
    for (size_t i = 0; i < expected.scores.size(); ++i) {
      EXPECT_EQ(actual.scores[i], expected.scores[i]) << "score " << i;
    }
    ExpectSameExplanation(actual.explanation, expected.explanation);
  }

  static data::SuggestionDataset* dataset_;
  static core::DssddiSystem* system_;
  static io::InferenceBundle* bundle_;
};

data::SuggestionDataset* SuggestionServiceTest::dataset_ = nullptr;
core::DssddiSystem* SuggestionServiceTest::system_ = nullptr;
io::InferenceBundle* SuggestionServiceTest::bundle_ = nullptr;

TEST_F(SuggestionServiceTest, MatchesDirectSuggestForEveryTestPatient) {
  serve::ServiceOptions options;
  options.num_threads = 4;
  options.max_batch_size = 8;
  serve::SuggestionService service(*bundle_, options);

  constexpr int kK = 3;
  const std::vector<int>& patients = dataset_->split.test;
  std::vector<std::future<core::Suggestion>> futures;
  futures.reserve(patients.size());
  for (int patient : patients) {
    futures.push_back(service.Submit(RequestFor(patient, kK)));
  }
  for (size_t i = 0; i < patients.size(); ++i) {
    const core::Suggestion actual = futures[i].get();
    const core::Suggestion expected = system_->Suggest(*dataset_, patients[i], kK);
    ExpectSameSuggestion(actual, expected);
  }

  const serve::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.requests, patients.size());
  EXPECT_EQ(stats.completed, patients.size());
  EXPECT_GE(stats.mean_batch_size, 1.0);
  // The active GEMM kernel is part of the stats surface, so perf numbers
  // are always attributable to a specific backend.
  EXPECT_EQ(stats.gemm_backend,
            tensor::kernels::ActiveBackendName());
  EXPECT_FALSE(stats.gemm_backend.empty());
}

TEST_F(SuggestionServiceTest, RepeatQueriesAreServedFromCache) {
  serve::ServiceOptions options;
  options.num_threads = 2;
  options.cache_capacity = 128;
  serve::SuggestionService service(*bundle_, options);

  const int patient = dataset_->split.test.front();
  const core::Suggestion first = service.Submit(RequestFor(patient, 4)).get();
  const core::Suggestion second = service.Submit(RequestFor(patient, 4)).get();
  ExpectSameSuggestion(second, first);

  const serve::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);  // only the first Submit missed
  EXPECT_GT(stats.cache_hit_rate, 0.0);
}

TEST_F(SuggestionServiceTest, SubmitBatchPreservesOrderAndMatchesDirect) {
  serve::ServiceOptions options;
  options.num_threads = 4;
  options.max_batch_size = 16;
  serve::SuggestionService service(*bundle_, options);

  std::vector<int> patients(dataset_->split.test.begin(),
                            dataset_->split.test.begin() + 6);
  std::vector<serve::Request> requests;
  for (int patient : patients) requests.push_back(RequestFor(patient, 2));
  const std::vector<core::Suggestion> results = service.SubmitBatch(std::move(requests));
  ASSERT_EQ(results.size(), patients.size());
  for (size_t i = 0; i < patients.size(); ++i) {
    ExpectSameSuggestion(results[i], system_->Suggest(*dataset_, patients[i], 2));
  }
}

TEST_F(SuggestionServiceTest, ExplanationFreeRequestsMatchOnDrugsAndScores) {
  serve::SuggestionService service(*bundle_, {});
  const int patient = dataset_->split.test.back();
  serve::Request request = RequestFor(patient, 3);
  request.explain = false;
  const core::Suggestion actual = service.Submit(std::move(request)).get();
  const core::Suggestion expected = system_->Suggest(*dataset_, patient, 3);
  EXPECT_EQ(actual.drugs, expected.drugs);
  for (size_t i = 0; i < expected.scores.size(); ++i) {
    EXPECT_EQ(actual.scores[i], expected.scores[i]);
  }
  EXPECT_TRUE(actual.explanation.subgraph_drugs.empty());
}

TEST_F(SuggestionServiceTest, TracedExplanationIsItsOwnStage) {
  serve::SuggestionService service(*bundle_, {});
  const int patient = dataset_->split.test.front();
  auto traced = [&](bool explain) {
    serve::Request request = RequestFor(patient, 3);
    request.explain = explain;
    request.context.trace = std::make_shared<obs::Trace>();
    const std::shared_ptr<obs::Trace> trace = request.context.trace;
    service.Submit(std::move(request)).get();
    return trace;
  };
  // explain=true: the top-k epilogue and the explanation are both
  // stamped, each in its own span.
  const std::shared_ptr<obs::Trace> explained = traced(true);
  EXPECT_GT(explained->StageNs(obs::Stage::kEpilogue), 0u);
  EXPECT_GT(explained->StageNs(obs::Stage::kExplain), 0u);
  // explain=false never enters the explainer.
  const std::shared_ptr<obs::Trace> plain = traced(false);
  EXPECT_GT(plain->StageNs(obs::Stage::kEpilogue), 0u);
  EXPECT_EQ(plain->StageNs(obs::Stage::kExplain), 0u);
  EXPECT_STREQ(obs::StageName(obs::Stage::kExplain), "explain");
}

TEST_F(SuggestionServiceTest, MalformedRequestsAreRejectedViaTheFuture) {
  serve::SuggestionService service(*bundle_, {});
  serve::Request bad_width;
  bad_width.features = {1.0f, 2.0f};  // wrong feature width
  bad_width.k = 3;
  EXPECT_THROW(service.Submit(std::move(bad_width)).get(), std::invalid_argument);

  serve::Request bad_k = RequestFor(dataset_->split.test.front(), 3);
  bad_k.k = 0;
  EXPECT_THROW(service.Submit(std::move(bad_k)).get(), std::invalid_argument);

  // Rejected submissions are not counted as accepted requests, so
  // requests == completed and monitors see no phantom backlog.
  const serve::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.requests, 0u);
  EXPECT_EQ(stats.completed, 0u);
}

TEST_F(SuggestionServiceTest, ChangedFeaturesForSamePatientIdBypassStaleCache) {
  serve::ServiceOptions options;
  options.cache_capacity = 64;
  serve::SuggestionService service(*bundle_, options);

  // Same external id, two different underlying patients: the cache must
  // not answer the second query with the first patient's suggestion.
  const int patient_a = dataset_->split.test[0];
  const int patient_b = dataset_->split.test[1];
  serve::Request first = RequestFor(patient_a, 3);
  serve::Request second = RequestFor(patient_b, 3);
  second.patient_id = first.patient_id;

  const core::Suggestion got_a = service.Submit(std::move(first)).get();
  const core::Suggestion got_b = service.Submit(std::move(second)).get();
  ExpectSameSuggestion(got_a, system_->Suggest(*dataset_, patient_a, 3));
  ExpectSameSuggestion(got_b, system_->Suggest(*dataset_, patient_b, 3));

  // Identical repeat (same id AND same features) still hits.
  const core::Suggestion repeat = service.Submit(RequestFor(patient_a, 3)).get();
  ExpectSameSuggestion(repeat, got_a);
  EXPECT_GE(service.Stats().cache_hits, 1u);
}

TEST_F(SuggestionServiceTest, HonorsTheBundlesExplainerKind) {
  // A system configured with the densest-subgraph explainer must serve
  // densest-subgraph explanations, not the default truss community.
  core::DssddiConfig config;
  config.ddi.epochs = 30;
  config.md.epochs = 40;
  config.md.hidden_dim = 16;
  config.ms_explainer = core::ExplainerKind::kDensestSubgraph;
  core::DssddiSystem densest_system(config);
  densest_system.Fit(*dataset_);
  auto bundle = io::ExtractInferenceBundle(densest_system, *dataset_);
  bundle.quantization = static_cast<int>(tensor::kernels::QuantMode::kNone);
  EXPECT_EQ(bundle.ms_explainer,
            static_cast<int>(core::ExplainerKind::kDensestSubgraph));

  serve::ServiceOptions options;
  options.cache_capacity = 0;  // the repeat is answered by the memo
  serve::SuggestionService service(bundle, options);
  const int patient = dataset_->split.test.front();
  const core::Suggestion actual = service.Submit(RequestFor(patient, 3)).get();
  const core::Suggestion expected = densest_system.Suggest(*dataset_, patient, 3);
  ExpectSameSuggestion(actual, expected);
  ExpectSameSuggestion(service.Submit(RequestFor(patient, 3)).get(), expected);
  EXPECT_EQ(service.Stats().explain_memo_misses, 1u);
  EXPECT_EQ(service.Stats().explain_memo_hits, 1u);
  // The densest explainer fills density and leaves trussness at 0.
  EXPECT_EQ(actual.explanation.trussness, expected.explanation.trussness);
  EXPECT_DOUBLE_EQ(actual.explanation.density, expected.explanation.density);
}

TEST_F(SuggestionServiceTest, ConcurrentMixedLoadStaysConsistent) {
  serve::ServiceOptions options;
  options.num_threads = 4;
  options.max_batch_size = 8;
  options.cache_capacity = 64;
  serve::SuggestionService service(*bundle_, options);

  const std::vector<int>& patients = dataset_->split.test;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < 25; ++i) {
        const int patient = patients[(t * 7 + i) % patients.size()];
        const core::Suggestion got = service.Submit(RequestFor(patient, 3)).get();
        const core::Suggestion want = system_->Suggest(*dataset_, patient, 3);
        if (got.drugs != want.drugs) failures.fetch_add(1);
      }
    });
  }
  for (auto& client : clients) client.join();
  EXPECT_EQ(failures.load(), 0);
  const serve::ServiceStats stats = service.Stats();
  EXPECT_GT(stats.cache_hits, 0u);
  // Conservation: each event is counted once, at the one place that knows
  // it happened, so the drained counts add up exactly. Every request did
  // one cache lookup, and every one was answered by exactly one of a
  // hit, a ride on an identical in-flight query, or a batch row.
  EXPECT_EQ(stats.requests, 100u);
  EXPECT_EQ(stats.completed, 100u);
  EXPECT_EQ(stats.in_flight, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, 100u);
  const uint64_t rows = static_cast<uint64_t>(
      std::llround(stats.mean_batch_size * static_cast<double>(stats.batches)));
  EXPECT_EQ(stats.cache_hits + stats.coalesced + rows, 100u);
}

// ---------------------------------------------------------------------
// Admission control and hot reload.
// ---------------------------------------------------------------------

/// One dssddi_admission_total series, read from the registry a gate
/// counts its decisions into.
uint64_t Decisions(obs::Registry& registry, const char* decision) {
  return registry
      .GetCounter("dssddi_admission_total", "", {{"decision", decision}})
      ->Value();
}

TEST(AdmissionControllerTest, EnforcesBothBoundsAndCounts) {
  serve::AdmissionController::Options options;
  options.max_in_flight = 2;
  options.max_queue_depth = 3;
  obs::Registry registry;
  serve::AdmissionController gate(registry, options);
  EXPECT_TRUE(gate.enabled());

  EXPECT_TRUE(gate.Admit(/*in_flight=*/0, /*queue_depth=*/0));
  EXPECT_TRUE(gate.Admit(1, 2));
  EXPECT_FALSE(gate.Admit(2, 0));  // in-flight bound
  EXPECT_FALSE(gate.Admit(0, 3));  // queue bound
  EXPECT_EQ(Decisions(registry, "admitted"), 2u);
  EXPECT_EQ(Decisions(registry, "shed_load"), 2u);
  EXPECT_EQ(gate.admitted(), 2u);
  EXPECT_EQ(gate.shed(), 2u);

  obs::Registry open_registry;
  // Both bounds 0 = admit everything.
  serve::AdmissionController open(open_registry, {});
  EXPECT_FALSE(open.enabled());
  EXPECT_TRUE(open.Admit(1u << 20, 1u << 20));
}

TEST(AdmissionControllerTest, ExactlyAtBoundBehavior) {
  // The bound is "at most N in flight": depth N-1 admits (bringing the
  // total to N), depth N sheds. Off-by-one here either leaks a slot or
  // wastes one forever.
  serve::AdmissionController::Options options;
  options.max_in_flight = 4;
  obs::Registry registry;
  serve::AdmissionController in_flight_gate(registry, options);
  EXPECT_TRUE(in_flight_gate.Admit(3, 0));
  EXPECT_FALSE(in_flight_gate.Admit(4, 0));
  EXPECT_FALSE(in_flight_gate.Admit(5, 0));

  serve::AdmissionController::Options queue_options;
  queue_options.max_queue_depth = 2;
  serve::AdmissionController queue_gate(registry, queue_options);
  EXPECT_TRUE(queue_gate.Admit(0, 1));
  EXPECT_FALSE(queue_gate.Admit(0, 2));
}

TEST(AdmissionControllerTest, BothBoundsZeroPassThroughCountsAdmitted) {
  obs::Registry registry;
  serve::AdmissionController open(registry, {});
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(open.Admit(static_cast<size_t>(i) << 20, 1u << 30));
  }
  EXPECT_EQ(Decisions(registry, "admitted"), 100u);
  EXPECT_EQ(Decisions(registry, "shed_load"), 0u);
  EXPECT_EQ(Decisions(registry, "shed_deadline"), 0u);
}

TEST(AdmissionControllerTest, DeadlineFeasibilityShedsSeparately) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  obs::Registry registry;
  serve::AdmissionController gate(registry, {});  // depth bounds open
  using Decision = serve::AdmissionController::Decision;

  // Already expired: shed regardless of the (unknown) p50.
  EXPECT_EQ(gate.AdmitWithDeadline(0, 0, -3.0, 0.0), Decision::kShedDeadline);
  EXPECT_EQ(gate.AdmitWithDeadline(0, 0, 0.0, 0.0), Decision::kShedDeadline);
  // Budget below observed p50: infeasible.
  EXPECT_EQ(gate.AdmitWithDeadline(0, 0, 5.0, 10.0), Decision::kShedDeadline);
  // Budget above p50, and no-deadline requests, pass.
  EXPECT_EQ(gate.AdmitWithDeadline(0, 0, 20.0, 10.0), Decision::kAdmit);
  EXPECT_EQ(gate.AdmitWithDeadline(0, 0, kInf, 1e12), Decision::kAdmit);
  // Unknown p50 (0.0): only expiry sheds.
  EXPECT_EQ(gate.AdmitWithDeadline(0, 0, 0.001, 0.0), Decision::kAdmit);

  EXPECT_EQ(Decisions(registry, "shed_deadline"), 3u);
  // Counted separately from load sheds.
  EXPECT_EQ(Decisions(registry, "shed_load"), 0u);
  EXPECT_EQ(Decisions(registry, "admitted"), 3u);

  // Headroom factor demands margin beyond the bare p50.
  serve::AdmissionController::Options cautious;
  cautious.deadline_headroom = 2.0;
  obs::Registry cautious_registry;
  serve::AdmissionController cautious_gate(cautious_registry, cautious);
  EXPECT_EQ(cautious_gate.AdmitWithDeadline(0, 0, 15.0, 10.0),
            Decision::kShedDeadline);
  EXPECT_EQ(cautious_gate.AdmitWithDeadline(0, 0, 25.0, 10.0),
            Decision::kAdmit);

  // Deadline check runs before depth bounds: a doomed request is not
  // counted (or reported) as overload.
  serve::AdmissionController::Options bounded;
  bounded.max_in_flight = 1;
  obs::Registry both_registry;
  serve::AdmissionController both_gate(both_registry, bounded);
  EXPECT_EQ(both_gate.AdmitWithDeadline(5, 0, 1.0, 10.0),
            Decision::kShedDeadline);
  EXPECT_EQ(both_gate.AdmitWithDeadline(5, 0, kInf, 0.0),
            Decision::kShedLoad);
}

TEST(AdmissionControllerTest, ProbesEveryNthInfeasibleDeadline) {
  using Decision = serve::AdmissionController::Decision;
  // The p50 estimate only refreshes when requests complete; if every
  // infeasible-budget request were shed, a stale-high estimate would
  // keep the gate shut forever. Every 16th candidate goes through as a
  // probe instead.
  obs::Registry registry;
  serve::AdmissionController gate(registry, {});
  int admitted = 0;
  int shed = 0;
  for (int i = 0; i < 32; ++i) {
    if (gate.AdmitWithDeadline(0, 0, 5.0, 10.0) == Decision::kAdmit) {
      ++admitted;
    } else {
      ++shed;
    }
  }
  EXPECT_EQ(admitted, 2);  // the 16th and 32nd candidates
  EXPECT_EQ(shed, 30);

  // Already-expired budgets are never probed — they cannot succeed.
  obs::Registry expired_registry;
  serve::AdmissionController expired_gate(expired_registry, {});
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(expired_gate.AdmitWithDeadline(0, 0, -1.0, 0.0),
              Decision::kShedDeadline);
  }
}

TEST(AdmissionControllerTest, DegradedModeShedsBatchAndTightensHeadroom) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  using Decision = serve::AdmissionController::Decision;
  using Priority = serve::RequestPriority;
  obs::Registry registry;
  serve::AdmissionController gate(registry, {});  // depth bounds open

  // Healthy gate: both classes pass.
  EXPECT_EQ(gate.AdmitWithDeadline(0, 0, kInf, 0.0, Priority::kBatch),
            Decision::kAdmit);
  EXPECT_EQ(gate.AdmitWithDeadline(0, 0, 30.0, 10.0, Priority::kInteractive),
            Decision::kAdmit);

  gate.set_degraded(true);
  EXPECT_TRUE(gate.degraded());
  // Batch arrivals are shed outright (429), even with infinite budget
  // and empty queues — graceful degradation drops the class that asked
  // to be dropped first.
  EXPECT_EQ(gate.AdmitWithDeadline(0, 0, kInf, 0.0, Priority::kBatch),
            Decision::kShedLoad);
  // Interactive arrivals must show the multiplied headroom: the default
  // 1.0 x 2.0 means a 15 ms budget over a 10 ms p50 — fine when healthy
  // (see above with 30) — now sheds, while 25 ms still clears.
  EXPECT_EQ(gate.AdmitWithDeadline(0, 0, 15.0, 10.0, Priority::kInteractive),
            Decision::kShedDeadline);
  EXPECT_EQ(gate.AdmitWithDeadline(0, 0, 25.0, 10.0, Priority::kInteractive),
            Decision::kAdmit);

  // Degraded sheds count in both `degraded_shed` and `shed`: /metricsz
  // totals stay consistent and the degraded cost stays attributable.
  EXPECT_EQ(Decisions(registry, "shed_degraded"), 1u);
  EXPECT_EQ(Decisions(registry, "shed_load"), 1u);
  EXPECT_EQ(Decisions(registry, "shed_deadline"), 1u);
  EXPECT_EQ(gate.degraded_shed(), 1u);

  // Exit restores both classes.
  gate.set_degraded(false);
  EXPECT_EQ(gate.AdmitWithDeadline(0, 0, kInf, 0.0, Priority::kBatch),
            Decision::kAdmit);
  EXPECT_EQ(gate.AdmitWithDeadline(0, 0, 15.0, 10.0, Priority::kInteractive),
            Decision::kAdmit);

  // Opting out of the batch shed leaves only the headroom lever.
  serve::AdmissionController::Options keep_batch;
  keep_batch.degraded_shed_batch = false;
  obs::Registry no_shed_registry;
  serve::AdmissionController no_shed_gate(no_shed_registry, keep_batch);
  no_shed_gate.set_degraded(true);
  EXPECT_EQ(no_shed_gate.AdmitWithDeadline(0, 0, kInf, 0.0, Priority::kBatch),
            Decision::kAdmit);
}

TEST(AdmissionControllerTest, ColdStartTrackerP50AdmitsDeadlineRequests) {
  // Regression: a fresh LatencyTracker reports p50 = 0.0 until its first
  // refresh (64 records). Fed into AdmitWithDeadline that must read as
  // "service time unknown" — admit any request with budget remaining —
  // not as "service is instant" nor as a shed. A bug here blackholes
  // every deadline-carrying request on a cold server.
  obs::Registry registry;
  serve::LatencyTracker tracker(
      registry.GetHistogram("dssddi_request_latency_ms", "latency",
                            {{"route", "/v1/suggest"}}));
  EXPECT_EQ(tracker.CachedP50Ms(), 0.0);

  using Decision = serve::AdmissionController::Decision;
  serve::AdmissionController gate(registry, {});
  EXPECT_EQ(gate.AdmitWithDeadline(0, 0, 1.0, tracker.CachedP50Ms()),
            Decision::kAdmit);
  EXPECT_EQ(gate.AdmitWithDeadline(0, 0, 250.0, tracker.CachedP50Ms()),
            Decision::kAdmit);
  // Expired budgets still shed during cold start.
  EXPECT_EQ(gate.AdmitWithDeadline(0, 0, 0.0, tracker.CachedP50Ms()),
            Decision::kShedDeadline);

  // Below the refresh threshold the estimate stays 0.0 even with slow
  // samples recorded; past it, the estimate turns on and tight budgets
  // start shedding.
  for (int i = 0; i < 63; ++i) tracker.Record(100.0);
  EXPECT_EQ(tracker.CachedP50Ms(), 0.0);
  EXPECT_EQ(gate.AdmitWithDeadline(0, 0, 1.0, tracker.CachedP50Ms()),
            Decision::kAdmit);
  tracker.Record(100.0);  // 64th: refresh fires
  EXPECT_GT(tracker.CachedP50Ms(), 50.0);
  EXPECT_EQ(gate.AdmitWithDeadline(0, 0, 1.0, tracker.CachedP50Ms()),
            Decision::kShedDeadline);
}

TEST(AdmissionControllerTest, ConcurrentAdmitCompleteCountersConsistent) {
  // Hammer one gate from many threads with a mix of outcomes; every call
  // must land in exactly one counter (no torn or lost increments).
  serve::AdmissionController::Options options;
  options.max_in_flight = 8;
  obs::Registry registry;
  serve::AdmissionController gate(registry, options);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&gate, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const size_t in_flight = static_cast<size_t>((t + i) % 16);
        const double remaining =
            (i % 5 == 0) ? -1.0 : std::numeric_limits<double>::infinity();
        gate.AdmitWithDeadline(in_flight, 0, remaining, 0.0);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const uint64_t admitted = Decisions(registry, "admitted");
  const uint64_t shed = Decisions(registry, "shed_load");
  const uint64_t deadline_shed = Decisions(registry, "shed_deadline");
  EXPECT_EQ(admitted + shed + deadline_shed,
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_GT(admitted, 0u);
  EXPECT_GT(shed, 0u);
  EXPECT_GT(deadline_shed, 0u);
}

TEST_F(SuggestionServiceTest, TrySubmitShedsWhenInFlightBoundIsHit) {
  serve::ServiceOptions options;
  options.num_threads = 1;
  options.max_batch_size = 64;
  options.admission.max_in_flight = 1;
  serve::SuggestionService service(*bundle_, options);
  // Park the only worker so admitted requests stay in flight.
  testing::WorkerGate gate;
  testing::ParkWorker(service, gate);

  std::promise<core::Suggestion> first_done;
  ASSERT_EQ(service.TrySubmitAsync(
                RequestFor(dataset_->split.test[0], 3),
                [&first_done](core::Suggestion suggestion,
                              std::shared_ptr<const serve::ModelSnapshot>,
                              std::exception_ptr) {
                  first_done.set_value(std::move(suggestion));
                }),
            serve::AdmissionController::Decision::kAdmit);
  // The first request is queued behind the parked worker, so the gate
  // must shed the second arrival instead of queuing it.
  EXPECT_EQ(service.TrySubmitAsync(
                RequestFor(dataset_->split.test[1], 3),
                [](core::Suggestion, std::shared_ptr<const serve::ModelSnapshot>,
                   std::exception_ptr) { FAIL() << "shed request ran"; }),
            serve::AdmissionController::Decision::kShedLoad);

  gate.Release();
  first_done.get_future().get();
  const serve::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.shed, 1u);
}

TEST_F(SuggestionServiceTest, QueueDepthBoundCountsQueuedRequests) {
  // max_queue_depth is a bound on requests. With the worker parked, the
  // shed must come at exactly that many queued requests — not later, as
  // it would if queued batches counted once each.
  constexpr size_t kMaxQueued = 5;
  serve::ServiceOptions options;
  options.num_threads = 1;
  options.max_batch_size = 64;
  options.cache_capacity = 0;  // no coalescing: every admit is queued
  options.admission.max_queue_depth = kMaxQueued;
  serve::SuggestionService service(*bundle_, options);
  testing::WorkerGate gate;
  testing::ParkWorker(service, gate);

  std::vector<std::future<core::Suggestion>> admitted;
  const std::vector<int>& patients = dataset_->split.test;
  for (size_t i = 0; i < kMaxQueued; ++i) {
    auto promise = std::make_shared<std::promise<core::Suggestion>>();
    admitted.push_back(promise->get_future());
    ASSERT_EQ(service.TrySubmitAsync(
                  RequestFor(patients[i % patients.size()], 3),
                  [promise](core::Suggestion suggestion,
                            std::shared_ptr<const serve::ModelSnapshot>,
                            std::exception_ptr) {
                    promise->set_value(std::move(suggestion));
                  }),
              serve::AdmissionController::Decision::kAdmit)
        << "shed with only " << i << " requests queued";
  }
  // Only a free worker cuts, so however long they wait, all of them are
  // still queued requests when the next arrival is judged.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(service.QueueDepth(), kMaxQueued);
  EXPECT_EQ(service.TrySubmitAsync(
                RequestFor(patients[0], 3),
                [](core::Suggestion, std::shared_ptr<const serve::ModelSnapshot>,
                   std::exception_ptr) { FAIL() << "shed request ran"; }),
            serve::AdmissionController::Decision::kShedLoad);

  gate.Release();
  for (auto& future : admitted) future.get();
  const serve::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.admitted, kMaxQueued);
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST_F(SuggestionServiceTest, ExpiredRequestFailsWithDeadlineExceededUnscored) {
  serve::ServiceOptions options;
  options.num_threads = 1;
  options.cache_capacity = 0;  // force the batcher path
  serve::SuggestionService service(*bundle_, options);

  serve::Request request = RequestFor(dataset_->split.test[0], 3);
  request.context.arrival = std::chrono::steady_clock::now();
  request.context.deadline =
      request.context.arrival - std::chrono::milliseconds(1);  // already blown
  std::future<core::Suggestion> future = service.Submit(std::move(request));
  EXPECT_THROW(future.get(), serve::DeadlineExceeded);

  const serve::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.batches, 0u);  // dropped before any matrix pass

  // A request with a generous budget on the same service still scores.
  serve::Request live = RequestFor(dataset_->split.test[0], 3);
  live.context = serve::RequestContext::AtEdge(/*budget_ms=*/60000);
  ExpectSameSuggestion(service.Submit(std::move(live)).get(),
                       system_->Suggest(*dataset_, dataset_->split.test[0], 3));
  EXPECT_EQ(service.Stats().expired, 1u);
}

TEST_F(SuggestionServiceTest, TrySubmitDeadlineShedsExpiredBudget) {
  serve::SuggestionService service(*bundle_, {});
  serve::Request request = RequestFor(dataset_->split.test[0], 3);
  request.context.arrival = std::chrono::steady_clock::now();
  request.context.deadline = request.context.arrival;  // zero budget
  EXPECT_EQ(service.TrySubmitAsync(
                std::move(request),
                [](core::Suggestion, std::shared_ptr<const serve::ModelSnapshot>,
                   std::exception_ptr) { FAIL() << "shed request ran"; }),
            serve::AdmissionController::Decision::kShedDeadline);
  const serve::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.deadline_shed, 1u);
  EXPECT_EQ(stats.expired, 0u);   // never admitted, so never "expired"
  EXPECT_EQ(stats.requests, 0u);  // and never submitted
}

TEST_F(SuggestionServiceTest, StatsReportOrderedLatencyPercentiles) {
  serve::ServiceOptions options;
  options.num_threads = 2;
  serve::SuggestionService service(*bundle_, options);
  const std::vector<int>& patients = dataset_->split.test;
  for (int i = 0; i < 40; ++i) {
    service.Submit(RequestFor(patients[i % patients.size()], 3)).get();
  }
  const serve::ServiceStats stats = service.Stats();
  EXPECT_GT(stats.p50_latency_ms, 0.0);
  EXPECT_LE(stats.p50_latency_ms, stats.p90_latency_ms);
  EXPECT_LE(stats.p90_latency_ms, stats.p99_latency_ms);
  EXPECT_LE(stats.p99_latency_ms, stats.max_latency_ms);
}

TEST_F(SuggestionServiceTest, ReloadSwapsModelAndFlushesCache) {
  serve::ServiceOptions options;
  options.num_threads = 2;
  options.cache_capacity = 64;
  serve::SuggestionService service(*bundle_, options);
  EXPECT_EQ(service.model_version(), 1u);

  const int patient = dataset_->split.test.front();
  // Warm the cache against model v1.
  const core::Suggestion before = service.Submit(RequestFor(patient, 3)).get();
  ExpectSameSuggestion(before, system_->Suggest(*dataset_, patient, 3));

  // Train a genuinely different model and hot-swap it in.
  core::DssddiConfig config;
  config.ddi.epochs = 30;
  config.md.epochs = 40;
  config.md.hidden_dim = 8;
  core::DssddiSystem other(config);
  other.Fit(*dataset_);
  io::InferenceBundle other_bundle = io::ExtractInferenceBundle(other, *dataset_);
  other_bundle.quantization = static_cast<int>(tensor::kernels::QuantMode::kNone);
  const io::Status status = service.Reload(std::move(other_bundle));
  ASSERT_TRUE(status.ok) << status.message;
  EXPECT_EQ(service.model_version(), 2u);
  EXPECT_EQ(service.Stats().reloads, 1u);

  // The same query must now be answered by the new model — the v1 cache
  // entry may not leak through.
  const core::Suggestion after = service.Submit(RequestFor(patient, 3)).get();
  ExpectSameSuggestion(after, other.Suggest(*dataset_, patient, 3));
}

TEST_F(SuggestionServiceTest, ReloadRejectsEmptyOrMismatchedBundles) {
  serve::SuggestionService service(*bundle_, {});

  EXPECT_FALSE(service.Reload(io::InferenceBundle{}).ok);

  io::InferenceBundle narrow = *bundle_;
  narrow.cluster_centroids =
      tensor::Matrix(narrow.cluster_centroids.rows(),
                     narrow.cluster_centroids.cols() + 1);
  EXPECT_FALSE(service.Reload(std::move(narrow)).ok);

  // The original model keeps serving untouched.
  EXPECT_EQ(service.model_version(), 1u);
  const int patient = dataset_->split.test.front();
  ExpectSameSuggestion(service.Submit(RequestFor(patient, 3)).get(),
                       system_->Suggest(*dataset_, patient, 3));
}


TEST_F(SuggestionServiceTest, ReloadStartsAnEmptyExplanationMemo) {
  serve::ServiceOptions options;
  options.num_threads = 1;
  options.cache_capacity = 0;  // every explained answer reaches the memo
  serve::SuggestionService service(*bundle_, options);
  const int patient = dataset_->split.test.front();
  const core::Suggestion expected = system_->Suggest(*dataset_, patient, 3);
  const auto counts = [&] {
    const serve::ServiceStats stats = service.Stats();
    return std::make_pair(stats.explain_memo_hits, stats.explain_memo_misses);
  };

  ExpectSameSuggestion(service.Submit(RequestFor(patient, 3)).get(), expected);
  EXPECT_EQ(counts(), std::make_pair(uint64_t{0}, uint64_t{1}));
  ExpectSameSuggestion(service.Submit(RequestFor(patient, 3)).get(), expected);
  EXPECT_EQ(counts(), std::make_pair(uint64_t{1}, uint64_t{1}));
  // An explanation-free request never consults the memo.
  serve::Request plain = RequestFor(patient, 3);
  plain.explain = false;
  service.Submit(std::move(plain)).get();
  EXPECT_EQ(counts(), std::make_pair(uint64_t{1}, uint64_t{1}));

  // The same model reloaded is a new snapshot with an empty memo: the
  // familiar vector misses once, then hits again.
  ASSERT_TRUE(service.Reload(*bundle_).ok);
  EXPECT_EQ(service.snapshot()->explanation_memo.size(), 0u);
  ExpectSameSuggestion(service.Submit(RequestFor(patient, 3)).get(), expected);
  EXPECT_EQ(counts(), std::make_pair(uint64_t{1}, uint64_t{2}));
  ExpectSameSuggestion(service.Submit(RequestFor(patient, 3)).get(), expected);
  EXPECT_EQ(counts(), std::make_pair(uint64_t{2}, uint64_t{2}));
}

TEST_F(SuggestionServiceTest, ConcurrentWorkersShareTheExplanationMemo) {
  serve::ServiceOptions options;
  options.num_threads = 4;
  options.max_batch_size = 4;
  options.cache_capacity = 0;  // every explained answer reaches the memo
  serve::SuggestionService service(*bundle_, options);

  const std::vector<int>& patients = dataset_->split.test;
  std::vector<core::Suggestion> want(patients.size());
  for (size_t i = 0; i < patients.size(); ++i) {
    want[i] = system_->Suggest(*dataset_, patients[i], 3);
  }
  constexpr int kClients = 4;
  constexpr int kPerClient = 25;
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerClient; ++i) {
        const size_t which = (t * 7 + i) % patients.size();
        ExpectSameSuggestion(
            service.Submit(RequestFor(patients[which], 3)).get(), want[which]);
      }
    });
  }
  for (auto& client : clients) client.join();

  std::set<std::vector<int>> vectors;
  for (int t = 0; t < kClients; ++t) {
    for (int i = 0; i < kPerClient; ++i) {
      vectors.insert(want[(t * 7 + i) % patients.size()].drugs);
    }
  }
  const serve::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.explain_memo_hits + stats.explain_memo_misses,
            static_cast<uint64_t>(kClients * kPerClient));
  // Two workers may both miss a vector neither has stored yet, but the
  // memo keeps one entry per vector.
  EXPECT_GE(stats.explain_memo_misses, vectors.size());
  EXPECT_GT(stats.explain_memo_hits, 0u);
  EXPECT_EQ(service.snapshot()->explanation_memo.size(), vectors.size());
}

}  // namespace
}  // namespace dssddi
