#ifndef DSSDDI_SERVE_REQUEST_BATCHER_H_
#define DSSDDI_SERVE_REQUEST_BATCHER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "core/dssddi_system.h"
#include "serve/request_context.h"
#include "serve/suggestion_cache.h"

namespace dssddi::serve {

struct ModelSnapshot;  // defined in serve/service.h

/// One top-k suggestion query as it enters the serving layer.
struct Request {
  /// Stable external id used as the cache key; negative bypasses the cache.
  int64_t patient_id = -1;
  /// Raw patient feature row (width must match the trained model).
  std::vector<float> features;
  int k = 3;
  /// When false, the (comparatively expensive) Medical Support subgraph
  /// explanation is skipped and only drugs + scores are filled.
  bool explain = true;
  /// Edge-created deadline/priority/trace metadata, carried through the
  /// whole pipeline. Default-constructed = no deadline (library callers).
  RequestContext context;
};

/// Completion sink for one request. On success `error` is null and
/// `snapshot` pins the model generation that produced the suggestion
/// (callers serializing the result must read names/version from it, not
/// from the service's current snapshot — a reload may have swapped in
/// between); `snapshot` may be null in contexts without a model (bare
/// batcher tests, failures). On failure the suggestion is
/// default-constructed and `error` carries the exception. Invoked exactly
/// once, from whichever thread finishes the request (a scoring worker, or
/// the submitter itself on a cache hit) — implementations must be safe to
/// run anywhere and should not throw (an escaping exception is swallowed
/// and logged, never redelivered). They must not block either: a scoring
/// worker also cuts the batches, so a completion that blocks stalls that
/// worker's share of the queue (and, with one worker, the whole queue)
/// until it returns.
using Completion =
    std::function<void(core::Suggestion suggestion,
                       std::shared_ptr<const ModelSnapshot> snapshot,
                       std::exception_ptr error)>;

/// A request travelling through the batcher with its completion handle.
struct PendingRequest {
  Request request;
  /// Cache/singleflight key, precomputed by the submitter for keyed
  /// requests (patient_id >= 0); default-initialized otherwise.
  CacheKey key;
  Completion done;
  std::chrono::steady_clock::time_point enqueue_time;

  void Complete(core::Suggestion suggestion,
                std::shared_ptr<const ModelSnapshot> snapshot = nullptr) {
    done(std::move(suggestion), std::move(snapshot), nullptr);
  }
  void Fail(std::exception_ptr error) {
    done(core::Suggestion{}, nullptr, error);
  }
};

/// Micro-batching request queue served by its own scoring threads. A
/// worker that is free cuts whatever is queued, up to `max_batch_size`,
/// and hands that batch to `handler` on its own thread; nothing holds a
/// batch open waiting for company. So batches form from load alone: a
/// lone request on an idle server is scored at once, and requests that
/// arrive while every worker is busy are cut together when one frees.
///
/// Deadline awareness (only when an `expired_handler` is supplied): at
/// every cut, requests whose RequestContext deadline has already passed
/// are swept out of the queue — before scoring, without consuming a
/// batch slot — and handed to `expired_handler` instead; the remaining
/// live requests are batched oldest-deadline-first (priority, then
/// arrival, break ties; no-deadline requests sort last), so the work
/// most likely to still matter on delivery is scored first. One batch
/// slot per cut is reserved for the longest-waiting request regardless
/// of urgency, so sustained deadline traffic can delay a no-deadline
/// request by at most queue_len/max_batch cuts, never starve it.
///
/// The destructor stops intake, lets the workers drain everything still
/// queued, and joins them, so no completion is ever abandoned.
class RequestBatcher {
 public:
  struct Options {
    int max_batch_size = 32;
    /// Scoring threads pulling batches from the queue (at least 1).
    int num_workers = 1;
  };

  /// Scores one cut batch; runs on the worker that cut it, which takes
  /// no further batch until it returns.
  using BatchHandler = std::function<void(std::vector<PendingRequest>)>;
  /// Receives the expired sweep of a cut; each pending request must
  /// still be completed (typically failed with DeadlineExceeded).
  using ExpiredHandler = std::function<void(std::vector<PendingRequest>)>;

  RequestBatcher(const Options& options, BatchHandler handler,
                 ExpiredHandler expired_handler = nullptr);
  ~RequestBatcher();

  RequestBatcher(const RequestBatcher&) = delete;
  RequestBatcher& operator=(const RequestBatcher&) = delete;

  /// Queues a request; `done` fires once its batch has been scored.
  /// `key` travels alongside so the scorer does not recompute it.
  void Enqueue(Request request, CacheKey key, Completion done);

  /// Requests queued but not yet cut into a batch.
  size_t QueueDepth() const;

  int num_workers() const { return static_cast<int>(workers_.size()); }

 private:
  void WorkerLoop();
  /// Sweeps expired requests into `*expired` and moves the next batch
  /// into `*batch`. Caller holds `mutex_`.
  void CutLocked(std::vector<PendingRequest>* batch,
                 std::vector<PendingRequest>* expired);

  Options options_;
  BatchHandler handler_;
  ExpiredHandler expired_handler_;

  mutable std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<PendingRequest> queue_;
  bool stopping_ = false;

  std::vector<std::thread> workers_;
};

}  // namespace dssddi::serve

#endif  // DSSDDI_SERVE_REQUEST_BATCHER_H_
