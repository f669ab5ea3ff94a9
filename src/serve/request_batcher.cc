#include "serve/request_batcher.h"

#include <algorithm>
#include <utility>

#include "obs/trace.h"
#include "util/logging.h"

namespace dssddi::serve {
namespace {

/// Batch-formation order: most urgent first. Deadline is the primary
/// key (no-deadline requests, deadline == max, naturally sort last),
/// priority class breaks deadline ties, arrival keeps the rest FIFO.
bool MoreUrgent(const PendingRequest& a, const PendingRequest& b) {
  const auto da = a.request.context.deadline;
  const auto db = b.request.context.deadline;
  if (da != db) return da < db;
  if (a.request.context.priority != b.request.context.priority) {
    return a.request.context.priority < b.request.context.priority;
  }
  return a.enqueue_time < b.enqueue_time;
}

}  // namespace

RequestBatcher::RequestBatcher(const Options& options, BatchHandler handler,
                               ExpiredHandler expired_handler)
    : options_(options),
      handler_(std::move(handler)),
      expired_handler_(std::move(expired_handler)) {
  DSSDDI_CHECK(handler_ != nullptr) << "RequestBatcher needs a batch handler";
  if (options_.max_batch_size < 1) options_.max_batch_size = 1;
  const int workers = std::max(options_.num_workers, 1);
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

RequestBatcher::~RequestBatcher() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void RequestBatcher::Enqueue(Request request, CacheKey key, Completion done) {
  DSSDDI_CHECK(done != nullptr) << "RequestBatcher::Enqueue needs a completion";
  PendingRequest pending;
  pending.request = std::move(request);
  pending.key = key;
  pending.done = std::move(done);
  pending.enqueue_time = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    DSSDDI_CHECK(!stopping_) << "RequestBatcher::Enqueue after shutdown";
    queue_.push_back(std::move(pending));
  }
  wake_.notify_one();
}

size_t RequestBatcher::QueueDepth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

void RequestBatcher::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopping, and everything is drained
    std::vector<PendingRequest> batch;
    std::vector<PendingRequest> expired;
    CutLocked(&batch, &expired);
    // A full cut can leave work behind; hand it to an idle worker now
    // rather than at the next arrival.
    if (!queue_.empty()) wake_.notify_one();
    lock.unlock();
    // Handlers complete their own requests; one that throws anyway is
    // logged here rather than ending the worker (and with it the queue).
    try {
      if (!expired.empty()) expired_handler_(std::move(expired));
    } catch (...) {
      DSSDDI_LOG(Warning) << "expired handler threw; worker continues";
    }
    try {
      if (!batch.empty()) handler_(std::move(batch));
    } catch (...) {
      DSSDDI_LOG(Warning) << "batch handler threw; worker continues";
    }
    lock.lock();
  }
}

void RequestBatcher::CutLocked(std::vector<PendingRequest>* batch,
                               std::vector<PendingRequest>* expired) {
  const size_t max_batch = static_cast<size_t>(options_.max_batch_size);
  // Expiry sweep: requests whose deadline already passed leave the
  // queue here — before scoring, without occupying one of the
  // max_batch slots below — and are completed by the expired handler.
  const auto now = std::chrono::steady_clock::now();
  if (expired_handler_) {
    for (auto it = queue_.begin(); it != queue_.end();) {
      if (it->request.context.ExpiredAt(now)) {
        expired->push_back(std::move(*it));
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
    // Stamp the sweep's cost on the sampled requests it removed: for a
    // 504 the sweep IS the stage that decided the request's fate. The
    // clock is read only when a sampled request was actually swept.
    bool any_traced = false;
    for (const PendingRequest& pending : *expired) {
      if (pending.request.context.trace) any_traced = true;
    }
    if (any_traced) {
      const auto sweep_ns = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - now)
              .count());
      for (const PendingRequest& pending : *expired) {
        if (obs::Trace* trace = pending.request.context.trace.get()) {
          trace->AddStageNs(obs::Stage::kExpirySweep, sweep_ns);
        }
      }
    }
  }

  // Oldest-deadline-first batch formation over the live remainder.
  // Selection, not a full sort: only the `take` most urgent requests
  // matter (a batch is one matrix pass; within-batch order is
  // cosmetic), and this runs under the mutex Enqueue contends on.
  const auto formation_start = std::chrono::steady_clock::now();
  const size_t take = std::min(queue_.size(), max_batch);
  if (take > 0 && queue_.size() > take) {
    std::nth_element(queue_.begin(), queue_.begin() + take, queue_.end(),
                     MoreUrgent);
  }
  if (take > 1) {
    std::sort(queue_.begin(), queue_.begin() + take, MoreUrgent);
  }
  // Anti-starvation floor: the longest-waiting request claims a slot in
  // every cut that would otherwise leave it behind, regardless of
  // urgency. Without this, sustained deadline-carrying traffic could
  // park a no-deadline (or far-deadline) request at the back of every
  // selection forever; with it, the FIFO head advances every cut while
  // the other slots stay deadline-ordered.
  if (take > 0 && queue_.size() > take) {
    const auto oldest = std::min_element(
        queue_.begin(), queue_.end(),
        [](const PendingRequest& a, const PendingRequest& b) {
          return a.enqueue_time < b.enqueue_time;
        });
    if (static_cast<size_t>(oldest - queue_.begin()) >= take) {
      std::iter_swap(queue_.begin() + take - 1, oldest);
    }
  }
  batch->reserve(take);
  for (size_t i = 0; i < take; ++i) {
    batch->push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  if (batch->empty()) return;
  // Formation (urgency selection + assembly) is batch-wide work, so
  // every sampled member gets the cut's full cost, mirroring the gemm
  // attribution. Second clock read only when someone is sampled.
  bool any_traced = false;
  for (const PendingRequest& pending : *batch) {
    if (pending.request.context.trace) any_traced = true;
  }
  if (any_traced) {
    const auto form_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - formation_start)
            .count());
    for (const PendingRequest& pending : *batch) {
      if (obs::Trace* trace = pending.request.context.trace.get()) {
        trace->AddStageNs(obs::Stage::kBatchForm, form_ns);
      }
    }
  }
}

}  // namespace dssddi::serve
