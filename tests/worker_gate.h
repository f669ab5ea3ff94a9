#ifndef DSSDDI_TESTS_WORKER_GATE_H_
#define DSSDDI_TESTS_WORKER_GATE_H_

#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <utility>

#include "serve/request_batcher.h"
#include "serve/service.h"

namespace dssddi::testing {

/// Parks a scoring worker deterministically. Completions run on the
/// worker that scored the request, and that worker cuts no other batch
/// until they return, so a request completed by `Completion()` holds its
/// worker until `Release()`. Everything submitted meanwhile stays queued
/// (with one worker, the whole service waits), which is how tests build
/// a queue without a timer:
///
///   serve::SuggestionService service(bundle, options);  // num_threads = 1
///   testing::WorkerGate gate;                           // after the service
///   testing::ParkWorker(service, gate);
///   ... submit the requests that must queue ...
///   gate.Release();
///
/// Declare the gate after the service or batcher it parks: its destructor
/// releases the worker, which must happen before their destructors join
/// it.
class WorkerGate {
 public:
  WorkerGate() = default;
  ~WorkerGate() { Release(); }

  WorkerGate(const WorkerGate&) = delete;
  WorkerGate& operator=(const WorkerGate&) = delete;

  /// The blocking completion; hand it to exactly one request.
  serve::Completion Completion() {
    return [parked = parked_, released = release_future_](
               core::Suggestion, std::shared_ptr<const serve::ModelSnapshot>,
               std::exception_ptr) {
      parked->set_value();
      released.wait();
    };
  }

  /// Returns once the worker is inside the completion.
  void WaitParked() { parked_future_.wait(); }

  /// Lets the worker go on; idempotent.
  void Release() {
    std::call_once(released_once_, [this] { release_.set_value(); });
  }

 private:
  std::shared_ptr<std::promise<void>> parked_ =
      std::make_shared<std::promise<void>>();
  std::future<void> parked_future_ = parked_->get_future();
  std::promise<void> release_;
  std::shared_future<void> release_future_ = release_.get_future().share();
  std::once_flag released_once_;
};

/// Parks `service`'s scoring worker on `gate` and returns once it is
/// parked. The parking request is cheap and bypasses the cache and
/// singleflight (no patient id, no explanation); it goes through
/// SubmitAsync, so admission never sees it, and it counts as completed
/// from the moment its completion starts.
inline void ParkWorker(serve::SuggestionService& service, WorkerGate& gate) {
  serve::Request request;
  request.features.assign(static_cast<size_t>(service.feature_width()), 0.0f);
  request.k = 1;
  request.explain = false;
  service.SubmitAsync(std::move(request), gate.Completion());
  gate.WaitParked();
}

}  // namespace dssddi::testing

#endif  // DSSDDI_TESTS_WORKER_GATE_H_
