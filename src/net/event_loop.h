#ifndef DSSDDI_NET_EVENT_LOOP_H_
#define DSSDDI_NET_EVENT_LOOP_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

namespace dssddi::net {

/// One epoll instance plus a cross-thread task queue. The owner calls
/// `Run` on a dedicated thread; fd handlers and posted tasks all execute
/// there, so per-connection state needs no locking. Registration is
/// edge-triggered (EPOLLET): handlers must drain their fd (read/write
/// until EAGAIN) on every call.
///
/// `Post` is the only cross-thread entry point besides `Stop`: it queues
/// a closure and wakes the loop via an eventfd — one write per batch of
/// posts, by the post that finds the queue empty. After `Stop`, `Post`
/// returns false and drops the closure — callers holding the loop via
/// shared_ptr (e.g. in-flight response writers) degrade to no-ops
/// instead of touching a dead loop.
class EventLoop {
 public:
  /// Handler for one registered fd; receives the ready epoll event mask.
  using IoHandler = std::function<void(uint32_t events)>;

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Registers `fd` for `events` (EPOLLET is added implicitly). Must be
  /// called before `Run` or from the loop thread.
  void Add(int fd, uint32_t events, IoHandler handler);
  /// Re-arms `fd` with a new event mask. Loop thread only.
  void Modify(int fd, uint32_t events);
  /// Deregisters `fd` (does not close it). Loop thread only.
  void Remove(int fd);

  /// Blocks dispatching events and posted tasks until Stop.
  void Run();

  /// Thread-safe: wakes the loop and makes Run return after the current
  /// dispatch round. Idempotent.
  void Stop();

  /// Thread-safe: runs `task` on the loop thread (or drops it and
  /// returns false if the loop has been stopped).
  bool Post(std::function<void()> task);

  bool InLoopThread() const {
    return std::this_thread::get_id() == loop_thread_;
  }

 private:
  void DrainWakeups();
  void RunPosted();

  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd
  std::atomic<bool> stopping_{false};
  std::thread::id loop_thread_;

  /// Touched from the loop thread only (Add pre-Run is before the thread
  /// starts, which the caller must sequence).
  std::unordered_map<int, std::shared_ptr<IoHandler>> handlers_;

  std::mutex post_mutex_;
  std::deque<std::function<void()>> posted_;
  bool closed_ = false;  // guarded by post_mutex_
};

}  // namespace dssddi::net

#endif  // DSSDDI_NET_EVENT_LOOP_H_
