#include "net/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace dssddi::net {

EventLoop::EventLoop() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  DSSDDI_CHECK(epoll_fd_ >= 0) << "epoll_create1: " << std::strerror(errno);
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  DSSDDI_CHECK(wake_fd_ >= 0) << "eventfd: " << std::strerror(errno);
  struct epoll_event event {};
  event.events = EPOLLIN;  // level-triggered wakeup channel
  event.data.fd = wake_fd_;
  DSSDDI_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &event) == 0)
      << "epoll_ctl(wake): " << std::strerror(errno);
}

EventLoop::~EventLoop() {
  Stop();
  ::close(wake_fd_);
  ::close(epoll_fd_);
}

void EventLoop::Add(int fd, uint32_t events, IoHandler handler) {
  DSSDDI_CHECK(handler != nullptr) << "EventLoop::Add needs a handler";
  struct epoll_event event {};
  event.events = events | EPOLLET;
  event.data.fd = fd;
  DSSDDI_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event) == 0)
      << "epoll_ctl(add fd " << fd << "): " << std::strerror(errno);
  handlers_[fd] = std::make_shared<IoHandler>(std::move(handler));
}

void EventLoop::Modify(int fd, uint32_t events) {
  struct epoll_event event {};
  event.events = events | EPOLLET;
  event.data.fd = fd;
  DSSDDI_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &event) == 0)
      << "epoll_ctl(mod fd " << fd << "): " << std::strerror(errno);
}

void EventLoop::Remove(int fd) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  handlers_.erase(fd);
}

bool EventLoop::Post(std::function<void()> task) {
  bool was_empty = false;
  {
    std::lock_guard<std::mutex> lock(post_mutex_);
    if (closed_) return false;
    was_empty = posted_.empty();
    posted_.push_back(std::move(task));
  }
  // Only the post that makes the queue non-empty wakes the loop: until
  // RunPosted takes the queue, that wakeup is still due and covers every
  // later task. A full eventfd counter (EAGAIN) still means it will wake.
  if (was_empty) {
    const uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  }
  return true;
}

void EventLoop::Stop() {
  {
    std::lock_guard<std::mutex> lock(post_mutex_);
    closed_ = true;
  }
  stopping_.store(true, std::memory_order_release);
  const uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void EventLoop::DrainWakeups() {
  // One read returns and clears the whole eventfd counter.
  uint64_t counter = 0;
  [[maybe_unused]] const ssize_t n = ::read(wake_fd_, &counter, sizeof(counter));
}

void EventLoop::RunPosted() {
  std::deque<std::function<void()>> tasks;
  {
    std::lock_guard<std::mutex> lock(post_mutex_);
    tasks.swap(posted_);
  }
  for (auto& task : tasks) task();
}

void EventLoop::Run() {
  loop_thread_ = std::this_thread::get_id();
  std::vector<struct epoll_event> events(64);
  while (!stopping_.load(std::memory_order_acquire)) {
    const int ready =
        ::epoll_wait(epoll_fd_, events.data(), static_cast<int>(events.size()), -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      DSSDDI_LOG(Error) << "epoll_wait: " << std::strerror(errno);
      break;
    }
    for (int i = 0; i < ready; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        DrainWakeups();
        continue;
      }
      // Copy the handler: it may Remove(fd) (closing the connection)
      // while we are inside it.
      auto it = handlers_.find(fd);
      if (it == handlers_.end()) continue;
      const std::shared_ptr<IoHandler> handler = it->second;
      (*handler)(events[i].events);
    }
    RunPosted();
  }
  // Final drain so tasks posted just before Stop still observe a live
  // loop (connections are closed by the owner after Run returns).
  RunPosted();
}

}  // namespace dssddi::net
