#include "host_speed.h"

#include <pthread.h>
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace dssddi::e2e {
namespace {

int64_t ThreadCpuNs() {
  timespec t{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return static_cast<int64_t>(t.tv_sec) * 1000000000 + t.tv_nsec;
}

/// One chunk is about 150 us of work shaped like a served request: an
/// int8 dense layer (scoring), per-edge triangle counts and BFS over a
/// small sparse graph (the explanation's truss and path searches), and
/// parsing a row of floats from text (the request body).
class ProbeKernel {
 public:
  ProbeKernel() : a_(kRows * kDepth), b_(kDepth * kCols), c_(kRows * kCols), adjacency_(kNodes) {
    std::mt19937 rng(11);
    for (int8_t& v : a_) v = static_cast<int8_t>(rng());
    for (int8_t& v : b_) v = static_cast<int8_t>(rng());
    for (int e = 0; e < 4 * kNodes; ++e) {
      const int u = static_cast<int>(rng() % kNodes);
      const int v = static_cast<int>(rng() % kNodes);
      if (u == v) continue;
      adjacency_[u].push_back(v);
      adjacency_[v].push_back(u);
    }
    for (std::vector<int>& neighbours : adjacency_) {
      std::sort(neighbours.begin(), neighbours.end());
      neighbours.erase(std::unique(neighbours.begin(), neighbours.end()), neighbours.end());
    }
    for (int u = 0; u < kNodes; ++u) {
      for (const int v : adjacency_[u]) {
        if (u < v) edges_.emplace_back(u, v);
      }
    }
    char number[32];
    std::uniform_real_distribution<float> feature(-3.0f, 3.0f);
    for (int i = 0; i < kFeatures; ++i) {
      std::snprintf(number, sizeof(number), "%.9g,", static_cast<double>(feature(rng)));
      text_ += number;
    }
  }

  uint64_t Chunk() {
    std::fill(c_.begin(), c_.end(), 0);
    for (int i = 0; i < kRows; ++i) {
      for (int k = 0; k < kDepth; ++k) {
        const int32_t a = a_[i * kDepth + k];
        const int8_t* b = &b_[k * kCols];
        int32_t* c = &c_[i * kCols];
        for (int j = 0; j < kCols; ++j) c[j] += a * b[j];
      }
    }
    uint64_t count = 0;
    for (const auto& [u, v] : edges_) {
      const std::vector<int>& x = adjacency_[u];
      const std::vector<int>& y = adjacency_[v];
      size_t i = 0;
      size_t j = 0;
      while (i < x.size() && j < y.size()) {
        if (x[i] < y[j]) {
          ++i;
        } else if (x[i] > y[j]) {
          ++j;
        } else {
          ++count;
          ++i;
          ++j;
        }
      }
    }
    for (int source = 0; source < 4; ++source) {
      std::vector<int> distance(adjacency_.size(), -1);
      std::vector<int> queue = {source * 37 % kNodes};
      distance[queue[0]] = 0;
      for (size_t head = 0; head < queue.size(); ++head) {
        for (const int v : adjacency_[queue[head]]) {
          if (distance[v] < 0) {
            distance[v] = distance[queue[head]] + 1;
            queue.push_back(v);
          }
        }
      }
      count += queue.size();
    }
    double sum = 0.0;
    const char* at = text_.c_str();
    for (int i = 0; i < kFeatures; ++i) {
      char* end = nullptr;
      sum += std::strtod(at, &end);
      at = end + 1;
    }
    return count + static_cast<uint64_t>(c_[kCols + 5]) + static_cast<uint64_t>(sum * 1e3);
  }

 private:
  static constexpr int kRows = 32, kDepth = 128, kCols = 64;
  static constexpr int kNodes = 160;
  static constexpr int kFeatures = 71;
  std::vector<int8_t> a_, b_;
  std::vector<int32_t> c_;
  std::vector<std::vector<int>> adjacency_;
  std::vector<std::pair<int, int>> edges_;
  std::string text_;
};

}  // namespace

double ProbeRate(int cpu, double seconds) {
  static ProbeKernel kernel;
  cpu_set_t saved;
  ::pthread_getaffinity_np(::pthread_self(), sizeof(saved), &saved);
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  ::pthread_setaffinity_np(::pthread_self(), sizeof(one), &one);

  volatile uint64_t sink = kernel.Chunk();  // untimed: refills the caches
  const int64_t budget_ns = static_cast<int64_t>(seconds * 1e9);
  const int64_t start = ThreadCpuNs();
  int64_t chunks = 0;
  int64_t used = 0;
  while (used < budget_ns) {
    sink = sink + kernel.Chunk();
    ++chunks;
    used = ThreadCpuNs() - start;
  }
  ::pthread_setaffinity_np(::pthread_self(), sizeof(saved), &saved);
  return static_cast<double>(chunks) / (static_cast<double>(used) / 1e9);
}

}  // namespace dssddi::e2e
