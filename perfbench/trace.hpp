// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded around the benchmark's own calls into each layer's
// public API (nothing inside the library is instrumented). Each span has a
// name, a start and end on the steady clock, the id of the span that caused
// it, and the request id it belongs to. Spans go into per-thread buffers
// while the run is timed and are written out once, after it ends.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 => root
  std::uint64_t request = 0;
};

class Tracer {
 public:
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// A fresh span id (also usable as a request id).
  std::uint64_t next_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Records a finished span under `id` (0 => a fresh one); returns the id
  /// (0 when tracing is off).
  std::uint64_t record(const char* name, std::int64_t start_ns,
                       std::int64_t end_ns, std::uint64_t parent = 0,
                       std::uint64_t request = 0, std::uint64_t id = 0) {
    if (!enabled()) return 0;
    if (id == 0) id = next_id();
    local().push_back({name, start_ns, end_ns, id, parent, request});
    return id;
  }

  /// Every span recorded so far, across threads. Call when no thread is
  /// recording.
  [[nodiscard]] std::vector<Span> collect() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Span> out;
    for (const auto& buffer : buffers_) {
      out.insert(out.end(), buffer.begin(), buffer.end());
    }
    return out;
  }

  /// Writes one tab-separated line per span: name, start_ns, end_ns, id,
  /// parent, request. Returns false when the file cannot be written.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "name\tstart_ns\tend_ns\tid\tparent\trequest\n");
    for (const Span& s : collect()) {
      std::fprintf(f, "%s\t%lld\t%lld\t%llu\t%llu\t%llu\n", s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span>& local() {
    // One buffer per (tracer, thread); the deque keeps buffer addresses
    // stable as threads register.
    thread_local Tracer* owner = nullptr;
    thread_local std::vector<Span>* buffer = nullptr;
    if (owner != this) {
      std::lock_guard<std::mutex> lock(mutex_);
      buffers_.emplace_back();
      buffers_.back().reserve(1 << 14);
      buffer = &buffers_.back();
      owner = this;
    }
    return *buffer;
  }

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::deque<std::vector<Span>> buffers_;
};

}  // namespace perfbench
