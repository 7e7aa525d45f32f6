#pragma once
// Discrete-event queue: (time, insertion-seq) ordered callbacks.
// Ties break by insertion order so simulations are deterministic.

#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace hmr::sim {

class EventQueue {
public:
  using Fn = std::function<void()>;

  /// Schedule `fn` at absolute time `t` (must not be in the past
  /// relative to the last popped event).
  void at(double t, Fn fn) {
    HMR_DCHECK(t >= last_popped_);
    heap_.push(Ev{t, seq_++, std::move(fn)});
  }

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Pop and return the earliest event.
  std::pair<double, Fn> pop() {
    HMR_CHECK(!heap_.empty());
    // top() is const; the handle must be moved out via const_cast on
    // the mutable fn (standard priority_queue idiom).
    const Ev& top = heap_.top();
    std::pair<double, Fn> out{top.t, std::move(top.fn)};
    last_popped_ = top.t;
    heap_.pop();
    return out;
  }

private:
  struct Ev {
    double t;
    std::uint64_t seq;
    mutable Fn fn;
    bool operator>(const Ev& o) const {
      if (t != o.t) return t > o.t;
      return seq > o.seq;
    }
  };

  std::priority_queue<Ev, std::vector<Ev>, std::greater<>> heap_;
  std::uint64_t seq_ = 0;
  double last_popped_ = 0;
};

} // namespace hmr::sim
