#pragma once
// InstantExecutor: a minimal synchronous executor for engine tests,
// over any ooc::Engine (the serial PolicyEngine or the ShardedEngine).
// Transfers complete instantly; commands are chased in FIFO order and
// Run commands execute at once (optionally deferred so tests can
// interleave events by hand).  This exercises the full protocol
// without any timing model.

#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "ooc/engine.hpp"

namespace hmr::testing {

class InstantExecutor {
public:
  explicit InstantExecutor(ooc::Engine& eng, bool auto_run = true)
      : eng_(&eng), auto_run_(auto_run) {}

  /// Feed a task arrival and chase all resulting commands.
  void arrive(const ooc::TaskDesc& t) { drive(eng_->on_task_arrived(t)); }

  /// Process a command list to exhaustion.
  void drive(std::vector<ooc::Command> cmds) {
    for (auto& c : cmds) pending_.push_back(c);
    while (!pending_.empty()) {
      const ooc::Command c = pending_.front();
      pending_.pop_front();
      switch (c.kind) {
        case ooc::Command::Kind::Fetch:
          fetches.push_back(c);
          append(eng_->on_fetch_complete(c.block));
          break;
        case ooc::Command::Kind::Evict:
          evicts.push_back(c);
          append(eng_->on_evict_complete(c.block));
          break;
        case ooc::Command::Kind::Run:
          run_order.push_back(c.task);
          if (auto_run_) {
            append(eng_->on_task_complete(c.task, c.pe));
          } else {
            runnable.push_back(c);
          }
          break;
      }
    }
  }

  /// Manually complete a deferred runnable task (auto_run = false).
  void complete(ooc::TaskId t) {
    for (auto it = runnable.begin(); it != runnable.end(); ++it) {
      if (it->task == t) {
        const std::int32_t pe = it->pe;
        runnable.erase(it);
        drive(eng_->on_task_complete(t, pe));
        return;
      }
    }
    FAIL() << "task " << t << " is not runnable";
  }

  std::vector<ooc::TaskId> run_order;
  std::vector<ooc::Command> fetches;
  std::vector<ooc::Command> evicts;
  std::vector<ooc::Command> runnable; // deferred Run commands

private:
  void append(std::vector<ooc::Command> cmds) {
    for (auto& c : cmds) pending_.push_back(c);
  }

  ooc::Engine* eng_;
  bool auto_run_;
  std::deque<ooc::Command> pending_;
};

} // namespace hmr::testing
