// Async group-commit thread for checkpoint publishes.
//
// Durability -- write, fsync, rename, directory fsync -- has no
// business blocking the serving path, and neither does producing the
// bytes. The GroupCommitter owns one background thread and a bounded
// queue of publish requests. A request carries either its bytes or a
// `fill` that produces them on the committer thread (the server
// serializes a wave there when it has pool workers). The thread drains
// whatever has accumulated as ONE batch: each request is filled (in
// queue order), written and renamed individually, then a single
// fsync_dir per distinct directory makes the whole batch durable at
// once. Under a burst of waves the directory fsync (the dominant
// latency on real disks) is paid once per batch instead of once per
// file -- classic group commit.
//
// Backpressure is explicit: enqueue() returns false when the queue is
// full (and counts it) instead of blocking or buffering unboundedly;
// the caller decides whether to drop the wave (the next one supersedes
// it) or fall back to a synchronous publish. flush() barriers: it
// returns once everything enqueued before it is filled and durable.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "svc/fsio.h"

namespace uniloc::svc {

class GroupCommitter {
 public:
  struct Options {
    /// Max requests pending before enqueue() reports backpressure.
    std::size_t queue_capacity{64};
    /// Injectable filesystem primitives (tests); null hooks = real.
    FsOps ops{};
  };

  struct Request {
    std::string dir;
    std::string name;
    std::vector<std::uint8_t> bytes;
    /// Optional; when set, invoked on the committer thread just before
    /// this request is written, in queue order, and its result replaces
    /// `bytes`. A request refused by enqueue() keeps it, so the caller
    /// can fill on its own thread instead.
    std::function<std::vector<std::uint8_t>()> fill;
    /// Optional; invoked on the committer thread after this request's
    /// batch is durable (or with false on failure).
    std::function<void(bool ok)> done;
  };

  struct Stats {
    std::uint64_t committed{0};      ///< Requests durably published.
    std::uint64_t failed{0};         ///< Requests that hit an I/O error.
    std::uint64_t batches{0};        ///< Drain rounds executed.
    std::uint64_t rejected{0};       ///< enqueue() backpressure refusals.
    std::uint64_t max_batch{0};      ///< Largest single drain.
    std::size_t queue_depth{0};      ///< Requests pending right now.
  };

  GroupCommitter() : GroupCommitter(Options()) {}
  explicit GroupCommitter(Options opts);
  /// Drains the queue, then joins the thread: everything accepted by
  /// enqueue() is durable (or reported failed) before destruction ends.
  ~GroupCommitter();

  GroupCommitter(const GroupCommitter&) = delete;
  GroupCommitter& operator=(const GroupCommitter&) = delete;

  /// False = queue full; the request was NOT accepted (backpressure)
  /// and is left intact in `req`, so the caller can publish it through
  /// a synchronous fallback without re-serializing.
  bool enqueue(Request&& req);

  /// Block until every request enqueued before this call has been
  /// filled and committed or failed.
  void flush();

  Stats stats() const;

 private:
  void run();
  /// Publish one batch: per-file fill+write+rename, then one fsync_dir per
  /// distinct directory. Files whose write or rename failed do not
  /// block the rest of the batch.
  void commit_batch(std::vector<Request>& batch);

  const std::size_t capacity_;
  const FsOps ops_;

  mutable std::mutex mu_;
  std::condition_variable cv_;        // wakes the committer thread
  std::condition_variable drained_;   // wakes flush() waiters
  std::deque<Request> queue_;
  bool stopping_{false};
  bool busy_{false};  // the thread is mid-batch (queue may look empty)
  Stats stats_{};
  std::thread thread_;
};

}  // namespace uniloc::svc
