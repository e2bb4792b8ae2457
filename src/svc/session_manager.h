// Multi-tenant session store: mutex-striped map + per-session strand.
//
// Each session owns one core::Uniloc (its trained ensemble, filters, and
// duty-cycle state) and a bounded inbox of pending epoch tasks. It holds
// state only: the per-epoch working memory lives in the epoch arena of
// whichever worker thread runs the epoch (svc/server.cc). The inbox
// is a *strand*: a session's tasks run strictly in arrival order and
// never concurrently with each other, while distinct sessions run in
// parallel on whatever workers pick up their drains. The enqueue/drain
// split is deliberately pool-agnostic so tests can drive it by hand:
//
//   switch (session->enqueue(task, capacity)) {
//     case kStartDrain:  pool.post([s]{ s->drain(); });  // first task
//     case kQueued:      break;          // a drain is already running
//     case kBackpressure: reject;        // inbox full -- explicit signal
//   }
//
// The SessionManager shards sessions over `stripes` independently-locked
// maps so create/lookup/evict on different stripes never contend. Idle
// sessions (no activity for idle_ttl) are evicted by evict_idle(); a
// session with queued or running work is never evicted.
#pragma once

#include <cstdint>

#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "core/uniloc.h"

namespace uniloc::svc {

class Session {
 public:
  using Task = std::function<void()>;

  enum class Enqueue : std::uint8_t {
    kStartDrain,    ///< Accepted; caller must schedule drain().
    kQueued,        ///< Accepted; an active drain will pick it up.
    kBackpressure,  ///< Inbox full; task was NOT accepted.
  };

  Session(std::uint64_t id, std::unique_ptr<core::Uniloc> uniloc)
      : id_(id), uniloc_(std::move(uniloc)) {}

  std::uint64_t id() const { return id_; }
  core::Uniloc& uniloc() { return *uniloc_; }

  /// Accept `task` unless `capacity` tasks are already pending.
  /// Also stamps last-active to `now_us`.
  Enqueue enqueue(Task task, std::size_t capacity, std::uint64_t now_us);

  /// Run every pending task in order, then go idle. Called by exactly one
  /// worker at a time (guaranteed by the kStartDrain handshake).
  void drain();

  /// Claim the strand for a non-task critical section (the checkpoint
  /// serializer). Blocks until the running drain (if any) goes idle, then
  /// holds the strand so no worker can start another one: `fn` gets the
  /// same single-writer view of the Uniloc state an epoch task has, even
  /// with live traffic on other threads. Frames that arrive meanwhile
  /// queue behind the critical section and are drained -- in arrival
  /// order, on this thread -- before run_exclusive returns.
  void run_exclusive(const Task& fn);

  /// True when no task is queued or running (eviction safety check).
  bool idle() const;

  /// Refresh the last-active stamp without enqueuing work.
  void touch(std::uint64_t now_us);

  /// Reinstate checkpointed bookkeeping after a restore; the normal paths
  /// (enqueue stamps last-active, drain counts epochs) must not run for
  /// snapshot traffic or the restored run would diverge from the original.
  void restore_bookkeeping(std::uint64_t last_active_us,
                           std::size_t epochs_served);

  std::uint64_t last_active_us() const;
  std::size_t epochs_served() const;
  /// Pending strand work: queued tasks plus the running one, if any.
  std::size_t queue_depth() const;

  /// Dirty tracking for delta checkpoints. drain() bumps a change mark
  /// as it takes each task, before running it, so a task whose reply is
  /// out already counts; the checkpoint wave reads dirty() and calls
  /// mark_clean() *inside its run_exclusive section*, so the clean mark
  /// records exactly the state the wave serialized -- any task that runs
  /// afterwards re-dirties the session for the next wave. Fresh sessions
  /// start dirty (mark 1 vs clean mark 0): a session that never served
  /// an epoch still must reach the first keyframe.
  bool dirty() const;
  void mark_clean();

 private:
  const std::uint64_t id_;
  std::unique_ptr<core::Uniloc> uniloc_;

  mutable std::mutex mu_;
  /// Pending-task ring: index math over a never-shrinking vector rather
  /// than std::deque, whose block cursor allocates a fresh node every
  /// ~16 tasks even in steady push/pop cycles. The ring grows
  /// geometrically on demand and then recycles its slots forever, so a
  /// steady epoch stream costs the inbox no allocation
  /// (tests/test_perf_contracts.cc).
  std::vector<Task> inbox_;
  std::size_t inbox_head_{0};
  std::size_t inbox_count_{0};
  bool draining_{false};
  std::uint64_t last_active_us_{0};
  std::size_t epochs_served_{0};
  /// Monotonic state-change counter vs. the mark the last checkpoint
  /// wave consumed. Starts at 1 vs 0: new sessions are dirty.
  std::uint64_t dirty_mark_{1};
  std::uint64_t clean_mark_{0};
};

using SessionPtr = std::shared_ptr<Session>;

class SessionManager {
 public:
  explicit SessionManager(std::size_t stripes = 8);

  /// Insert a fresh session. Returns nullptr when `id` is already live.
  SessionPtr create(std::uint64_t id, std::unique_ptr<core::Uniloc> uniloc,
                    std::uint64_t now_us);

  /// nullptr when unknown.
  SessionPtr find(std::uint64_t id) const;

  bool erase(std::uint64_t id);

  /// Evict every idle session older than `idle_ttl_us`. Returns the
  /// number evicted. Busy sessions (queued/running work) are skipped.
  std::size_t evict_idle(std::uint64_t now_us, std::uint64_t idle_ttl_us);

  std::size_t size() const;
  std::size_t stripes() const { return stripes_.size(); }

  /// All live sessions, sorted by id (deterministic checkpoint order).
  std::vector<SessionPtr> all() const;

  /// Drop every session (crash simulation / failed-restore cleanup).
  void clear();

  /// Stripe index of a session id (exposed for the distribution test).
  std::size_t stripe_of(std::uint64_t id) const;

 private:
  /// Small per-stripe population in two index-aligned vectors:
  /// ids[i] == sessions[i]->id(). find/create/erase scan the contiguous
  /// ids instead of dereferencing each separately allocated Session.
  struct Stripe {
    mutable std::mutex mu;
    std::vector<std::uint64_t> ids;
    std::vector<SessionPtr> sessions;
  };

  std::vector<std::unique_ptr<Stripe>> stripes_;
};

}  // namespace uniloc::svc
