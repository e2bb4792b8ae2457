#include "svc/committer.h"

#include <algorithm>

namespace uniloc::svc {

GroupCommitter::GroupCommitter(Options opts)
    : capacity_(std::max<std::size_t>(1, opts.queue_capacity)),
      ops_(FsOps::resolve(opts.ops)),
      thread_([this] { run(); }) {}

GroupCommitter::~GroupCommitter() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

bool GroupCommitter::enqueue(Request&& req) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ || queue_.size() >= capacity_) {
      ++stats_.rejected;
      return false;  // req deliberately untouched: caller may fall back
    }
    queue_.push_back(std::move(req));
    stats_.queue_depth = queue_.size();
  }
  cv_.notify_one();
  return true;
}

void GroupCommitter::flush() {
  std::unique_lock<std::mutex> lock(mu_);
  drained_.wait(lock, [this] { return queue_.empty() && !busy_; });
}

GroupCommitter::Stats GroupCommitter::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void GroupCommitter::run() {
  std::vector<Request> batch;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      busy_ = false;
      if (queue_.empty()) {
        drained_.notify_all();
        cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      }
      if (queue_.empty() && stopping_) return;
      // Take EVERYTHING pending: the whole point is that requests which
      // piled up while the previous batch was fsyncing share one
      // directory sync.
      batch.assign(std::make_move_iterator(queue_.begin()),
                   std::make_move_iterator(queue_.end()));
      queue_.clear();
      stats_.queue_depth = 0;
      busy_ = true;
    }
    commit_batch(batch);
    batch.clear();
  }
}

void GroupCommitter::commit_batch(std::vector<Request>& batch) {
  std::vector<bool> published(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (batch[i].fill) batch[i].bytes = batch[i].fill();
    published[i] =
        publish_no_dirsync(ops_, batch[i].dir, batch[i].name, batch[i].bytes);
  }
  // One directory fsync per distinct directory in the batch; a failed
  // sync demotes every published file in that directory to failed (its
  // rename may not survive a crash).
  std::vector<std::string> dirs;
  for (const Request& r : batch) dirs.push_back(r.dir);
  std::sort(dirs.begin(), dirs.end());
  dirs.erase(std::unique(dirs.begin(), dirs.end()), dirs.end());
  for (const std::string& dir : dirs) {
    if (ops_.fsync_dir(dir)) continue;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (batch[i].dir == dir) published[i] = false;
    }
  }

  std::uint64_t ok_count = 0, fail_count = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    published[i] ? ++ok_count : ++fail_count;
    if (batch[i].done) batch[i].done(published[i]);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.committed += ok_count;
    stats_.failed += fail_count;
    ++stats_.batches;
    stats_.max_batch = std::max<std::uint64_t>(stats_.max_batch, batch.size());
  }
}

}  // namespace uniloc::svc
