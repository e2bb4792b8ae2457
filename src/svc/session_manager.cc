#include "svc/session_manager.h"

#include <algorithm>
#include <thread>

namespace uniloc::svc {

namespace {

/// Index of `id` in a stripe's ids, or ids.size() when absent.
std::size_t index_of(const std::vector<std::uint64_t>& ids,
                     std::uint64_t id) {
  return static_cast<std::size_t>(std::find(ids.begin(), ids.end(), id) -
                                  ids.begin());
}

}  // namespace

Session::Enqueue Session::enqueue(Task task, std::size_t capacity,
                                  std::uint64_t now_us) {
  std::lock_guard<std::mutex> lock(mu_);
  if (inbox_count_ >= capacity) return Enqueue::kBackpressure;
  if (inbox_count_ == inbox_.size()) {
    // Ring full: rotate the live span to the front of a larger vector.
    // Amortized -- the ring never shrinks, so a warmed-up session stops
    // allocating entirely.
    std::vector<Task> grown;
    grown.reserve(std::max<std::size_t>(8, inbox_.size() * 2));
    for (std::size_t i = 0; i < inbox_count_; ++i) {
      grown.push_back(std::move(inbox_[(inbox_head_ + i) % inbox_.size()]));
    }
    grown.resize(grown.capacity());
    inbox_ = std::move(grown);
    inbox_head_ = 0;
  }
  inbox_[(inbox_head_ + inbox_count_) % inbox_.size()] = std::move(task);
  ++inbox_count_;
  last_active_us_ = now_us;
  if (draining_) return Enqueue::kQueued;
  draining_ = true;
  return Enqueue::kStartDrain;
}

void Session::drain() {
  for (;;) {
    Task task;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (inbox_count_ == 0) {
        draining_ = false;
        return;
      }
      task = std::move(inbox_[inbox_head_]);
      inbox_head_ = (inbox_head_ + 1) % inbox_.size();
      --inbox_count_;
      // Every strand task may advance the Uniloc state; the delta
      // checkpoint wave keys off this mark (see dirty()). It is bumped
      // before the task runs: the task's reply goes out before this
      // loop comes back, and a wave that checks dirty() after the reply
      // must not skip the session -- it waits for the task in
      // run_exclusive instead.
      ++dirty_mark_;
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++epochs_served_;
    }
  }
}

void Session::run_exclusive(const Task& fn) {
  // Claim the strand exactly as the kStartDrain handshake would: once
  // draining_ flips to true here, enqueue() returns kQueued and no
  // worker schedules a drain until we hand the strand back below.
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!draining_) {
        draining_ = true;
        break;
      }
    }
    std::this_thread::yield();
  }
  fn();
  // Hand the strand back through the normal drain loop: tasks that
  // queued behind the critical section run now, in arrival order, as if
  // a worker had picked up the drain.
  drain();
}

bool Session::idle() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inbox_count_ == 0 && !draining_;
}

void Session::touch(std::uint64_t now_us) {
  std::lock_guard<std::mutex> lock(mu_);
  last_active_us_ = now_us;
}

void Session::restore_bookkeeping(std::uint64_t last_active_us,
                                  std::size_t epochs_served) {
  std::lock_guard<std::mutex> lock(mu_);
  last_active_us_ = last_active_us;
  epochs_served_ = epochs_served;
}

std::uint64_t Session::last_active_us() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_active_us_;
}

std::size_t Session::epochs_served() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epochs_served_;
}

std::size_t Session::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inbox_count_ + (draining_ ? 1 : 0);
}

bool Session::dirty() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dirty_mark_ != clean_mark_;
}

void Session::mark_clean() {
  std::lock_guard<std::mutex> lock(mu_);
  clean_mark_ = dirty_mark_;
}

SessionManager::SessionManager(std::size_t stripes) {
  stripes_.reserve(std::max<std::size_t>(stripes, 1));
  for (std::size_t i = 0; i < std::max<std::size_t>(stripes, 1); ++i) {
    stripes_.push_back(std::make_unique<Stripe>());
  }
}

std::size_t SessionManager::stripe_of(std::uint64_t id) const {
  // Fibonacci hashing spreads sequential ids (the common allocation
  // pattern) uniformly over stripes.
  const std::uint64_t h = id * 0x9E3779B97F4A7C15ull;
  return static_cast<std::size_t>(h >> 32) % stripes_.size();
}

SessionPtr SessionManager::create(std::uint64_t id,
                                  std::unique_ptr<core::Uniloc> uniloc,
                                  std::uint64_t now_us) {
  Stripe& stripe = *stripes_[stripe_of(id)];
  std::lock_guard<std::mutex> lock(stripe.mu);
  if (index_of(stripe.ids, id) != stripe.ids.size()) return nullptr;
  SessionPtr session = std::make_shared<Session>(id, std::move(uniloc));
  session->touch(now_us);  // fresh sessions are "active now" for the TTL
  stripe.ids.push_back(id);
  stripe.sessions.push_back(session);
  return session;
}

SessionPtr SessionManager::find(std::uint64_t id) const {
  const Stripe& stripe = *stripes_[stripe_of(id)];
  std::lock_guard<std::mutex> lock(stripe.mu);
  const std::size_t i = index_of(stripe.ids, id);
  return i == stripe.ids.size() ? nullptr : stripe.sessions[i];
}

bool SessionManager::erase(std::uint64_t id) {
  Stripe& stripe = *stripes_[stripe_of(id)];
  std::lock_guard<std::mutex> lock(stripe.mu);
  const std::size_t i = index_of(stripe.ids, id);
  if (i == stripe.ids.size()) return false;
  stripe.ids.erase(stripe.ids.begin() + static_cast<std::ptrdiff_t>(i));
  stripe.sessions.erase(stripe.sessions.begin() +
                        static_cast<std::ptrdiff_t>(i));
  return true;
}

std::size_t SessionManager::evict_idle(std::uint64_t now_us,
                                       std::uint64_t idle_ttl_us) {
  std::size_t evicted = 0;
  for (std::unique_ptr<Stripe>& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe->mu);
    evicted += std::erase_if(stripe->sessions, [&](const SessionPtr& s) {
      return s->idle() && now_us >= s->last_active_us() &&
             now_us - s->last_active_us() >= idle_ttl_us;
    });
    // The sweep has just read every session: rebuild the ids from them.
    stripe->ids.clear();
    for (const SessionPtr& s : stripe->sessions) stripe->ids.push_back(s->id());
  }
  return evicted;
}

std::size_t SessionManager::size() const {
  std::size_t n = 0;
  for (const std::unique_ptr<Stripe>& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe->mu);
    n += stripe->sessions.size();
  }
  return n;
}

std::vector<SessionPtr> SessionManager::all() const {
  std::vector<SessionPtr> out;
  for (const std::unique_ptr<Stripe>& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe->mu);
    out.insert(out.end(), stripe->sessions.begin(), stripe->sessions.end());
  }
  std::sort(out.begin(), out.end(), [](const SessionPtr& a, const SessionPtr& b) {
    return a->id() < b->id();
  });
  return out;
}

void SessionManager::clear() {
  for (std::unique_ptr<Stripe>& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe->mu);
    stripe->ids.clear();
    stripe->sessions.clear();
  }
}

}  // namespace uniloc::svc
