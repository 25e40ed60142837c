#include "util/worker_group.h"

namespace apna::util {

WorkerGroup::WorkerGroup(std::size_t threads) : size_(threads) {
  if (size_ == 0) size_ = std::max(1u, std::thread::hardware_concurrency());
  workers_.reserve(size_ - 1);
  for (std::size_t slot = 1; slot < size_; ++slot)
    workers_.emplace_back([this, slot] { worker_main(slot); });
}

WorkerGroup::~WorkerGroup() {
  if (workers_.empty()) return;
  stop_ = true;
  generation_.fetch_add(1, std::memory_order_release);
  generation_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void WorkerGroup::dispatch(Thunk fn, void* ctx) noexcept {
  fn_ = fn;
  ctx_ = ctx;
  pending_.store(static_cast<std::uint32_t>(size_ - 1),
                 std::memory_order_relaxed);
  generation_.fetch_add(1, std::memory_order_release);
  generation_.notify_all();
  fn(ctx, 0);
  for (std::uint32_t left = pending_.load(std::memory_order_acquire);
       left != 0; left = pending_.load(std::memory_order_acquire))
    pending_.wait(left, std::memory_order_acquire);
}

void WorkerGroup::worker_main(std::size_t slot) noexcept {
  // Generations are published one at a time: the caller bumps again only
  // after every worker has decremented pending_ for the current one.
  std::uint32_t seen = 0;
  for (;;) {
    generation_.wait(seen, std::memory_order_acquire);
    const std::uint32_t gen = generation_.load(std::memory_order_acquire);
    if (gen == seen) continue;
    seen = gen;
    if (stop_) return;
    fn_(ctx_, slot);
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1)
      pending_.notify_one();
  }
}

}  // namespace apna::util
