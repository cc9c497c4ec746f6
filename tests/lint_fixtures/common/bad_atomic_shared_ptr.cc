// Fixture: free atomic functions on shared_ptr slots fire; member calls on
// std::atomic objects and mentions such as std::atomic_load( in comments
// do not.
#include <atomic>
#include <memory>

namespace fixture {

std::shared_ptr<const int> slot;
std::atomic<int> counter{0};

std::shared_ptr<const int> read() {
  return std::atomic_load(&slot);
}

void write(std::shared_ptr<const int> next) {
  std::atomic_store(&slot, next);
  atomic_store(&slot, std::move(next));  // unqualified: found by ADL
}

std::shared_ptr<const int> swap_in(std::shared_ptr<const int> next) {
  // atomic: acq_rel — the _explicit forms fire too
  return std::atomic_exchange_explicit(&slot, std::move(next),
                                       std::memory_order_acq_rel);
}

int bump() {
  counter.store(counter.load() + 1);
  return counter.exchange(0);
}

}  // namespace fixture
