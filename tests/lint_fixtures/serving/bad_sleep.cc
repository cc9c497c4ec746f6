// Fixture: a sleep under a serving/ path fires even when tagged — a served
// lookup that polls must use a zero-wait sweep.
#include <chrono>
#include <thread>

void bad_tagged_poll() {
  // lint:allow(wall-clock) tags are not honored for sleeps in serving/
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

// lint:allow(wall-clock) fixture: a tagged deadline parameter is fine
void bad_tagged_wait(std::chrono::steady_clock::time_point deadline) {
  std::this_thread::sleep_until(deadline);  // lint:allow(wall-clock) still banned
}
