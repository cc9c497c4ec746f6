// Fixture: scheduling a SimClock event under a serving/ path fires even
// when tagged — a served hint carries its ready time, so the serving layer
// only reads virtual time.
#include "sim/sim_clock.h"

double ready_by_deadline(const byom::sim::SimClock& clock, double ready,
                         double deadline) {
  return ready <= clock.now() + deadline ? 1.0 : 0.0;
}

void bad_hint_event(byom::sim::SimClock& clock,
                    byom::sim::SimClock::Handler on_ready) {
  clock.schedule_typed(1.0, 2, on_ready, nullptr);
}

// lint:allow(serving-clock-events) tags are not honored for clock events
void bad_tagged_hint_event(byom::sim::SimClock& clock,
                           byom::sim::SimClock::Handler on_ready) {
  // lint:allow(serving-clock-events) still banned
  clock.schedule_typed(2.0, 2, on_ready, nullptr, 7);
}
