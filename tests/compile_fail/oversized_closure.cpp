// Must not compile: a closure one byte larger than the event queue's inline
// callback storage.  tests/CMakeLists.txt compiles this file and passes only
// when the compiler reports the queue's static_assert message.
#include <array>

#include "sim/event_queue.h"

int main() {
  sstsp::sim::EventQueue q;
  std::array<char, sstsp::sim::InlineCallback::kCapacity + 1> big{};
  q.schedule(sstsp::sim::SimTime::zero(), [big] { (void)big; });
}
