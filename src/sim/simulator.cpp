#include "sim/simulator.h"

#include "obs/instruments.h"

namespace sstsp::sim {

bool Simulator::step(SimTime horizon) {
  auto fired = queue_.pop_due(horizon);
  if (!fired) return false;
  now_ = fired.time;
  ++processed_;
  if (instruments_ != nullptr) instruments_->on_dispatch(queue_.size());
  if (sampler_ != nullptr) sampler_->on_dispatch(now_.to_sec(), queue_.size());
  obs::Span span(profiler_, obs::Phase::kDispatch);
  fired();
  return true;
}

void Simulator::run_until(SimTime horizon) {
  while (step(horizon)) {
  }
  if (now_ < horizon) now_ = horizon;
}

}  // namespace sstsp::sim
