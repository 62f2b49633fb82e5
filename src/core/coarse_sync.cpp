#include "core/coarse_sync.h"

#include "filter/gesd.h"
#include "filter/threshold_filter.h"

namespace sstsp::core {

std::optional<double> CoarseSync::estimate(const SstspConfig& cfg,
                                           std::size_t* rejected_out) const {
  if (offsets_.empty()) return std::nullopt;
  std::size_t rejected = 0;

  std::vector<double> candidates = offsets_;
  if (cfg.coarse_use_gesd && candidates.size() >= 5) {
    const std::size_t before = candidates.size();
    candidates = filter::gesd_filter(candidates, cfg.gesd_max_outliers,
                                     cfg.gesd_alpha);
    rejected += before - candidates.size();
  }

  const filter::ThresholdResult thr =
      filter::threshold_filter(candidates, cfg.guard_coarse_us);
  rejected += thr.rejected;
  if (rejected_out != nullptr) *rejected_out = rejected;
  return thr.mean();
}

}  // namespace sstsp::core
