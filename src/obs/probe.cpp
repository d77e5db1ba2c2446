#include "obs/probe.hpp"

#include <utility>

namespace stpx::obs {

MultiProbe::MultiProbe(std::vector<IProbe*> probes)
    : probes_(std::move(probes)) {
  std::erase(probes_, nullptr);
}

void MultiProbe::add(IProbe* p) {
  if (p != nullptr) probes_.push_back(p);
}

void MultiProbe::record(const TraceEvent& ev) {
  for (IProbe* p : probes_) p->record(ev);
}

}  // namespace stpx::obs
