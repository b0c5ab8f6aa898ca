#include "core/failure_injection.hpp"

#include <utility>

#include "core/errors.hpp"

namespace rpcg {

FailureInjector::FailureInjector(const FailureSchedule& schedule,
                                 InjectionSite site)
    : schedule_(&schedule),
      site_(std::move(site)),
      fired_(schedule.events().size(), 0) {}

bool FailureInjector::due(int iteration) const {
  const auto& events = schedule_->events();
  for (std::size_t idx = 0; idx < events.size(); ++idx)
    if (!fired_[idx] && events[idx].iteration == iteration) return true;
  return false;
}

std::vector<NodeId> FailureInjector::inject_due(int iteration) {
  std::vector<NodeId> merged;
  const auto& events = schedule_->events();
  for (std::size_t idx = 0; idx < events.size(); ++idx) {
    const FailureEvent& ev = events[idx];
    if (fired_[idx] || ev.iteration != iteration) continue;
    if (!site_.recoverable)
      throw UnrecoverableFailure(
          "node failure injected into a non-resilient solver");
    fired_[idx] = 1;
    if (!merged.empty() && ev.during_recovery && site_.charge_aborted)
      site_.charge_aborted(merged);
    for (const NodeId f : ev.nodes) {
      site_.cluster.fail_node(f);
      for (DistVector* v : site_.state) v->invalidate(f);
      if (site_.invalidate_node) site_.invalidate_node(f);
    }
    if (site_.events.on_failure_injected) site_.events.on_failure_injected(ev);
    merged.insert(merged.end(), ev.nodes.begin(), ev.nodes.end());
  }
  return merged;
}

void FailureInjector::record_recovery(SolveReport& res,
                                      RecoveryRecord rec) const {
  res.recoveries.push_back(std::move(rec));
  if (site_.events.on_recovery_complete)
    site_.events.on_recovery_complete(res.recoveries.back());
}

}  // namespace rpcg
