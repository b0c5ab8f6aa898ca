// Failure scenarios: which nodes fail, at which iteration, and whether the
// failure overlaps the recovery of a previous one (Sec. 4.1 of the paper).
// The paper's experimental protocol places psi contiguous failures starting
// at rank 0 ("start") or rank N/2 ("center") at 20/50/80 % of the reference
// iteration count.
#pragma once

#include <vector>

#include "util/check.hpp"
#include "util/types.hpp"

namespace rpcg {

struct FailureEvent {
  /// Failures are injected right after the SpMV of this iteration (0-based),
  /// the point where backups of p^(j) and p^(j-1) are in place.
  int iteration = 0;
  std::vector<NodeId> nodes;
  /// True: this event strikes while the previous event (same iteration) is
  /// still being recovered — the reconstruction is restarted with the merged
  /// failed set (overlapping failures).
  bool during_recovery = false;
};

class FailureSchedule {
 public:
  FailureSchedule() = default;

  void add(FailureEvent e) {
    RPCG_CHECK(!e.nodes.empty(), "a failure event needs at least one node");
    events_.push_back(std::move(e));
  }

  /// psi simultaneous failures of contiguous ranks [first, first + psi).
  [[nodiscard]] static FailureSchedule contiguous(int iteration, NodeId first,
                                                  int psi) {
    FailureSchedule s;
    FailureEvent e;
    e.iteration = iteration;
    for (int k = 0; k < psi; ++k) e.nodes.push_back(first + k);
    s.add(std::move(e));
    return s;
  }

  [[nodiscard]] bool empty() const { return events_.empty(); }

  /// All events scheduled for the given iteration, in insertion order.
  [[nodiscard]] std::vector<FailureEvent> events_at(int iteration) const {
    std::vector<FailureEvent> out;
    for (const auto& e : events_)
      if (e.iteration == iteration) out.push_back(e);
    return out;
  }

  [[nodiscard]] const std::vector<FailureEvent>& events() const {
    return events_;
  }

 private:
  std::vector<FailureEvent> events_;
};

}  // namespace rpcg
