#include "core/checkpoint.hpp"

#include "util/check.hpp"

namespace rpcg {

std::string to_string(CheckpointMedium m) { return enum_to_string(m); }

CheckpointCostModel CheckpointCostModel::resolved(const CommModel& comm) const {
  CheckpointCostModel r = *this;
  const CommParams& p = comm.params();
  const double elem = medium == CheckpointMedium::kMemory
                          ? p.per_double_s
                          : 1.0 / p.storage_doubles_per_s;
  const double lat = medium == CheckpointMedium::kMemory ? p.latency_s
                                                         : p.storage_latency_s;
  if (r.write_per_element_s < 0.0) r.write_per_element_s = elem;
  if (r.read_per_element_s < 0.0) r.read_per_element_s = elem;
  if (r.access_latency_s < 0.0) r.access_latency_s = lat;
  return r;
}

double CheckpointCostModel::write_cost(const CommModel& comm,
                                       Index elements) const {
  const CheckpointCostModel r = resolved(comm);
  return r.access_latency_s +
         static_cast<double>(elements) * r.write_per_element_s;
}

double CheckpointCostModel::read_cost(const CommModel& comm,
                                      Index elements) const {
  const CheckpointCostModel r = resolved(comm);
  return r.access_latency_s +
         static_cast<double>(elements) * r.read_per_element_s;
}

void CheckpointStore::save(int iteration,
                           std::initializer_list<const DistVector*> vectors,
                           std::initializer_list<double> scalars) {
  // Gather into the previous snapshot's buffers: solvers that snapshot
  // every iteration (twin-pcg's mirror) allocate nothing in steady state.
  vectors_.resize(vectors.size());
  auto saved = vectors_.begin();
  for (const DistVector* v : vectors) {
    saved->resize(static_cast<std::size_t>(v->n()));
    v->gather_global(*saved++);
  }
  scalars_.assign(scalars);
  iter_ = iteration;
}

void CheckpointStore::restore(std::initializer_list<DistVector*> vectors,
                              std::initializer_list<double*> scalars) const {
  RPCG_CHECK(iter_ >= 0, "no checkpoint to restore");
  RPCG_REQUIRE(vectors.size() == vectors_.size() &&
                   scalars.size() == scalars_.size(),
               "restore must name what was saved");
  auto saved = vectors_.begin();
  for (DistVector* v : vectors) v->set_global(*saved++);
  auto value = scalars_.begin();
  for (double* s : scalars) *s = *value++;
}

}  // namespace rpcg
