// ModelRegistry — the per-workload model store of the BYOM design (paper
// section 2.3, Figure 3): one backend per workload (pipeline name) plus an
// optional cluster default, hot-swappable while PlacementService workers
// look backends up.
//
// One common::Mutex guards the map, the default and the epoch. lookup()
// copies the backend's shared_ptr out under the lock, so a reader keeps it
// alive through its inference even if a writer swaps the registration
// mid-flight. Writers overwrite one entry in place and drop the replaced
// backend after unlocking, so no backend destructor runs under the lock.
// Retrain events thereby reinstall the deployed backends
// (core/staleness.h hook, harness/experiment.h wiring).
//
// Granularity mirrors the paper: one default per cluster ("the paper
// trains one joint model per cluster"), optionally overridden per pipeline
// ("finer granularities are not precluded").
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/model_backend.h"
#include "trace/job.h"

namespace byom::core {

class ModelRegistry {
 public:
  // Installs (or hot-swaps) the backend serving one workload (pipeline).
  void register_model(const std::string& pipeline_name,
                      ModelBackendPtr backend);
  // Convenience: wraps a trained CategoryModel in the GBDT backend.
  void register_model(const std::string& pipeline_name,
                      std::shared_ptr<const CategoryModel> model);

  // Installs (or hot-swaps) the cluster-wide fallback backend.
  void set_default_model(ModelBackendPtr backend);
  void set_default_model(std::shared_ptr<const CategoryModel> model);

  // The backend responsible for this job: exact pipeline match, else the
  // default, else nullptr. The returned handle stays valid across
  // concurrent re-registrations (see header comment).
  ModelBackendPtr lookup(const trace::Job& job) const;

  std::size_t num_models() const;
  bool has_default() const;
  // Installations so far: advances on every register/set_default call.
  std::uint64_t epoch() const;

 private:
  mutable common::Mutex mutex_;
  std::unordered_map<std::string, ModelBackendPtr> models_
      BYOM_GUARDED_BY(mutex_);
  ModelBackendPtr default_model_ BYOM_GUARDED_BY(mutex_);
  std::uint64_t epoch_ BYOM_GUARDED_BY(mutex_) = 0;
};

// The former name of the registry, kept as an alias for code that spells it.
using ShardedModelRegistry = ModelRegistry;

}  // namespace byom::core
