#include "core/model_registry.h"

#include <stdexcept>
#include <utility>

namespace byom::core {

void ModelRegistry::register_model(const std::string& pipeline_name,
                                   ModelBackendPtr backend) {
  if (!backend) {
    throw std::invalid_argument("register_model: null backend");
  }
  {
    common::MutexLock lock(mutex_);
    models_[pipeline_name].swap(backend);
    ++epoch_;
  }
  // The replaced backend (if any) is released here, outside the lock.
}

void ModelRegistry::register_model(const std::string& pipeline_name,
                                   std::shared_ptr<const CategoryModel> model) {
  register_model(pipeline_name, make_gbdt_backend(std::move(model)));
}

void ModelRegistry::set_default_model(ModelBackendPtr backend) {
  if (!backend) {
    throw std::invalid_argument("set_default_model: null backend");
  }
  {
    common::MutexLock lock(mutex_);
    default_model_.swap(backend);
    ++epoch_;
  }
  // The replaced backend (if any) is released here, outside the lock.
}

void ModelRegistry::set_default_model(
    std::shared_ptr<const CategoryModel> model) {
  set_default_model(make_gbdt_backend(std::move(model)));
}

// hotpath: one hash probe under the mutex; refcount traffic, no allocation.
ModelBackendPtr ModelRegistry::lookup(const trace::Job& job) const {
  common::MutexLock lock(mutex_);
  const auto it = models_.find(job.pipeline_name);
  return it != models_.end() ? it->second : default_model_;
}

std::size_t ModelRegistry::num_models() const {
  common::MutexLock lock(mutex_);
  return models_.size();
}

bool ModelRegistry::has_default() const {
  common::MutexLock lock(mutex_);
  return default_model_ != nullptr;
}

std::uint64_t ModelRegistry::epoch() const {
  common::MutexLock lock(mutex_);
  return epoch_;
}

}  // namespace byom::core
