#ifndef ANGELPTM_TESTS_CORE_CHECKPOINT_TEST_UTIL_H_
#define ANGELPTM_TESTS_CORE_CHECKPOINT_TEST_UTIL_H_

#include <cstddef>

#include "core/lockfree_updater.h"
#include "util/status.h"

namespace angelptm::core {

/// A layer's full fp32 master state (params, named slots, step), read
/// through a checkpoint cut of that one layer — what a checkpoint of it
/// would hold.
inline util::Status ReadLayerState(LockFreeUpdater* updater, int layer,
                                   LockFreeUpdater::LayerState* out) {
  LockFreeUpdater::MasterCut cut;
  ANGEL_RETURN_IF_ERROR(updater->CutLayer(layer, &cut));
  out->step = cut.step;
  out->slots.clear();
  for (size_t t = 0; t < cut.tensors.size(); ++t) {
    std::vector<float>* values = &out->params;
    if (t > 0) {
      out->slots.push_back({cut.tensors[t].name, {}});
      values = &out->slots.back().values;
    }
    values->resize(cut.tensors[t].count);
    auto* dst = reinterpret_cast<std::byte*>(values->data());
    for (const MasterSpan& span : cut.tensors[t].spans) {
      ANGEL_RETURN_IF_ERROR(ReadMasterSpan(cut.ssd, span, dst));
      dst += span.bytes;
    }
  }
  return util::Status::OK();
}

}  // namespace angelptm::core

#endif  // ANGELPTM_TESTS_CORE_CHECKPOINT_TEST_UTIL_H_
