#include "core/optimizer/optimizer.h"

#include <cstdint>

#include "util/parallel_for.h"

namespace angelptm::core {

// Each rule's factory, defined in the rule's own .cc.
std::unique_ptr<Optimizer> MakeAdafactor(const OptimizerConfig& config);
std::unique_ptr<Optimizer> MakeAdam(const OptimizerConfig& config);
std::unique_ptr<Optimizer> MakeLamb(const OptimizerConfig& config);
std::unique_ptr<Optimizer> MakeSgdm(const OptimizerConfig& config);

namespace {

/// The closed set of rules, sorted by name.
struct Rule {
  const char* name;
  std::unique_ptr<Optimizer> (*make)(const OptimizerConfig& config);
};
constexpr Rule kRules[] = {{"adafactor", MakeAdafactor},
                           {"adam", MakeAdam},
                           {"lamb", MakeLamb},
                           {"sgdm", MakeSgdm}};

/// Elements of gradient per stack chunk of the streamed rule.
constexpr size_t kGradChunk = 2048;

/// Elements per compute-pool task of the streamed rule: a multiple of the
/// AVX2 block (8) and of kGradChunk, as AdamUpdate's own grain.
constexpr size_t kStreamGrain = 8192;

}  // namespace

std::vector<std::string> RegisteredOptimizers() {
  std::vector<std::string> rules;
  for (const Rule& rule : kRules) rules.emplace_back(rule.name);
  return rules;
}

util::Result<std::unique_ptr<Optimizer>> Optimizer::Create(
    const OptimizerConfig& config) {
  if (config.learning_rate <= 0.0) {
    return util::Status::InvalidArgument(
        "optimizer learning_rate must be positive");
  }
  std::string known;
  for (const Rule& rule : kRules) {
    if (config.rule == rule.name) return rule.make(config);
    if (!known.empty()) known += ", ";
    known += rule.name;
  }
  return util::Status::NotFound("unknown optimizer rule '" + config.rule +
                                "' (registered: " + known + ")");
}

util::Status SpanIndex::Build(const Tensor& tensor) {
  const size_t elem = DTypeBytes(tensor.dtype());
  ANGEL_RETURN_IF_ERROR(tensor.ForEachSpan(
      [this, elem](std::byte* span, size_t bytes, size_t offset) {
        if (bytes % elem != 0 ||
            reinterpret_cast<uintptr_t>(span) % elem != 0) {
          return util::Status::InvalidArgument(
              "tensor span splits an element (odd page size)");
        }
        starts_.push_back(offset / elem);
        data_.push_back(span);
        return util::Status::OK();
      }));
  starts_.push_back(tensor.NumElements());
  return util::Status::OK();
}

util::Status ApplyRule(const Optimizer& rule, Tensor* p32,
                       const std::vector<Tensor*>& slots, long step,
                       const GradientFn& grads) {
  const size_t count = p32->NumElements();
  if (!rule.SplitsBitwise()) {
    // Layer-wide rules (LAMB's norms, Adafactor's factored statistics) see
    // the whole layer in one call.
    std::vector<float> g(count);
    grads(0, count, g.data());
    std::vector<float> p;
    ANGEL_RETURN_IF_ERROR(p32->ReadFloats(&p));
    std::vector<std::vector<float>> slot_values(slots.size());
    std::vector<SlotView> views(slots.size());
    for (size_t s = 0; s < slots.size(); ++s) {
      ANGEL_RETURN_IF_ERROR(slots[s]->ReadFloats(&slot_values[s]));
      views[s] = SlotView{slot_values[s].data(), slot_values[s].size()};
    }
    ANGEL_RETURN_IF_ERROR(rule.Update(p.data(), g.data(), count, views, step));
    ANGEL_RETURN_IF_ERROR(p32->WriteFloats(p));
    for (size_t s = 0; s < slots.size(); ++s) {
      ANGEL_RETURN_IF_ERROR(slots[s]->WriteFloats(slot_values[s]));
    }
    return util::Status::OK();
  }

  // The rule splits bitwise: run it in place, span by span. Each chunk
  // takes its gradient range through a stack buffer and updates p32 and
  // the slots where they lie, so the update stages no whole-layer copy.
  SpanIndex params;
  ANGEL_RETURN_IF_ERROR(params.Build(*p32));
  std::vector<SpanIndex> slot_spans(slots.size());
  for (size_t s = 0; s < slots.size(); ++s) {
    if (slots[s]->dtype() != DType::kFp32 ||
        slots[s]->NumElements() != count) {
      return util::Status::FailedPrecondition(
          "rule '" + rule.name() +
          "' splits bitwise but declares a slot that is not fp32 of the "
          "layer's size");
    }
    ANGEL_RETURN_IF_ERROR(slot_spans[s].Build(*slots[s]));
  }
  std::vector<util::Status> failed((count + kStreamGrain - 1) / kStreamGrain);
  util::ParallelForChunks(
      util::ComputePool(), 0, count, kStreamGrain,
      [&](size_t chunk, size_t lo, size_t hi) {
        float g[kGradChunk];
        std::vector<SlotView> views(slot_spans.size());
        for (size_t e = lo; e < hi;) {
          size_t n = std::min(kGradChunk, hi - e);
          float* p = params.At<float>(e, &n);
          for (size_t s = 0; s < slot_spans.size(); ++s) {
            views[s].data = slot_spans[s].At<float>(e, &n);
          }
          for (SlotView& view : views) view.count = n;
          grads(e, n, g);
          const util::Status status = rule.Update(p, g, n, views, step);
          if (!status.ok()) {
            failed[chunk] = status;
            return;
          }
          e += n;
        }
      });
  for (const util::Status& status : failed) ANGEL_RETURN_IF_ERROR(status);
  return util::Status::OK();
}

OptimizerConfig ResolveLegacyAdam(OptimizerConfig config,
                                  const AdamConfig& legacy) {
  const AdamConfig defaults;
  if (legacy.learning_rate != defaults.learning_rate) {
    config.learning_rate = legacy.learning_rate;
  }
  if (legacy.beta1 != defaults.beta1) config.beta1 = legacy.beta1;
  if (legacy.beta2 != defaults.beta2) config.beta2 = legacy.beta2;
  if (legacy.epsilon != defaults.epsilon) config.epsilon = legacy.epsilon;
  if (legacy.weight_decay != defaults.weight_decay) {
    config.weight_decay = legacy.weight_decay;
  }
  return config;
}

}  // namespace angelptm::core
