#include <algorithm>
#include <cmath>
#include <sstream>

#include "bench.h"
#include "train/kernels.h"
#include "util/logging.h"

namespace angelptm::perfbench {

void Checks::Expect(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
}

bool Checks::ExpectOk(const util::Status& status, const std::string& what) {
  if (!status.ok()) failures_.push_back(what + ": " + status.ToString());
  return status.ok();
}

Metrics::Metrics(const std::vector<Spec>& specs) {
  for (const Spec& spec : specs) entries_.push_back({spec, 0.0});
}

Metrics::Entry& Metrics::Find(const std::string& name) {
  for (Entry& entry : entries_) {
    if (name == entry.spec.name) return entry;
  }
  ANGEL_FATAL() << "metric not declared: " << name;
  std::abort();  // Unreachable: ANGEL_FATAL aborts.
}

void Metrics::Set(const std::string& name, double value) {
  Find(name).value = value;
}

std::string Metrics::ToJson() const {
  std::ostringstream out;
  out.precision(17);
  out << "{";
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& entry = entries_[i];
    // JSON has no NaN/inf; a non-finite value is reported as 0 and caught
    // by the checks that produced it.
    const double value = std::isfinite(entry.value) ? entry.value : 0.0;
    out << (i ? ", " : "") << "\"" << entry.spec.name << "\": {\"value\": "
        << value << ", \"unit\": \"" << entry.spec.unit << "\"}";
  }
  out << "}";
  return out.str();
}

const std::vector<Metrics::Spec>& EndToEndSpecs() {
  static const std::vector<Metrics::Spec> specs = {
      {"samples_per_s", "samples/s"},
      {"valid_loss", "mse"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
  };
  return specs;
}

const std::vector<Metrics::Spec>& PerLayerSpecs() {
  // Times are per traced step unless the name says otherwise. A layer a
  // workload does not run reports 0 (README.md lists which apply where).
  static const std::vector<Metrics::Spec> specs = {
      {"train.fwd_ms", "ms"},
      {"train.bwd_ms", "ms"},
      {"train.recompute_ms", "ms"},
      {"train.bare_step_ms", "ms"},
      {"train.model_gflops", "GFLOP/s"},
      {"engine.use_params_ms", "ms"},
      {"engine.act_stash_ms", "ms"},
      {"engine.push_grads_ms", "ms"},
      {"engine.step_edges_ms", "ms"},
      {"engine.prefetch_hit_rate", "ratio"},
      {"engine.scheduled_uses", "count"},
      {"engine.overhead_ratio", "ratio"},
      {"updater.fetch_ms", "ms"},
      {"updater.offload_ms", "ms"},
      {"updater.update_once_ms", "ms"},
      {"updater.updates_per_step", "count"},
      {"updater.staleness_mean", "batches"},
      {"updater.backpressure_waits", "count"},
      {"mem.h2d_mb_per_step", "MB"},
      {"mem.evict_mb_per_step", "MB"},
      {"copy.moves_per_step", "count"},
      {"copy.moves_failed", "count"},
      {"mem.gpu_peak_mb", "MB"},
      {"mem.cpu_peak_mb", "MB"},
      {"ssd.read_mb_per_step", "MB"},
      {"ssd.write_mb_per_step", "MB"},
      {"ssd.coalesce_factor", "ratio"},
      {"ssd.io_batches", "count"},
      {"ssd.io_retries", "count"},
      {"ckpt.save_ms", "ms"},
      {"ckpt.mb_per_save", "MB"},
      {"dist.collectives_per_step", "count"},
      {"dist.allgather_ms", "ms"},
      {"dist.reduce_scatter_ms", "ms"},
      {"dist.allreduce_ms", "ms"},
      {"dist.stage_ms", "ms"},
      {"dist.mb_per_step", "MB"},
      {"dist.rank_compute_ms", "ms"},
      {"dist.shard_update_ms", "ms"},
      {"dist.shard_io_ms", "ms"},
      {"obs.trace_overhead", "ratio"},
      {"trace.step_ms", "ms"},
      {"trace.coverage", "ratio"},
  };
  return specs;
}

double PhaseClock::LayerMs() const {
  double total = 0.0;
  for (int p = 0; p < int(Phase::kCount); ++p) {
    if (Phase(p) != Phase::kStep) total += ms_[p];
  }
  return total;
}

namespace {

// Span names: string literals, as ANGEL_SPAN requires.
const char* PhaseName(Phase phase) {
  static const char* const kNames[int(Phase::kCount)] = {
      "step",      "forward",     "recompute",      "backward",
      "use_params", "act_stash",  "push_grads",     "step_edges",
      "checkpoint", "fetch",      "offload",        "update_once",
      "allgather", "reduce_scatter", "allreduce",   "stage",
      "shard_update", "shard_io",
  };
  return kNames[int(phase)];
}

}  // namespace

Timed::Timed(PhaseClock* clock, Phase phase)
    : clock_(clock),
      phase_(phase),
      span_("bench", PhaseName(phase)),
      start_(std::chrono::steady_clock::now()) {}

Timed::~Timed() {
  clock_->Add(phase_, 1e3 * SecondsSince(start_));
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

uint64_t PageRound(uint64_t bytes, uint64_t page_bytes) {
  return (bytes + page_bytes - 1) / page_bytes * page_bytes;
}

uint64_t PeakBytes(const mem::PageArena& arena) {
  return uint64_t{arena.peak_used_frames()} * arena.frame_bytes();
}

double TransformerStepFlops(const train::TransformerConfig& c, size_t batch) {
  const double b = double(batch), s = double(c.seq_len), d = double(c.d_model),
               f = double(c.d_ffn);
  const double tokens = b * s;
  // Q, K, V, O projections and the two FFN matmuls.
  const double block_gemms = 2.0 * tokens * (4.0 * d * d + 2.0 * d * f);
  // QK^T and PV over the causal pairs: 2 * dh * s(s+1)/2 each, all heads.
  const double attention = 2.0 * b * d * s * (s + 1.0);
  const double head = 2.0 * b * d * double(c.out_dim);
  const double forward = c.num_blocks * (block_gemms + attention) + head;
  return 3.0 * forward;
}

double MlpStepFlops(const std::vector<size_t>& dims, size_t batch) {
  double forward = 0.0;
  for (size_t l = 0; l + 1 < dims.size(); ++l) {
    forward += 2.0 * double(batch) * double(dims[l]) * double(dims[l + 1]);
  }
  return 3.0 * forward;
}

double BareStepMs(const train::LayeredModel& model, size_t batch,
                  uint64_t seed, int steps) {
  util::Rng rng(seed);
  const int num_layers = model.num_layers();
  std::vector<std::vector<float>> params(num_layers);
  for (int l = 0; l < num_layers; ++l) {
    params[l] = model.InitLayerParams(l, &rng);
  }
  std::vector<float> x(batch * model.InputSize());
  std::vector<float> y(batch * model.OutputSize());
  rng.FillGaussian(&x, 1.0);
  rng.FillGaussian(&y, 1.0);

  std::vector<double> times;
  for (int i = 0; i <= steps; ++i) {  // Step 0 warms up.
    const auto start = std::chrono::steady_clock::now();
    std::vector<train::LayerStash> stash(num_layers);
    std::vector<float> acts = x;
    for (int l = 0; l < num_layers; ++l) {
      std::vector<float> next;
      model.Forward(l, params[l].data(), acts, batch, &next, &stash[l]);
      acts = std::move(next);
    }
    std::vector<float> grad(acts.size());
    (void)train::MseLoss(acts.data(), y.data(), grad.data(), acts.size());
    for (int l = num_layers - 1; l >= 0; --l) {
      std::vector<float> grad_in, grad_params;
      model.Backward(l, params[l].data(), stash[l], grad, batch, &grad_in,
                     &grad_params);
      grad = std::move(grad_in);
    }
    if (i > 0) times.push_back(1e3 * SecondsSince(start));
  }
  return Median(times);
}

util::Rng DataCursor(const train::LayeredModel& model, uint64_t seed) {
  util::Rng rng(seed);
  for (int l = 0; l < model.num_layers(); ++l) {
    (void)model.InitLayerParams(l, &rng);
  }
  return rng;
}

void CheckNoDroppedSpans(Checks* checks) {
  const obs::TraceCounts counts = obs::CurrentTraceCounts();
  checks->Expect(counts.dropped == 0,
                 "trace ring dropped " + std::to_string(counts.dropped) +
                     " spans");
}

void CheckLosses(const Rep& rep, Checks* checks) {
  bool finite = std::isfinite(rep.first_loss) && std::isfinite(rep.valid_loss);
  for (double loss : rep.losses) finite = finite && std::isfinite(loss);
  checks->Expect(finite, "non-finite loss");
  checks->Expect(rep.valid_loss < rep.first_loss,
                 "valid_loss " + std::to_string(rep.valid_loss) +
                     " is not below the first step's loss " +
                     std::to_string(rep.first_loss));
}

}  // namespace angelptm::perfbench
