// Shared pieces of the end-to-end training benchmark: run configuration,
// metric and check collection, the per-layer span clock, and the three
// workloads' entry points (paged.cc, direct.cc, zero3.cc).
#ifndef ANGELPTM_PERFBENCH_BENCH_H_
#define ANGELPTM_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "mem/page_arena.h"
#include "obs/trace.h"
#include "train/layered_model.h"
#include "train/transformer.h"
#include "util/random.h"
#include "util/status.h"

namespace angelptm::perfbench {

/// What one invocation was asked to do (see main.cc for the flags).
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  /// Measurement budget: product reps repeat until it is spent. Required.
  double seconds = 0;
  bool trace = false;
  /// A few steps per workload with every check (the benchmark's own test).
  bool smoke = false;
  /// Per-run directory for the SSD backing file, checkpoints, the
  /// rendezvous socket and the trace file. Relative to the working
  /// directory, which keeps socket paths short.
  std::string scratch;
};

/// Output checks of one run. Any failure fails the run's steps.
class Checks {
 public:
  void Expect(bool ok, const std::string& what);
  /// Records a failed Status (no-op on OK); returns status.ok().
  bool ExpectOk(const util::Status& status, const std::string& what);
  bool ok() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::vector<std::string> failures_;
};

/// An ordered set of named metrics with units. Constructed from the full
/// list of names a mode reports, each starting at 0; Set() on a name not in
/// the list is a programming error.
class Metrics {
 public:
  struct Spec {
    const char* name;
    const char* unit;
  };
  explicit Metrics(const std::vector<Spec>& specs);
  void Set(const std::string& name, double value);
  /// {"name": {"value": v, "unit": "u"}, ...}
  std::string ToJson() const;

 private:
  struct Entry {
    Spec spec;
    double value = 0.0;
  };
  Entry& Find(const std::string& name);
  std::vector<Entry> entries_;
};

/// The end-to-end metrics (trace 0) and the per-layer metrics (trace 1), in
/// the order BENCHMARK.json lists them.
const std::vector<Metrics::Spec>& EndToEndSpecs();
const std::vector<Metrics::Spec>& PerLayerSpecs();

/// One fresh set-up plus one timed Train() through a product entry point.
struct Rep {
  /// Workload start to its first timed step.
  double setup_s = 0;
  /// Wall time of the timed training and the samples it trained.
  double train_s = 0;
  double samples = 0;
  /// Steps attempted in the rep, set-up steps included.
  int steps = 0;
  /// Loss of the first training step the rep ran, and the validation loss
  /// the timed Train() reported.
  double first_loss = 0;
  double valid_loss = 0;
  /// Per-step losses of the timed Train().
  std::vector<double> losses;
  /// zero3 only: peak bytes in use on the ranks' shard tiers, summed, and
  /// the collectives per step the product reported.
  uint64_t cpu_peak_bytes = 0;
  double collectives_per_step = 0;

  double samples_per_s() const { return train_s > 0 ? samples / train_s : 0; }
};

/// The calls the traced runs time from outside, one span name each.
enum class Phase : int {
  kStep,           // One whole traced step.
  kForward,        // LayeredModel::Forward in the forward pass, plus loss.
  kRecompute,      // LayeredModel::Forward re-run in backward.
  kBackward,       // LayeredModel::Backward.
  kUseParams,      // Engine::UseLayerParams.
  kActStash,       // Engine::StashActivation + FetchActivation.
  kPushGrads,      // Engine::PushGrads.
  kStepEdges,      // Engine::BeginStep + EndStep.
  kCheckpoint,     // CheckpointManager::Save.
  kFetch,          // LockFreeUpdater::FetchParams.
  kOffload,        // LockFreeUpdater::OffloadGrads.
  kUpdateOnce,     // LockFreeUpdater::UpdateOnce.
  kAllGather,      // ProcessGroup::AllGather.
  kReduceScatter,  // ProcessGroup::ReduceScatter.
  kAllReduce,      // ProcessGroup::AllReduce (the step loss).
  kStage,          // Fast-tier staging of gathered parameters.
  kShardUpdate,    // core::Optimizer::Update on the owned shard.
  kShardIo,        // Page-backed shard and slot reads/writes.
  kCount,
};

/// Wall time per phase, accumulated by Timed scopes on one thread.
class PhaseClock {
 public:
  void Add(Phase phase, double ms) { ms_[int(phase)] += ms; }
  double ms(Phase phase) const { return ms_[int(phase)]; }
  /// Sum over every phase nested in a step (all but kStep).
  double LayerMs() const;
  void Reset() { *this = PhaseClock(); }

 private:
  double ms_[int(Phase::kCount)] = {};
};

/// Times one call into a layer: an ANGEL_SPAN("bench", <phase>) that lands
/// in the trace file, plus the same interval added to a PhaseClock.
class Timed {
 public:
  Timed(PhaseClock* clock, Phase phase);
  ~Timed();
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  PhaseClock* clock_;
  Phase phase_;
  obs::ScopedSpan span_;
  std::chrono::steady_clock::time_point start_;
};

double SecondsSince(std::chrono::steady_clock::time_point start);
double Median(std::vector<double> values);
/// Bytes rounded up to whole pages.
uint64_t PageRound(uint64_t bytes, uint64_t page_bytes);
/// High-water mark of the arena's frames in use, in bytes.
uint64_t PeakBytes(const mem::PageArena& arena);
constexpr double kMB = 1e6;

/// Analytic forward+backward FLOPs of one training step: a multiply-add is
/// 2 FLOPs, backward is twice forward, causal attention counts only the
/// j <= i pairs it computes, and recompute is not counted.
double TransformerStepFlops(const train::TransformerConfig& config,
                            size_t batch);
double MlpStepFlops(const std::vector<size_t>& dims, size_t batch);

/// The floor: median wall time of forward, loss and backward of `model` on
/// plain fp32 vectors (initial parameters, full stash, no optimizer),
/// after one warm-up step.
double BareStepMs(const train::LayeredModel& model, size_t batch,
                  uint64_t seed, int steps);

/// Advances a fresh Rng(seed) past the model's initial-parameter draws, so
/// it yields the same batches a trainer seeded with `seed` trains on.
util::Rng DataCursor(const train::LayeredModel& model, uint64_t seed);

/// Fails the traced run when the ring buffers dropped spans.
void CheckNoDroppedSpans(Checks* checks);

/// Result of a traced run: per-layer metrics plus the steps it attempted.
struct TracedResult {
  TracedResult() : metrics(PerLayerSpecs()) {}
  Metrics metrics;
  int steps = 0;
};

// --- The three workloads (one file each) ---
// run_rep: one fresh set-up + timed Train() through the product entry
// point, checking its outputs; rep 0 also runs the once-per-run checks.
// `out->steps` is set before training starts, so a failed rep still counts
// its attempted steps.
// run_traced: the same steps driven call for call through each layer's
// public functions under tracing; `reference` is an untraced rep of the
// same process, for the tracing overhead.

struct Workload {
  const char* name;
  /// Compute-pool threads the workload pins (capped at the host's CPUs).
  size_t compute_threads;
  util::Status (*run_rep)(const RunConfig& config, int rep, Rep* out,
                          Checks* checks);
  util::Status (*run_traced)(const RunConfig& config, const Rep& reference,
                             TracedResult* out, Checks* checks);
};

util::Status PagedRep(const RunConfig& config, int rep, Rep* out,
                      Checks* checks);
util::Status PagedTraced(const RunConfig& config, const Rep& reference,
                         TracedResult* out, Checks* checks);
util::Status DirectRep(const RunConfig& config, int rep, Rep* out,
                       Checks* checks);
util::Status DirectTraced(const RunConfig& config, const Rep& reference,
                          TracedResult* out, Checks* checks);
util::Status Zero3Rep(const RunConfig& config, int rep, Rep* out,
                      Checks* checks);
util::Status Zero3Traced(const RunConfig& config, const Rep& reference,
                         TracedResult* out, Checks* checks);

/// Checks shared by every rep: finite losses, valid_loss below the first
/// step's loss.
void CheckLosses(const Rep& rep, Checks* checks);

}  // namespace angelptm::perfbench

#endif  // ANGELPTM_PERFBENCH_BENCH_H_
