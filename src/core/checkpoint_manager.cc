#include "core/checkpoint_manager.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <system_error>

#include "obs/trace.h"
#include "util/logging.h"

namespace angelptm::core {
namespace {

namespace fs = std::filesystem;

uint64_t NowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Parses "<stem>-NNNNNNNNN.ckpt" -> step; -1 when `name` does not match.
int64_t StepFromFilename(const std::string& stem, const std::string& name) {
  const std::string prefix = stem + "-";
  const std::string suffix = ".ckpt";
  if (name.size() <= prefix.size() + suffix.size()) return -1;
  if (name.compare(0, prefix.size(), prefix) != 0) return -1;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return -1;
  }
  int64_t step = 0;
  for (size_t i = prefix.size(); i < name.size() - suffix.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return -1;
    step = step * 10 + (name[i] - '0');
  }
  return step;
}

}  // namespace

CheckpointManager::CheckpointManager(const Options& options)
    : options_(options) {
  if (options_.keep_last < 1) options_.keep_last = 1;
  obs::Registry& registry = obs::Registry::Instance();
  metric_saves_ = registry.GetCounter("checkpoint/saves");
  metric_save_failures_ = registry.GetCounter("checkpoint/save_failures");
  metric_bytes_written_ = registry.GetCounter("checkpoint/bytes_written");
  metric_loads_ = registry.GetCounter("checkpoint/loads");
  metric_fallbacks_ = registry.GetCounter("checkpoint/fallbacks");
  metric_busy_waits_ = registry.GetCounter("checkpoint/busy_waits");
  metric_save_us_ = registry.GetHistogram("checkpoint/save_us");
  metric_persist_us_ = registry.GetHistogram("checkpoint/persist_us");
}

CheckpointManager::~CheckpointManager() {
  util::MutexLock save_lock(save_mutex_);
  JoinWriter();
  const util::Status unreported = TakeError();
  if (!unreported.ok()) {
    ANGEL_LOG(Warning) << "unreported checkpoint error: "
                       << unreported.ToString();
  }
}

util::Status CheckpointManager::Init() {
  if (options_.dir.empty()) {
    return util::Status::InvalidArgument("checkpoint dir not set");
  }
  util::MutexLock save_lock(save_mutex_);
  JoinWriter();
  std::error_code ec;
  fs::create_directories(options_.dir, ec);
  if (ec) {
    return util::Status::IoError("cannot create checkpoint dir " +
                                 options_.dir + ": " + ec.message());
  }
  // A persist killed before its rename leaves its tmp file behind; no
  // loader reads it, so it would only take disk.
  const std::string prefix = options_.basename + "-";
  const std::string suffix = ".ckpt.tmp";
  for (const auto& entry : fs::directory_iterator(options_.dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > prefix.size() + suffix.size() &&
        name.compare(0, prefix.size(), prefix) == 0 &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      std::error_code remove_ec;
      fs::remove(entry.path(), remove_ec);
      ANGEL_LOG(Warning) << "removed partial checkpoint " << entry.path()
                         << " left by an interrupted persist";
    }
  }
  return util::Status::OK();
}

std::string CheckpointManager::PathForStep(int64_t step) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%09lld", static_cast<long long>(step));
  return options_.dir + "/" + options_.basename + "-" + buf + ".ckpt";
}

std::vector<std::string> CheckpointManager::ListCheckpoints() const {
  std::vector<std::pair<int64_t, std::string>> found;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(options_.dir, ec)) {
    const std::string name = entry.path().filename().string();
    const int64_t step = StepFromFilename(options_.basename, name);
    if (step >= 0) found.emplace_back(step, entry.path().string());
  }
  std::sort(found.begin(), found.end());
  std::vector<std::string> paths;
  paths.reserve(found.size());
  for (auto& [step, path] : found) paths.push_back(std::move(path));
  return paths;
}

util::Status CheckpointManager::Save(LockFreeUpdater* updater,
                                     const TrainProgress& progress) {
  ANGEL_SPAN("checkpoint", "save");
  util::MutexLock save_lock(save_mutex_);
  const uint64_t start = NowUs();
  {
    util::MutexLock lock(mutex_);
    if (busy_) {
      stats_.busy_waits += 1;
      metric_busy_waits_->Increment();
    }
  }
  JoinWriter();
  util::Status unreported = TakeError();
  auto job = std::make_unique<PersistJob>();
  job->path = PathForStep(progress.global_step);
  job->step = progress.global_step;
  util::Status cut;
  {
    ANGEL_SPAN("checkpoint", "cut");
    cut = CutCheckpoint(updater, &progress, &job->cut);
  }
  if (!cut.ok()) {
    metric_save_failures_->Increment();
    util::MutexLock lock(mutex_);
    stats_.save_failures += 1;
    return unreported.ok() ? cut : unreported;
  }
  const uint64_t elapsed = NowUs() - start;
  metric_save_us_->Record(elapsed);
  {
    util::MutexLock lock(mutex_);
    stats_.save_us.Record(elapsed);
    busy_ = true;
  }
  // One thread per persist, gone once the file is published: between
  // saves no idle writer holds a stack or a malloc arena.
  writer_ = std::thread([this, job = std::move(job)]() mutable {
    Persist(job.get());
    job.reset();  // Nothing of the cut is pinned once Persist returns.
    {
      util::MutexLock lock(mutex_);
      busy_ = false;
    }
    writer_cv_.NotifyAll();
  });
  return unreported;
}

util::Status CheckpointManager::Flush() {
  util::MutexLock save_lock(save_mutex_);
  JoinWriter();
  return TakeError();
}

void CheckpointManager::JoinWriter() {
  if (writer_.joinable()) writer_.join();
}

util::Status CheckpointManager::TakeError() {
  util::MutexLock lock(mutex_);
  util::Status error = std::move(error_);
  error_ = util::Status::OK();
  return error;
}

void CheckpointManager::Persist(PersistJob* job) {
  ANGEL_SPAN("checkpoint", "persist");
  const uint64_t start = NowUs();
  uint64_t bytes = 0;
  const util::Status persisted =
      PersistCheckpoint(&job->cut, job->path, &bytes);
  if (!persisted.ok()) {
    metric_save_failures_->Increment();
    util::MutexLock lock(mutex_);
    stats_.save_failures += 1;
    if (error_.ok()) {
      error_ = util::Status(persisted.code(), "checkpoint " + job->path +
                                                  ": " + persisted.message());
    }
    return;
  }
  const uint64_t elapsed = NowUs() - start;
  metric_saves_->Increment();
  metric_bytes_written_->Increment(bytes);
  metric_persist_us_->Record(elapsed);

  // Rotate: drop the oldest files beyond keep_last. The new file is already
  // durable, so deleting old ones cannot lose the only good checkpoint. A
  // failed delete is not a failed save — the extra file costs disk, not
  // correctness — but it must not pass silently (an undeletable directory
  // would otherwise fill the disk one checkpoint at a time).
  uint64_t rotate_failures = 0;
  std::vector<std::string> checkpoints = ListCheckpoints();
  while (checkpoints.size() > static_cast<size_t>(options_.keep_last)) {
    std::error_code ec;
    if (!fs::remove(checkpoints.front(), ec) || ec) {
      ANGEL_LOG(Warning) << "checkpoint rotation could not delete "
                         << checkpoints.front() << ": " << ec.message();
      rotate_failures += 1;
    }
    checkpoints.erase(checkpoints.begin());
  }

  util::MutexLock lock(mutex_);
  stats_.saves += 1;
  stats_.bytes_written += bytes;
  stats_.rotate_failures += rotate_failures;
  stats_.last_saved_step = job->step;
  stats_.persist_us.Record(elapsed);
}

util::Result<TrainProgress> CheckpointManager::LoadLatest(
    LockFreeUpdater* updater) {
  ANGEL_SPAN("checkpoint", "load_latest");
  util::MutexLock save_lock(save_mutex_);
  JoinWriter();
  const std::vector<std::string> checkpoints = ListCheckpoints();
  util::Status last_error = util::Status::NotFound(
      "no checkpoint under " + options_.dir);
  // Newest first; fall back on corruption.
  for (auto it = checkpoints.rbegin(); it != checkpoints.rend(); ++it) {
    TrainProgress progress;
    const util::Status loaded = LoadCheckpoint(updater, *it, &progress);
    if (loaded.ok()) {
      metric_loads_->Increment();
      util::MutexLock lock(mutex_);
      stats_.loads += 1;
      return progress;
    }
    if (loaded.code() == util::StatusCode::kFailedPrecondition) {
      return loaded;  // Running updater: retrying older files cannot help.
    }
    ANGEL_LOG(Warning) << "checkpoint " << *it << " unusable ("
                       << loaded.ToString() << "); falling back";
    metric_fallbacks_->Increment();
    {
      util::MutexLock lock(mutex_);
      stats_.fallbacks += 1;
    }
    last_error = loaded;
  }
  return last_error;
}

CheckpointManager::Stats CheckpointManager::Snapshot() const {
  util::MutexLock lock(mutex_);
  while (busy_) writer_cv_.Wait(mutex_);
  return stats_;
}

}  // namespace angelptm::core
