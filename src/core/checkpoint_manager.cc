#include "core/checkpoint_manager.h"

#include <chrono>
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

}  // namespace

CheckpointManager::CheckpointManager(const Options& options)
    : options_(options), files_{options.dir, kCheckpointStem} {
  if (options_.keep_last < 1) options_.keep_last = 1;
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
  const std::string suffix = ".tmp";
  for (const auto& entry : fs::directory_iterator(options_.dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0 &&
        files_.StepOf(name.substr(0, name.size() - suffix.size())) >= 0) {
      std::error_code remove_ec;
      fs::remove(entry.path(), remove_ec);
      ANGEL_LOG(Warning) << "removed partial checkpoint " << entry.path()
                         << " left by an interrupted persist";
    }
  }
  return util::Status::OK();
}

std::string CheckpointManager::PathForStep(int64_t step) const {
  return files_.PathForStep(step);
}

std::vector<std::string> CheckpointManager::ListCheckpoints() const {
  std::vector<std::string> paths;
  for (const int64_t step : files_.Steps()) {
    paths.push_back(files_.PathForStep(step));
  }
  return paths;
}

util::Status CheckpointManager::Save(LockFreeUpdater* updater,
                                     const TrainProgress& progress) {
  ANGEL_SPAN("checkpoint", "save");
  util::MutexLock save_lock(save_mutex_);
  const uint64_t start = NowUs();
  {
    util::MutexLock lock(mutex_);
    if (busy_) stats_.busy_waits += 1;
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
    util::MutexLock lock(mutex_);
    stats_.save_failures += 1;
    return unreported.ok() ? cut : unreported;
  }
  const uint64_t elapsed = NowUs() - start;
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
    util::MutexLock lock(mutex_);
    stats_.save_failures += 1;
    if (error_.ok()) {
      error_ = util::Status(persisted.code(), "checkpoint " + job->path +
                                                  ": " + persisted.message());
    }
    return;
  }
  const uint64_t elapsed = NowUs() - start;

  // Rotate: drop the oldest files beyond keep_last. The new file is already
  // durable, so deleting old ones cannot lose the only good checkpoint. A
  // failed delete is not a failed save, but it must not pass silently (an
  // undeletable directory would otherwise fill the disk one checkpoint at
  // a time).
  const uint64_t rotate_failures = files_.Rotate(options_.keep_last);

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
      util::MutexLock lock(mutex_);
      stats_.loads += 1;
      return progress;
    }
    if (loaded.code() == util::StatusCode::kFailedPrecondition) {
      return loaded;  // Running updater: retrying older files cannot help.
    }
    ANGEL_LOG(Warning) << "checkpoint " << *it << " unusable ("
                       << loaded.ToString() << "); falling back";
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
