#include "core/checkpoint.h"

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include "util/fault_injector.h"

namespace angelptm::core {
namespace {

constexpr char kMagic[8] = {'A', 'P', 'T', 'M', 'C', 'K', 'P', 'T'};
constexpr uint32_t kVersion = 3;
constexpr uint32_t kMinVersion = 1;
/// Caps per-string / per-slot-list reads so a corrupt length prefix fails
/// with a clear error instead of a giant allocation.
constexpr uint32_t kMaxRuleNameBytes = 256;
constexpr uint32_t kMaxSlots = 64;

/// Incremental FNV-1a over byte spans.
class Fnv1a {
 public:
  void Update(const void* data, size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < bytes; ++i) {
      hash_ ^= p[i];
      hash_ *= 1099511628211ull;
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

class Writer {
 public:
  explicit Writer(std::FILE* file) : file_(file) {}
  bool Write(const void* data, size_t bytes) {
    checksum_.Update(data, bytes);
    bytes_ += bytes;
    return std::fwrite(data, 1, bytes, file_) == bytes;
  }
  bool WriteChecksum() {
    const uint64_t value = checksum_.value();
    bytes_ += sizeof(value);
    return std::fwrite(&value, 1, sizeof(value), file_) == sizeof(value);
  }
  uint64_t bytes() const { return bytes_; }

 private:
  std::FILE* file_;
  Fnv1a checksum_;
  uint64_t bytes_ = 0;
};

class Reader {
 public:
  explicit Reader(std::FILE* file) : file_(file) {}
  bool Read(void* data, size_t bytes) {
    if (std::fread(data, 1, bytes, file_) != bytes) return false;
    checksum_.Update(data, bytes);
    return true;
  }
  bool VerifyChecksum() {
    uint64_t stored = 0;
    if (std::fread(&stored, 1, sizeof(stored), file_) != sizeof(stored)) {
      return false;
    }
    return stored == checksum_.value();
  }

 private:
  std::FILE* file_;
  Fnv1a checksum_;
};

bool WriteProgress(Writer* writer, const TrainProgress& progress) {
  const int64_t step = progress.global_step;
  const uint8_t has_cached = progress.rng_state.has_cached_gaussian ? 1 : 0;
  return writer->Write(&step, sizeof(step)) &&
         writer->Write(progress.rng_state.s.data(), 4 * sizeof(uint64_t)) &&
         writer->Write(&has_cached, sizeof(has_cached)) &&
         writer->Write(&progress.rng_state.cached_gaussian, sizeof(double)) &&
         writer->Write(&progress.loss_scale, sizeof(double)) &&
         writer->Write(&progress.scaler_good_steps, sizeof(int32_t)) &&
         writer->Write(&progress.scaler_overflows, sizeof(uint64_t)) &&
         writer->Write(&progress.scaler_growths, sizeof(uint64_t));
}

bool ReadProgress(Reader* reader, TrainProgress* progress) {
  uint8_t has_cached = 0;
  const bool ok =
      reader->Read(&progress->global_step, sizeof(int64_t)) &&
      reader->Read(progress->rng_state.s.data(), 4 * sizeof(uint64_t)) &&
      reader->Read(&has_cached, sizeof(has_cached)) &&
      reader->Read(&progress->rng_state.cached_gaussian, sizeof(double)) &&
      reader->Read(&progress->loss_scale, sizeof(double)) &&
      reader->Read(&progress->scaler_good_steps, sizeof(int32_t)) &&
      reader->Read(&progress->scaler_overflows, sizeof(uint64_t)) &&
      reader->Read(&progress->scaler_growths, sizeof(uint64_t));
  progress->rng_state.has_cached_gaussian = has_cached != 0;
  progress->has_progress = ok;
  return ok;
}

bool WriteString(Writer* writer, const std::string& value) {
  const uint32_t len = uint32_t(value.size());
  return writer->Write(&len, sizeof(len)) &&
         writer->Write(value.data(), value.size());
}

bool ReadString(Reader* reader, uint32_t max_bytes, std::string* out) {
  uint32_t len = 0;
  if (!reader->Read(&len, sizeof(len)) || len > max_bytes) return false;
  out->resize(len);
  return len == 0 || reader->Read(out->data(), len);
}

/// A cut tensor's fp32 payload in file order, read span by span through
/// `buffer` (at least one span long).
bool WriteSpans(Writer* writer, mem::SsdTier* ssd,
                const LockFreeUpdater::MasterCut::Tensor& tensor,
                std::vector<std::byte>* buffer, util::Status* read_status) {
  for (const MasterSpan& span : tensor.spans) {
    *read_status = ReadMasterSpan(ssd, span, buffer->data());
    if (!read_status->ok() || !writer->Write(buffer->data(), span.bytes)) {
      return false;
    }
  }
  return true;
}

/// Self-describing slot values: element count then fp32 payload.
bool ReadFloatBlock(Reader* reader, std::vector<float>* out) {
  uint64_t count = 0;
  if (!reader->Read(&count, sizeof(count))) return false;
  out->resize(count);
  return count == 0 || reader->Read(out->data(), count * sizeof(float));
}

/// Writes the cut to `path` (see PersistCheckpoint), unpinning each layer
/// once its bytes are in the file.
util::Status WriteCut(CheckpointCut* cut, const std::string& path,
                      uint64_t* bytes_written) {
  ANGEL_FAULT_CHECK("checkpoint.write");
  size_t buffer_bytes = 0;
  for (const LockFreeUpdater::MasterCut& layer : cut->layers) {
    for (const LockFreeUpdater::MasterCut::Tensor& tensor : layer.tensors) {
      for (const MasterSpan& span : tensor.spans) {
        buffer_bytes = std::max(buffer_bytes, span.bytes);
      }
    }
  }
  std::vector<std::byte> buffer(buffer_bytes);
  const std::string tmp_path = path + ".tmp";
  std::FILE* file = std::fopen(tmp_path.c_str(), "wb");
  if (file == nullptr) {
    return util::Status::IoError("cannot open " + tmp_path);
  }
  Writer writer(file);
  util::Status read_status;
  const uint32_t num_layers = uint32_t(cut->layers.size());
  bool ok = writer.Write(kMagic, sizeof(kMagic)) &&
            writer.Write(&kVersion, sizeof(kVersion)) &&
            WriteProgress(&writer, cut->progress) &&
            WriteString(&writer, cut->rule) &&
            writer.Write(&num_layers, sizeof(num_layers));
  for (LockFreeUpdater::MasterCut& layer : cut->layers) {
    if (!ok) break;
    const LockFreeUpdater::MasterCut::Tensor& params = layer.tensors.front();
    const uint64_t count = params.count;
    const int64_t step = layer.step;
    const uint32_t num_slots = uint32_t(layer.tensors.size() - 1);
    ok = writer.Write(&count, sizeof(count)) &&
         writer.Write(&step, sizeof(step)) &&
         writer.Write(&num_slots, sizeof(num_slots)) &&
         WriteSpans(&writer, layer.ssd, params, &buffer, &read_status);
    for (size_t s = 1; ok && s < layer.tensors.size(); ++s) {
      const LockFreeUpdater::MasterCut::Tensor& slot = layer.tensors[s];
      ok = WriteString(&writer, slot.name) &&
           writer.Write(&slot.count, sizeof(slot.count)) &&
           WriteSpans(&writer, layer.ssd, slot, &buffer, &read_status);
    }
    layer.Unpin();
  }
  ok = ok && writer.WriteChecksum();
  // Flush user-space buffers and force the data to stable storage before the
  // rename publishes it: a crash right after the rename must never leave a
  // checkpoint whose bytes were still in the page cache only.
  if (ok && std::fflush(file) != 0) ok = false;
  if (ok && ::fsync(::fileno(file)) != 0) ok = false;
  if (std::fclose(file) != 0) ok = false;
  if (!ok) {
    std::remove(tmp_path.c_str());
    if (!read_status.ok()) return read_status;
    return util::Status::IoError("short write to " + tmp_path);
  }
  const util::Status rename_fault =
      util::FaultInjector::Instance().Check("checkpoint.rename");
  if (!rename_fault.ok() ||
      std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return rename_fault.ok()
               ? util::Status::IoError("rename to " + path + " failed")
               : rename_fault;
  }
  if (bytes_written != nullptr) *bytes_written = writer.bytes();
  return util::Status::OK();
}

}  // namespace

util::Status CutCheckpoint(LockFreeUpdater* updater,
                           const TrainProgress* progress, CheckpointCut* out) {
  if (updater == nullptr) return util::Status::InvalidArgument("null updater");
  out->progress = progress != nullptr ? *progress : TrainProgress();
  out->rule = updater->optimizer_rule();
  out->layers.clear();
  out->layers.resize(size_t(updater->num_layers()));
  for (int l = 0; l < updater->num_layers(); ++l) {
    const util::Status cut = updater->CutLayer(l, &out->layers[size_t(l)]);
    if (!cut.ok()) {
      out->layers.clear();  // Releases the pins taken so far.
      return cut;
    }
  }
  return util::Status::OK();
}

util::Status PersistCheckpoint(CheckpointCut* cut, const std::string& path,
                               uint64_t* bytes_written) {
  const util::Status written = WriteCut(cut, path, bytes_written);
  for (LockFreeUpdater::MasterCut& layer : cut->layers) layer.Unpin();
  return written;
}

util::Status SaveCheckpoint(LockFreeUpdater* updater, const std::string& path,
                            const TrainProgress* progress,
                            uint64_t* bytes_written) {
  CheckpointCut cut;
  ANGEL_RETURN_IF_ERROR(CutCheckpoint(updater, progress, &cut));
  return PersistCheckpoint(&cut, path, bytes_written);
}

util::Status LoadCheckpoint(LockFreeUpdater* updater, const std::string& path,
                            TrainProgress* progress) {
  if (updater == nullptr) return util::Status::InvalidArgument("null updater");
  if (updater->running()) {
    return util::Status::FailedPrecondition(
        "Stop() the updater before restoring");
  }
  if (progress != nullptr) *progress = TrainProgress();
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return util::Status::NotFound("no checkpoint at " + path);
  }
  Reader reader(file);
  char magic[8];
  uint32_t version = 0, num_layers = 0;
  if (!reader.Read(magic, sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    std::fclose(file);
    return util::Status::InvalidArgument(path + " is not a checkpoint");
  }
  if (!reader.Read(&version, sizeof(version)) || version < kMinVersion ||
      version > kVersion) {
    std::fclose(file);
    return util::Status::InvalidArgument(
        path + ": unsupported checkpoint version " + std::to_string(version) +
        " (this build reads v" + std::to_string(kMinVersion) + "..v" +
        std::to_string(kVersion) + ")");
  }
  TrainProgress loaded_progress;
  if (version >= 2 && !ReadProgress(&reader, &loaded_progress)) {
    std::fclose(file);
    return util::Status::IoError(path + ": truncated in the progress block");
  }
  // v1/v2 predate self-describing optimizer state: they are Adam layers
  // ({m, v}) by construction.
  std::string rule = "adam";
  if (version >= 3 && !ReadString(&reader, kMaxRuleNameBytes, &rule)) {
    std::fclose(file);
    return util::Status::IoError(path + ": truncated in the rule name");
  }
  if (rule != updater->optimizer_rule()) {
    std::fclose(file);
    return util::Status::InvalidArgument(
        path + " holds optimizer rule '" + rule +
        "' but the updater is configured for '" + updater->optimizer_rule() +
        "'");
  }
  if (!reader.Read(&num_layers, sizeof(num_layers))) {
    std::fclose(file);
    return util::Status::IoError(path + ": truncated in the header");
  }
  if (int(num_layers) != updater->num_layers()) {
    std::fclose(file);
    return util::Status::InvalidArgument(
        path + " has " + std::to_string(num_layers) + " layers, model has " +
        std::to_string(updater->num_layers()));
  }

  // Read everything (and verify the checksum) before touching the updater,
  // so a corrupt file cannot leave it half-restored.
  std::vector<LockFreeUpdater::LayerState> states(num_layers);
  for (uint32_t l = 0; l < num_layers; ++l) {
    uint64_t count = 0;
    int64_t step = 0;
    if (!reader.Read(&count, sizeof(count)) ||
        !reader.Read(&step, sizeof(step))) {
      std::fclose(file);
      return util::Status::IoError(path + ": truncated in layer " +
                                   std::to_string(l) + " header");
    }
    LockFreeUpdater::LayerState& state = states[l];
    state.step = long(step);
    if (version >= 3) {
      uint32_t num_slots = 0;
      if (!reader.Read(&num_slots, sizeof(num_slots)) ||
          num_slots > kMaxSlots) {
        std::fclose(file);
        return util::Status::IoError(path + ": truncated in layer " +
                                     std::to_string(l) + " header");
      }
      state.params.resize(count);
      if (!reader.Read(state.params.data(), count * sizeof(float))) {
        std::fclose(file);
        return util::Status::IoError(path + ": truncated in layer " +
                                     std::to_string(l) + " payload");
      }
      state.slots.resize(num_slots);
      for (uint32_t s = 0; s < num_slots; ++s) {
        if (!ReadString(&reader, kMaxRuleNameBytes, &state.slots[s].name) ||
            !ReadFloatBlock(&reader, &state.slots[s].values)) {
          std::fclose(file);
          return util::Status::IoError(path + ": truncated in layer " +
                                       std::to_string(l) + " slot " +
                                       std::to_string(s));
        }
      }
    } else {
      // v1/v2 fixed layer layout: count | (adam_)step | p32 | m32 | v32.
      state.params.resize(count);
      state.slots.resize(2);
      state.slots[0].name = "m";
      state.slots[0].values.resize(count);
      state.slots[1].name = "v";
      state.slots[1].values.resize(count);
      if (!reader.Read(state.params.data(), count * sizeof(float)) ||
          !reader.Read(state.slots[0].values.data(),
                       count * sizeof(float)) ||
          !reader.Read(state.slots[1].values.data(),
                       count * sizeof(float))) {
        std::fclose(file);
        return util::Status::IoError(path + ": truncated in layer " +
                                     std::to_string(l) + " payload");
      }
    }
  }
  const bool checksum_ok = reader.VerifyChecksum();
  std::fclose(file);
  if (!checksum_ok) {
    return util::Status::IoError(
        path + ": checksum mismatch (corrupt or torn checkpoint)");
  }
  for (uint32_t l = 0; l < num_layers; ++l) {
    ANGEL_RETURN_IF_ERROR(updater->ImportLayerState(int(l), states[l]));
  }
  if (progress != nullptr) *progress = loaded_progress;
  return util::Status::OK();
}

}  // namespace angelptm::core
