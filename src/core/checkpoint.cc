#include "core/checkpoint.h"

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <system_error>
#include <vector>

#include "util/fault_injector.h"
#include "util/logging.h"

namespace angelptm::core {
namespace {

constexpr char kMagic[8] = {'A', 'P', 'T', 'M', 'C', 'K', 'P', 'T'};
constexpr uint32_t kVersion = 3;
constexpr uint32_t kMinVersion = 1;
/// Caps per-string / per-slot-list reads so a corrupt length prefix fails
/// with a clear error instead of a giant allocation.
constexpr uint32_t kMaxRuleNameBytes = 256;
constexpr uint32_t kMaxSlots = 64;
/// The smallest layer any version writes: its count and step.
constexpr uint64_t kMinLayerBytes = 16;

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
  Reader(std::FILE* file, uint64_t size) : file_(file), left_(size) {}
  bool Read(void* data, size_t bytes) {
    if (bytes > left_ || std::fread(data, 1, bytes, file_) != bytes) {
      return false;
    }
    left_ -= bytes;
    checksum_.Update(data, bytes);
    return true;
  }
  /// Bytes not read yet, the stored checksum included.
  uint64_t left() const { return left_; }
  /// True when exactly the stored checksum is left, and it matches.
  bool VerifyChecksum() {
    uint64_t stored = 0;
    return left_ == sizeof(stored) &&
           std::fread(&stored, 1, sizeof(stored), file_) == sizeof(stored) &&
           stored == checksum_.value();
  }

 private:
  std::FILE* file_;
  uint64_t left_;
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
                const MasterCut::Tensor& tensor,
                std::vector<std::byte>* buffer, util::Status* read_status) {
  for (const MasterSpan& span : tensor.spans) {
    *read_status = ReadMasterSpan(ssd, span, buffer->data());
    if (!read_status->ok() || !writer->Write(buffer->data(), span.bytes)) {
      return false;
    }
  }
  return true;
}

/// Reads `count` fp32 values of `section` into `out`, after checking they
/// fit in the bytes left: a corrupt count fails here, before it can size an
/// allocation.
util::Status ReadFloats(Reader* reader, uint64_t count, const std::string& path,
                        const std::string& section, std::vector<float>* out) {
  if (count > reader->left() / sizeof(float)) {
    return util::Status::IoError(
        path + ": " + section + " count " + std::to_string(count) +
        " exceeds the " + std::to_string(reader->left()) +
        " bytes left in the file");
  }
  out->resize(count);
  if (count > 0 && !reader->Read(out->data(), count * sizeof(float))) {
    return util::Status::IoError(path + ": truncated in " + section);
  }
  return util::Status::OK();
}

/// Writes the cut to `path` (see PersistCheckpoint), unpinning each layer
/// once its bytes are in the file.
util::Status WriteCut(CheckpointCut* cut, const std::string& path,
                      uint64_t* bytes_written) {
  ANGEL_FAULT_CHECK("checkpoint.write");
  size_t buffer_bytes = 0;
  for (const MasterCut& layer : cut->layers) {
    for (const MasterCut::Tensor& tensor : layer.tensors) {
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
  for (MasterCut& layer : cut->layers) {
    if (!ok) break;
    const MasterCut::Tensor& params = layer.tensors.front();
    const uint64_t count = params.count;
    const int64_t step = layer.step;
    const uint32_t num_slots = uint32_t(layer.tensors.size() - 1);
    ok = writer.Write(&count, sizeof(count)) &&
         writer.Write(&step, sizeof(step)) &&
         writer.Write(&num_slots, sizeof(num_slots)) &&
         WriteSpans(&writer, layer.ssd, params, &buffer, &read_status);
    for (size_t s = 1; ok && s < layer.tensors.size(); ++s) {
      const MasterCut::Tensor& slot = layer.tensors[s];
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

util::Result<MasterSpan> SpanOf(const Tensor& tensor, const mem::Page& page) {
  const mem::Page::Slot* slot = page.FindSlot(tensor.id());
  if (slot == nullptr) {
    return util::Status::Internal("tensor " + std::to_string(tensor.id()) +
                                  " missing slot on page " +
                                  std::to_string(page.id()));
  }
  MasterSpan span;
  span.bytes = slot->bytes;
  if (page.device() == mem::DeviceKind::kSsd) {
    span.ssd_offset = page.ssd_offset() + slot->offset;
  } else {
    span.host = page.data_ptr() + slot->offset;
  }
  return span;
}

util::Status ReadMasterSpan(mem::SsdTier* ssd, const MasterSpan& span,
                            std::byte* dst) {
  if (span.host != nullptr) {
    std::memcpy(dst, span.host, span.bytes);
    return util::Status::OK();
  }
  if (ssd == nullptr) {
    return util::Status::FailedPrecondition("SSD span without an SSD tier");
  }
  return ssd->ReadFrame(span.ssd_offset, dst, span.bytes);
}

void MasterCut::Unpin() {
  if (!pinned.empty()) ssd->UnpinFrames(pinned);
  pinned.clear();
}

util::Status CutMasters(const std::vector<Tensor*>& tensors,
                        const std::vector<SlotSpec>& slot_layout,
                        mem::SsdTier* ssd, MasterCut* out) {
  size_t copied_bytes = 0;
  for (const Tensor* tensor : tensors) {
    if (tensor->dtype() != DType::kFp32) {
      return util::Status::FailedPrecondition(
          "checkpoints store fp32 master states only");
    }
    for (const mem::Page* page : tensor->pages()) {
      ANGEL_ASSIGN_OR_RETURN(const MasterSpan span, SpanOf(*tensor, *page));
      if (span.host != nullptr) copied_bytes += span.bytes;
    }
  }
  out->copied.resize(copied_bytes);
  out->ssd = ssd;
  std::byte* copy_at = out->copied.data();
  for (size_t t = 0; t < tensors.size(); ++t) {
    MasterCut::Tensor& cut = out->tensors.emplace_back();
    if (t > 0) cut.name = slot_layout[t - 1].name;
    cut.count = tensors[t]->NumElements();
    for (const mem::Page* page : tensors[t]->pages()) {
      ANGEL_ASSIGN_OR_RETURN(MasterSpan span, SpanOf(*tensors[t], *page));
      if (span.host != nullptr) {
        std::memcpy(copy_at, span.host, span.bytes);
        span.host = copy_at;
        copy_at += span.bytes;
      } else {
        out->pinned.push_back(page->ssd_offset());
      }
      cut.spans.push_back(span);
    }
  }
  if (!out->pinned.empty()) out->ssd->PinFrames(out->pinned);
  return util::Status::OK();
}

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
  for (MasterCut& layer : cut->layers) layer.Unpin();
  return written;
}

util::Status SaveCheckpoint(LockFreeUpdater* updater, const std::string& path,
                            const TrainProgress* progress,
                            uint64_t* bytes_written) {
  CheckpointCut cut;
  ANGEL_RETURN_IF_ERROR(CutCheckpoint(updater, progress, &cut));
  return PersistCheckpoint(&cut, path, bytes_written);
}

util::Result<ParsedCheckpoint> ParseCheckpoint(const std::string& path) {
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  if (file == nullptr) {
    return util::Status::NotFound("no checkpoint at " + path);
  }
  std::fseek(file.get(), 0, SEEK_END);
  const long size = std::ftell(file.get());
  std::rewind(file.get());
  Reader reader(file.get(), size > 0 ? uint64_t(size) : 0);
  const auto truncated = [&path](const std::string& section) {
    return util::Status::IoError(path + ": truncated in " + section);
  };
  char magic[8];
  uint32_t version = 0, num_layers = 0;
  if (!reader.Read(magic, sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return util::Status::InvalidArgument(path + " is not a checkpoint");
  }
  if (!reader.Read(&version, sizeof(version)) || version < kMinVersion ||
      version > kVersion) {
    return util::Status::InvalidArgument(
        path + ": unsupported checkpoint version " + std::to_string(version) +
        " (this build reads v" + std::to_string(kMinVersion) + "..v" +
        std::to_string(kVersion) + ")");
  }
  ParsedCheckpoint parsed;
  if (version >= 2 && !ReadProgress(&reader, &parsed.progress)) {
    return truncated("the progress block");
  }
  // v1/v2 predate self-describing optimizer state: they are Adam layers
  // ({m, v}) by construction.
  parsed.rule = "adam";
  if (version >= 3 && !ReadString(&reader, kMaxRuleNameBytes, &parsed.rule)) {
    return truncated("the rule name");
  }
  if (!reader.Read(&num_layers, sizeof(num_layers))) {
    return truncated("the header");
  }
  if (num_layers > reader.left() / kMinLayerBytes) {
    return util::Status::IoError(
        path + ": layer count " + std::to_string(num_layers) +
        " exceeds the " + std::to_string(reader.left()) +
        " bytes left in the file");
  }
  parsed.layers.resize(num_layers);
  for (uint32_t l = 0; l < num_layers; ++l) {
    const std::string layer_name = "layer " + std::to_string(l);
    LockFreeUpdater::LayerState& state = parsed.layers[l];
    uint64_t count = 0;
    int64_t step = 0;
    uint32_t num_slots = 0;
    if (!reader.Read(&count, sizeof(count)) ||
        !reader.Read(&step, sizeof(step)) ||
        (version >= 3 && (!reader.Read(&num_slots, sizeof(num_slots)) ||
                          num_slots > kMaxSlots))) {
      return truncated(layer_name + " header");
    }
    state.step = long(step);
    ANGEL_RETURN_IF_ERROR(
        ReadFloats(&reader, count, path, layer_name + " p32", &state.params));
    if (version < 3) {
      // v1/v2 fixed layer layout: count | (adam_)step | p32 | m32 | v32.
      state.slots = {{"m", {}}, {"v", {}}};
      for (LockFreeUpdater::LayerState::Slot& slot : state.slots) {
        ANGEL_RETURN_IF_ERROR(ReadFloats(&reader, count, path,
                                         layer_name + " " + slot.name,
                                         &slot.values));
      }
      continue;
    }
    state.slots.resize(num_slots);
    for (uint32_t s = 0; s < num_slots; ++s) {
      const std::string slot_name = layer_name + " slot " + std::to_string(s);
      uint64_t slot_count = 0;
      if (!ReadString(&reader, kMaxRuleNameBytes, &state.slots[s].name) ||
          !reader.Read(&slot_count, sizeof(slot_count))) {
        return truncated(slot_name);
      }
      ANGEL_RETURN_IF_ERROR(ReadFloats(&reader, slot_count, path, slot_name,
                                       &state.slots[s].values));
    }
  }
  if (!reader.VerifyChecksum()) {
    return util::Status::IoError(
        path + ": checksum mismatch (corrupt or torn checkpoint)");
  }
  return parsed;
}

util::Status LoadCheckpoint(LockFreeUpdater* updater, const std::string& path,
                            TrainProgress* progress) {
  if (updater == nullptr) return util::Status::InvalidArgument("null updater");
  if (updater->running()) {
    return util::Status::FailedPrecondition(
        "Stop() the updater before restoring");
  }
  if (progress != nullptr) *progress = TrainProgress();
  // Everything is read and verified before the updater is touched, so a
  // corrupt file cannot leave it half-restored.
  ANGEL_ASSIGN_OR_RETURN(const ParsedCheckpoint parsed, ParseCheckpoint(path));
  if (parsed.rule != updater->optimizer_rule()) {
    return util::Status::InvalidArgument(
        path + " holds optimizer rule '" + parsed.rule +
        "' but the updater is configured for '" + updater->optimizer_rule() +
        "'");
  }
  if (int(parsed.layers.size()) != updater->num_layers()) {
    return util::Status::InvalidArgument(
        path + " has " + std::to_string(parsed.layers.size()) +
        " layers, model has " + std::to_string(updater->num_layers()));
  }
  for (size_t l = 0; l < parsed.layers.size(); ++l) {
    ANGEL_RETURN_IF_ERROR(updater->ImportLayerState(int(l), parsed.layers[l]));
  }
  if (progress != nullptr) *progress = parsed.progress;
  return util::Status::OK();
}

std::string CheckpointFiles::PathForStep(int64_t step) const {
  char digits[32];
  std::snprintf(digits, sizeof(digits), "%09lld",
                static_cast<long long>(step));
  return dir + "/" + stem + "-" + digits + ".ckpt";
}

int64_t CheckpointFiles::StepOf(const std::string& file_name) const {
  const size_t first = stem.size() + 1;
  if (file_name.compare(0, first, stem + "-") != 0) return -1;
  int64_t step = 0;
  // At most 18 digits, so the value cannot overflow.
  for (size_t i = first; i < file_name.size() && i < first + 18 &&
                         file_name[i] >= '0' && file_name[i] <= '9';
       ++i) {
    step = step * 10 + (file_name[i] - '0');
  }
  return dir + "/" + file_name == PathForStep(step) ? step : -1;
}

std::vector<int64_t> CheckpointFiles::Steps() const {
  std::vector<int64_t> steps;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const int64_t step = StepOf(entry.path().filename().string());
    if (step >= 0) steps.push_back(step);
  }
  std::sort(steps.begin(), steps.end());
  return steps;
}

uint64_t CheckpointFiles::Rotate(int keep_last) const {
  if (keep_last < 1) return 0;
  const std::vector<int64_t> steps = Steps();
  uint64_t failures = 0;
  for (size_t i = 0; i + size_t(keep_last) < steps.size(); ++i) {
    const std::string path = PathForStep(steps[i]);
    std::error_code ec;
    if (!std::filesystem::remove(path, ec) || ec) {
      ANGEL_LOG(Warning) << "checkpoint rotation could not delete " << path
                         << ": " << ec.message();
      failures += 1;
    }
  }
  return failures;
}

}  // namespace angelptm::core
