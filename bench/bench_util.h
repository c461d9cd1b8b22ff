#ifndef ANGELPTM_BENCH_BENCH_UTIL_H_
#define ANGELPTM_BENCH_BENCH_UTIL_H_

#include <iostream>
#include <sstream>
#include <string>

#include "sim/hardware.h"
#include "train/trainer.h"

namespace angelptm::bench {

/// Prints the standard bench header: what is being reproduced and on which
/// (simulated) hardware — the Table 3 environment.
inline void PrintHeader(const std::string& title, const std::string& paper_ref,
                        const sim::HardwareConfig& hw = sim::PaperServer()) {
  std::cout << "==============================================================="
               "=\n"
            << title << "\n"
            << "Reproduces: " << paper_ref << "\n"
            << "Simulated environment (paper Table 3): "
            << sim::DescribeHardware(hw) << "\n"
            << "==============================================================="
               "=\n\n";
}

/// JSON for a TrainReport's nested telemetry snapshot: phase timing
/// histograms, updater counters + staleness, per-tier memory usage, and the
/// SSD / copy-engine stats when those subsystems were active.
inline std::string TelemetryJson(const train::TelemetrySnapshot& t) {
  std::ostringstream out;
  out << "{\"gen_us\":" << t.gen_us.ToJson()
      << ",\"fwd_us\":" << t.fwd_us.ToJson()
      << ",\"bwd_us\":" << t.bwd_us.ToJson()
      << ",\"opt_us\":" << t.opt_us.ToJson()
      << ",\"max_pending_batches\":" << t.max_pending_batches
      << ",\"updater\":{\"updates_applied\":" << t.updater.updates_applied
      << ",\"grad_batches_offloaded\":" << t.updater.grad_batches_offloaded
      << ",\"grad_batches_applied\":" << t.updater.grad_batches_applied
      << ",\"pending_grad_batches\":" << t.updater.pending_grad_batches
      << ",\"staleness\":" << t.updater.staleness.ToJson() << "}";
  out << ",\"memory\":{\"live_pages\":" << t.memory.live_pages
      << ",\"fragmented_bytes\":" << t.memory.fragmented_bytes;
  static constexpr const char* kTierNames[] = {"gpu", "cpu", "ssd"};
  for (const mem::DeviceKind kind :
       {mem::DeviceKind::kGpu, mem::DeviceKind::kCpu, mem::DeviceKind::kSsd}) {
    const mem::TierUsage& tier = t.memory.tier(kind);
    out << ",\"" << kTierNames[static_cast<int>(kind)]
        << "\":{\"used_bytes\":" << tier.used_bytes
        << ",\"capacity_bytes\":" << tier.capacity_bytes
        << ",\"pages\":" << tier.pages << "}";
  }
  out << "}";
  if (t.has_ssd) {
    out << ",\"ssd\":{\"bytes_read\":" << t.ssd.bytes_read
        << ",\"bytes_written\":" << t.ssd.bytes_written
        << ",\"io_retries\":" << t.ssd.io_retries << "}";
  }
  if (t.has_copy_engine) {
    out << ",\"copy\":{\"moves_completed\":" << t.copy.moves_completed
        << ",\"moves_failed\":" << t.copy.moves_failed
        << ",\"queue_depth\":" << t.copy.queue_depth << "}";
  }
  out << "}";
  return out.str();
}

}  // namespace angelptm::bench

#endif  // ANGELPTM_BENCH_BENCH_UTIL_H_
