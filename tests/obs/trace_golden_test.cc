// Golden end-to-end trace test (ISSUE acceptance): a real training run with
// ANGELPTM_TRACE set must produce a Chrome trace_event JSON file whose
// events are balanced begin/end pairs per thread and cover at least four
// instrumented subsystems.

#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/trace.h"
#include "train/engine_trainer.h"
#include "train/mlp.h"

namespace angelptm::obs {
namespace {

struct TraceEvent {
  char ph = 0;
  int tid = -1;
  std::string cat;
};

/// Parses the one-event-per-line format the exporter writes. Fails the test
/// on any line that looks like an event but does not carry the expected
/// fields.
std::vector<TraceEvent> ParseEvents(const std::string& json) {
  std::vector<TraceEvent> events;
  std::istringstream lines(json);
  std::string line;
  while (std::getline(lines, line)) {
    const size_t ph_pos = line.find("\"ph\":\"");
    if (ph_pos == std::string::npos) continue;
    TraceEvent event;
    event.ph = line[ph_pos + 6];
    const size_t tid_pos = line.find("\"tid\":");
    EXPECT_NE(tid_pos, std::string::npos) << line;
    event.tid = std::atoi(line.c_str() + tid_pos + 6);
    const size_t cat_pos = line.find("\"cat\":\"");
    EXPECT_NE(cat_pos, std::string::npos) << line;
    const size_t cat_end = line.find('"', cat_pos + 7);
    event.cat = line.substr(cat_pos + 7, cat_end - cat_pos - 7);
    events.push_back(event);
  }
  return events;
}

TEST(TraceGoldenTest, TrainingRunEmitsBalancedMultiSubsystemTrace) {
  const std::string path = "/tmp/angelptm_trace_golden_" +
                           std::to_string(::getpid()) + ".json";
  // The production enablement path: the environment variable, picked up by
  // InitTracingFromEnv (at process init in a fresh binary; re-invoked here
  // because the variable is set after init).
  ASSERT_EQ(::setenv("ANGELPTM_TRACE", path.c_str(), 1), 0);
  ASSERT_TRUE(InitTracingFromEnv());
  ASSERT_TRUE(TracingEnabled());

  {
    // Lock-free training with fp32 masters on the file-backed SSD tier:
    // touches the trainer, the engine, the updater, the SSD tier, and the
    // paging layers in one small run.
    const train::MlpModel model({{16, 32, 4}});
    train::EngineTrainerOptions options;
    options.engine.memory.page_bytes = 16 * 1024;
    options.engine.memory.gpu_capacity_bytes = 8 * 16 * 1024;
    options.engine.memory.cpu_capacity_bytes = 32ull << 20;
    options.engine.memory.ssd_capacity_bytes = 128 * 16 * 1024;
    options.engine.memory.ssd_path = "/tmp/angelptm_trace_golden_ssd_" +
                                     std::to_string(::getpid()) + ".bin";
    options.engine.optimizer.learning_rate = 3e-3;
    options.engine.lock_free = true;
    options.engine.master_device = mem::DeviceKind::kSsd;
    options.batch_size = 16;
    options.seed = 7;
    train::EngineTrainer trainer(&model, options);
    ASSERT_TRUE(trainer.Init().ok());
    train::SyntheticRegression dataset(16, 16, 4, 99);
    auto report = trainer.Train(dataset, 10);
    ASSERT_TRUE(report.ok()) << report.status();
    // The structured report saw the same subsystems the trace did.
    EXPECT_GT(report->telemetry.updater.updates_applied, 0u);
    EXPECT_TRUE(report->telemetry.has_ssd);
    EXPECT_GT(report->telemetry.ssd.bytes_written, 0u);
    EXPECT_GT(report->telemetry.fwd_us.count, 0u);
  }

  ASSERT_TRUE(StopTracing().ok());
  ASSERT_EQ(::unsetenv("ANGELPTM_TRACE"), 0);

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();

  // Structural validity: the envelope is present and every brace/bracket
  // closes (the exporter never puts braces inside strings).
  EXPECT_EQ(json.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(json.find("\"otherData\":{\"dropped_spans\":"),
            std::string::npos);
  long braces = 0, brackets = 0;
  for (const char c : json) {
    braces += (c == '{') - (c == '}');
    brackets += (c == '[') - (c == ']');
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);

  const std::vector<TraceEvent> events = ParseEvents(json);
  ASSERT_GT(events.size(), 0u);

  // Balanced, properly nested B/E pairs per thread.
  std::map<int, int> depth;
  std::set<std::string> categories;
  for (const TraceEvent& event : events) {
    ASSERT_TRUE(event.ph == 'B' || event.ph == 'E') << event.ph;
    ASSERT_GE(event.tid, 0);
    if (event.ph == 'B') {
      depth[event.tid] += 1;
      categories.insert(event.cat);
    } else {
      depth[event.tid] -= 1;
      ASSERT_GE(depth[event.tid], 0) << "unbalanced E on tid " << event.tid;
    }
  }
  for (const auto& [tid, d] : depth) {
    EXPECT_EQ(d, 0) << "unclosed spans on tid " << tid;
  }

  // Spans from at least four instrumented subsystems (the acceptance
  // criterion), with the core ones named explicitly.
  EXPECT_GE(categories.size(), 4u);
  EXPECT_TRUE(categories.count("train")) << "missing train spans";
  EXPECT_TRUE(categories.count("engine")) << "missing engine spans";
  EXPECT_TRUE(categories.count("updater")) << "missing updater spans";
  EXPECT_TRUE(categories.count("ssd")) << "missing ssd spans";

  ::unlink(path.c_str());
}

}  // namespace
}  // namespace angelptm::obs
