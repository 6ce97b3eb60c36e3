// Pins the bench harness helpers the reproduction figures lean on — in
// particular that max_concurrent_users returns the USER COUNT of the
// largest passing burst, not the burst's delivered-packet count (its
// doc-comment once described the pre-parallelism return value) — and that
// the perf telemetry JSON is only written where ALPHAWAN_BENCH_JSON points.
#include "bench/harness.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

namespace alphawan {
namespace {

// One gateway with a small decoder pool and orthogonal users: a staggered
// burst delivers exactly min(N, decoders) packets, making the
// count-vs-delivered distinction observable.
struct HarnessFixture {
  Deployment deployment{Region{Meters{800.0}, Meters{800.0}}, spectrum_1m6(),
                        bench::quiet_channel()};
  Network* network = nullptr;
  PacketIdSource ids;
  Rng rng{2024};
  std::vector<EndNode*> nodes;

  explicit HarnessFixture(int decoders, int users) {
    network = &deployment.add_network("op");
    GatewayProfile profile = default_profile();
    profile.decoders = decoders;
    bench::place_clustered_gateways(deployment, *network, 1, profile);
    nodes = bench::add_orthogonal_users(deployment, *network, users, rng);
  }
};

TEST(BenchHarness, MaxConcurrentUsersHitsTheDecoderCeiling) {
  HarnessFixture f(/*decoders=*/4, /*users=*/8);
  EXPECT_EQ(bench::max_concurrent_users(f.deployment, f.nodes, f.ids), 4u);
}

TEST(BenchHarness, MaxConcurrentUsersReturnsUserCountNotDelivered) {
  HarnessFixture f(/*decoders=*/4, /*users=*/8);
  // With a 0.5 threshold the 8-user burst passes while delivering only 4
  // packets (the decoder ceiling). The metric must report the burst's user
  // count, 8 — if it reported delivered packets it would say 4.
  EXPECT_EQ(bench::max_concurrent_users(f.deployment, f.nodes, f.ids,
                                        /*threshold=*/0.5),
            8u);
}

TEST(BenchHarness, MaxConcurrentUsersIsBoundedByOfferedUsers) {
  HarnessFixture f(/*decoders=*/16, /*users=*/6);
  // Plenty of decoders: every burst passes and the metric saturates at the
  // population size.
  EXPECT_EQ(bench::max_concurrent_users(f.deployment, f.nodes, f.ids), 6u);
}

// Runs one scope inside a fresh empty working directory with
// ALPHAWAN_BENCH_JSON pointing at `file_name` there (nullptr: unset),
// restoring both after.
class BenchJsonScope {
 public:
  explicit BenchJsonScope(const char* file_name)
      : previous_cwd_(std::filesystem::current_path()) {
    if (const char* env = std::getenv("ALPHAWAN_BENCH_JSON")) previous_ = env;
    std::string pattern =
        (std::filesystem::temp_directory_path() / "bench_json_XXXXXX")
            .string();
    dir_ = mkdtemp(pattern.data());
    std::filesystem::current_path(dir_);
    if (file_name != nullptr) {
      setenv("ALPHAWAN_BENCH_JSON", (dir_ / file_name).c_str(), 1);
    } else {
      unsetenv("ALPHAWAN_BENCH_JSON");
    }
  }
  ~BenchJsonScope() {
    if (previous_) {
      setenv("ALPHAWAN_BENCH_JSON", previous_->c_str(), 1);
    } else {
      unsetenv("ALPHAWAN_BENCH_JSON");
    }
    std::filesystem::current_path(previous_cwd_);
    std::filesystem::remove_all(dir_);
  }
  [[nodiscard]] const std::filesystem::path& dir() const { return dir_; }

 private:
  std::filesystem::path previous_cwd_;
  std::optional<std::string> previous_;
  std::filesystem::path dir_;
};

TEST(BenchHarness, TelemetryWritesNothingWithoutTheEnvVariable) {
  const BenchJsonScope scope(nullptr);
  EXPECT_EQ(bench::PerfRecorder::output_path(), "");
  {
    bench::PerfRecorder recorder;
    recorder.record("fig13.window", 100.0, 0.5, 1);
  }
  // No BENCH_PR<N>.json (or anything else) lands in the working directory.
  EXPECT_TRUE(std::filesystem::is_empty(scope.dir()));
}

TEST(BenchHarness, TelemetryWritesWhereTheEnvVariablePoints) {
  const BenchJsonScope scope("out.json");
  const std::string path = (scope.dir() / "out.json").string();
  EXPECT_EQ(bench::PerfRecorder::output_path(), path);
  {
    bench::PerfRecorder recorder;
    recorder.record("fig13.window", 100.0, 0.5, 1);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream json;
  json << in.rdbuf();
  EXPECT_NE(json.str().find("\"name\": \"fig13.window\""),
            std::string::npos);
}

}  // namespace
}  // namespace alphawan
