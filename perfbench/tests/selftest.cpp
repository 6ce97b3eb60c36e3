// Tests of the benchmark's own bookkeeping: order statistics and the
// supported-percentile rule, span self time, and the window checks.
#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>

#include "check/digest.hpp"
#include "checks.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using alphawan::LossCause;
using alphawan::MetricsCollector;
using alphawan::PacketFate;
using alphawan::WindowResult;

TEST(Stats, PercentileInterpolatesBetweenSortedSamples) {
  EXPECT_DOUBLE_EQ(percentile({4.0, 1.0, 3.0, 2.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({4.0, 1.0, 3.0, 2.0}, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile({4.0, 1.0, 3.0, 2.0}, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile({10.0, 20.0}, 25.0), 12.5);
  EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
}

TEST(Stats, PercentileRejectsEmptySamplesAndBadRanks) {
  EXPECT_THROW((void)percentile({}, 50.0), std::invalid_argument);
  EXPECT_THROW((void)percentile({1.0}, -1.0), std::invalid_argument);
  EXPECT_THROW((void)percentile({1.0}, 100.5), std::invalid_argument);
}

TEST(Stats, TailPercentileNeedsTenSamplesBeyondIt) {
  EXPECT_EQ(highest_supported_percentile(0), 0.0);
  EXPECT_EQ(highest_supported_percentile(19), 0.0);
  EXPECT_EQ(highest_supported_percentile(20), 50.0);
  EXPECT_EQ(highest_supported_percentile(99), 50.0);
  EXPECT_EQ(highest_supported_percentile(100), 90.0);
  EXPECT_EQ(highest_supported_percentile(999), 90.0);
  EXPECT_EQ(highest_supported_percentile(1000), 99.0);
  EXPECT_EQ(highest_supported_percentile(10000), 99.9);
}

TEST(Stats, SummaryStatesCountMedianMaxAndSupportedTail) {
  std::vector<double> samples;
  for (int i = 1; i <= 100; ++i) samples.push_back(i);
  const Summary s = summarize(samples);
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.p50, 50.5);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_EQ(s.tail_percentile, 90.0);
  EXPECT_DOUBLE_EQ(s.tail_value, 90.1);

  const Summary few = summarize({5.0, 1.0, 3.0});
  EXPECT_EQ(few.count, 3u);
  EXPECT_DOUBLE_EQ(few.p50, 3.0);
  EXPECT_EQ(few.tail_percentile, 0.0);
  EXPECT_EQ(summarize({}).count, 0u);
}

Span span(const char* name, int parent, double start, double end,
          std::uint64_t op = 1) {
  Span s;
  s.name = name;
  s.op = op;
  s.parent = parent;
  s.start_ms = start;
  s.end_ms = end;
  return s;
}

TEST(Trace, SelfTimeSubtractsDirectChildrenOnly) {
  Tracer tracer(true);
  const int root = tracer.add(span("op", -1, 0.0, 10.0));
  const int child = tracer.add(span("a", root, 1.0, 4.0));
  tracer.add(span("a.inner", child, 2.0, 3.0));
  tracer.add(span("b", root, 5.0, 9.0));
  const auto self = tracer.self_ms();
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 3.0 - 4.0);
  EXPECT_DOUBLE_EQ(self[1], 3.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[2], 1.0);
  EXPECT_DOUBLE_EQ(self[3], 4.0);
}

TEST(Trace, OverlappingChildrenCountOnceAndClipToTheParent) {
  Tracer tracer(true);
  const int root = tracer.add(span("op", -1, 0.0, 10.0));
  tracer.add(span("x", root, 2.0, 6.0));
  tracer.add(span("y", root, 4.0, 8.0));    // overlaps x by 2 ms
  tracer.add(span("z", root, 9.0, 12.0));   // runs past the parent's end
  EXPECT_DOUBLE_EQ(tracer.self_ms()[0], 10.0 - 6.0 - 1.0);
}

TEST(Trace, ScopesNestUnderTheInnermostOpenSpanUnlessRoot) {
  Tracer tracer(true);
  {
    const Tracer::Scope op(tracer, "op", 7);
    {
      const Tracer::Scope child(tracer, "child", 7);
      const Tracer::Scope replay(tracer, "replay", 7, /*root=*/true);
    }
  }
  const auto& spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, -1);
  for (const Span& s : spans) {
    EXPECT_EQ(s.op, 7u);
    EXPECT_GE(s.end_ms, s.start_ms);
  }
  EXPECT_GE(tracer.self_ms()[0], 0.0);
}

TEST(Trace, DisabledOrPausedTracerRecordsNothing) {
  Tracer off(false);
  { const Tracer::Scope s(off, "op", 1); }
  EXPECT_TRUE(off.spans().empty());
  off.set_recording(true);
  EXPECT_FALSE(off.recording());

  Tracer on(true);
  on.set_recording(false);
  { const Tracer::Scope s(on, "op", 1); }
  EXPECT_TRUE(on.spans().empty());
  on.set_recording(true);
  { const Tracer::Scope s(on, "op", 1); }
  EXPECT_EQ(on.spans().size(), 1u);
}

TEST(Trace, TotalsGroupByOperation) {
  Tracer tracer(true);
  tracer.add(span("radio", -1, 0.0, 2.0, 1));
  tracer.add(span("radio", -1, 3.0, 4.5, 1));
  tracer.add(span("radio", -1, 0.0, 1.0, 2));
  tracer.add(span("net", -1, 0.0, 9.0, 1));
  const auto totals = tracer.total_by_op("radio");
  ASSERT_EQ(totals.size(), 2u);
  EXPECT_DOUBLE_EQ(totals.at(1), 3.5);
  EXPECT_DOUBLE_EQ(totals.at(2), 1.0);
}

PacketFate fate(alphawan::PacketId id, LossCause cause) {
  PacketFate f;
  f.packet = id;
  f.node = static_cast<alphawan::NodeId>(id);
  f.delivered = cause == LossCause::kDelivered;
  f.cause = cause;
  return f;
}

// A window result plus collector holding the given fates, all network 0.
void fill(const std::vector<PacketFate>& fates, WindowResult& result,
          MetricsCollector& metrics) {
  result.fates = fates;
  std::size_t delivered = 0;
  for (const PacketFate& f : fates) {
    metrics.record(f);
    delivered += f.delivered ? 1 : 0;
  }
  result.offered[0] = fates.size();
  result.delivered[0] = delivered;
}

TEST(Checks, ConservingWindowPasses) {
  WindowResult result;
  MetricsCollector metrics;
  fill({fate(1, LossCause::kDelivered), fate(2, LossCause::kOther),
        fate(3, LossCause::kDecoderContentionInter),
        fate(4, LossCause::kChannelContentionIntra)},
       result, metrics);
  EXPECT_EQ(check_conservation(4, result, metrics), "");
}

TEST(Checks, MissingFateIsReported) {
  WindowResult result;
  MetricsCollector metrics;
  fill({fate(1, LossCause::kDelivered), fate(2, LossCause::kOther)}, result,
       metrics);
  EXPECT_NE(check_conservation(3, result, metrics), "");
}

TEST(Checks, DeliveredCountsMustAgreeBetweenRunnerAndCollector) {
  WindowResult result;
  MetricsCollector metrics;
  fill({fate(1, LossCause::kDelivered), fate(2, LossCause::kOther)}, result,
       metrics);
  result.delivered[0] = 2;
  EXPECT_NE(check_conservation(2, result, metrics), "");
}

TEST(Checks, DigestMismatchesCompareOnlySharedWindows) {
  const DigestMap stored = {{"window-1", 1}, {"window-2", 2}};
  const DigestMap fresh = {{"window-2", 3}, {"window-3", 4}};
  const auto diffs = digest_mismatches(stored, fresh);
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_NE(diffs[0].find("window-2"), std::string::npos);
  EXPECT_TRUE(digest_mismatches(stored, stored).empty());
}

TEST(Checks, DigestFilesRoundTrip) {
  const std::string path = testing::TempDir() + "perfbench_digests.txt";
  const DigestMap digests = {{"campaign-0", 0xDEADBEEFCAFEF00DULL},
                             {"window-1", 42}};
  ASSERT_TRUE(write_digests(path, digests));
  EXPECT_EQ(read_digests(path), digests);
  EXPECT_TRUE(read_digests(path + ".absent").empty());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace perfbench
