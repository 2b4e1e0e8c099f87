// Executor parity for the shared map/shuffle/reduce pipeline (pipeline.h):
// the threaded-morsel and forked-worker executors run one strategy's map
// contract, so with whole-segment morsels and no memory budget they must
// agree on the outputs and on every map-side counter, and the forked
// parent's in-process fallback must count what it maps.
#include "runtime/process_engine.h"

#include <cstdlib>
#include <gtest/gtest.h>

#include "queries/all_queries.h"
#include "runtime/engine.h"
#include "workloads/github_gen.h"

namespace symple {
namespace {

// Sets SYMPLE_FAULT_SPEC for one test body; restores on scope exit.
class FaultGuard {
 public:
  explicit FaultGuard(const char* spec) { ::setenv("SYMPLE_FAULT_SPEC", spec, 1); }
  ~FaultGuard() { ::unsetenv("SYMPLE_FAULT_SPEC"); }
};

Dataset ParityGithub() {
  GithubGenParams p;
  p.num_records = 5000;
  p.num_segments = 5;
  p.num_repos = 80;
  p.filler_bytes = 8;
  return GenerateGithubLog(p);
}

// Whole-segment morsels (no segment holds more records than the input) and
// no budget: the threaded executor then maps exactly the chunks a forked
// worker maps, so both emit the same packets.
EngineOptions WholeSegmentOptions(const Dataset& data, bool force_degrade) {
  EngineOptions options;
  options.map_slots = 3;
  options.morsel_records = data.TotalRecords();
  options.budgets.force_degrade = force_degrade;
  return options;
}

template <typename Query>
void ExpectExecutorParity(const RunResult<Query>& threaded,
                          const RunResult<Query>& forked) {
  EXPECT_TRUE(forked.outputs == threaded.outputs);
  EXPECT_GT(threaded.stats.parsed_records, 0u);
  EXPECT_EQ(forked.stats.parsed_records, threaded.stats.parsed_records);
  EXPECT_EQ(forked.stats.summaries, threaded.stats.summaries);
  EXPECT_EQ(forked.stats.shuffle_bytes, threaded.stats.shuffle_bytes);
  EXPECT_EQ(forked.stats.degraded_segments, threaded.stats.degraded_segments);
  EXPECT_GT(forked.stats.map_cpu_ms, 0.0);
}

TEST(ExecutorParity, SympleThreadedAndForkedAgree) {
  const Dataset data = ParityGithub();
  const auto seq = RunSequential<G3PullWindowOps>(data);
  for (const bool force_degrade : {false, true}) {
    SCOPED_TRACE(force_degrade ? "force_degrade" : "symbolic");
    const EngineOptions options = WholeSegmentOptions(data, force_degrade);
    const auto threaded = RunSymple<G3PullWindowOps>(data, options);
    const auto forked = RunSympleForked<G3PullWindowOps>(data, options);
    EXPECT_TRUE(threaded.outputs == seq.outputs);
    ExpectExecutorParity(threaded, forked);
    if (force_degrade) {
      EXPECT_GT(threaded.stats.degraded_segments, 0u);
    } else {
      EXPECT_GT(threaded.stats.summaries, 0u);
      EXPECT_EQ(forked.stats.summary_paths, threaded.stats.summary_paths);
    }
  }
}

TEST(ExecutorParity, BaselineThreadedAndForkedAgree) {
  const Dataset data = ParityGithub();
  const auto seq = RunSequential<G3PullWindowOps>(data);
  for (const bool force_degrade : {false, true}) {
    SCOPED_TRACE(force_degrade ? "force_degrade" : "plain");
    const EngineOptions options = WholeSegmentOptions(data, force_degrade);
    const auto threaded = RunBaselineMapReduce<G3PullWindowOps>(data, options);
    const auto forked = RunBaselineForked<G3PullWindowOps>(data, options);
    EXPECT_TRUE(threaded.outputs == seq.outputs);
    ExpectExecutorParity(threaded, forked);
  }
}

// Every worker crashes before its first frame and no respawn is allowed, so
// every segment runs in the parent's in-process fallback — which must still
// account each parsed record exactly once.
TEST(ExecutorParity, FallbackCountsEveryParsedRecord) {
  const Dataset data = ParityGithub();
  const auto seq = RunSequential<G3PullWindowOps>(data);
  ASSERT_GT(seq.stats.parsed_records, 0u);
  FaultGuard fault("crash:worker=*:frame=0");
  EngineOptions options;
  options.map_slots = 2;
  options.worker_retry_limit = 0;
  options.worker_retry_backoff_ms = 1;
  const auto sym = RunSympleForked<G3PullWindowOps>(data, options);
  const auto mr = RunBaselineForked<G3PullWindowOps>(data, options);
  EXPECT_TRUE(sym.outputs == seq.outputs);
  EXPECT_TRUE(mr.outputs == seq.outputs);
  EXPECT_EQ(sym.stats.fallback_segments, data.segments.size());
  EXPECT_EQ(mr.stats.fallback_segments, data.segments.size());
  EXPECT_EQ(sym.stats.parsed_records, seq.stats.parsed_records);
  EXPECT_EQ(mr.stats.parsed_records, seq.stats.parsed_records);
}

}  // namespace
}  // namespace symple
