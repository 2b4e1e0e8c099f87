// perfbench: one workload through all five engines, every output checked,
// one JSON result line.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//
// A run generates the workload's input from --seed, computes the expected
// answer with an independent oracle (oracle.h), warms every engine up once,
// then repeats whole rounds of the five public entry points (RunSequential,
// RunSymple, RunBaselineMapReduce, RunSympleForked, RunBaselineForked) until
// --seconds have passed. The engines are interleaved within each round, and
// the round's starting engine rotates, so drift on a shared machine hits all
// five alike. Every call's output and stats are checked (CheckCall).
//
// --trace 0 prints the end-to-end metrics, each a median over the rounds of
// untraced calls. --trace 1 instead times the single-thread layers
// (layers.h), runs rounds with an obs::RunObserver + obs::Tracer attached
// (plus an untraced call beside each for the tracing overhead), prints the
// per-layer metrics and writes them, with a Chrome trace, under
// DIR/<workload>/.
//
// The last line of standard output is always the JSON result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// `attempted` counts engine calls, `failed` the calls that threw. A call
// whose output or stats fail a check makes `correct` false.
#include <dirent.h>
#include <malloc.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "layers.h"
#include "obs/json.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "oracle.h"
#include "queries/github_queries.h"
#include "queries/redshift_queries.h"
#include "queries/twitter_queries.h"
#include "runtime/engine.h"
#include "runtime/process_engine.h"
#include "util.h"
#include "workloads/github_gen.h"
#include "workloads/redshift_gen.h"
#include "workloads/twitter_gen.h"

namespace perfbench {
namespace {

// Taken during static initialization, before main: set-up time counts from
// the process's start.
const Clock::time_point kProcessStart = Clock::now();

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  std::string out_dir = ".bench_out";
};

// --- Workloads ------------------------------------------------------------------
//
// Sizes are chosen so that each engine call takes tens of milliseconds or
// more, which keeps timer and scheduler jitter small against it. README.md
// gives the make-up of each input and why the workload is here.

constexpr size_t kSegments = 16;

symple::Dataset RedshiftScanInput(uint64_t seed) {
  symple::RedshiftGenParams p;
  p.seed = seed;
  p.num_records = 200000;  // ~700 B rows: 16 filler columns of 40 bytes
  p.num_segments = kSegments;
  p.num_advertisers = 50;
  return symple::GenerateRedshiftLog(p);
}

symple::Dataset GithubInput(uint64_t seed) {
  symple::GithubGenParams p;
  p.seed = seed;
  p.num_records = 200000;
  p.num_segments = kSegments;
  p.num_repos = 8000;
  p.filler_bytes = 512;
  return symple::GenerateGithubLog(p);
}

symple::Dataset TwitterSymbolicInput(uint64_t seed) {
  symple::TwitterGenParams p;
  p.seed = seed;
  p.num_records = 150000;
  p.num_segments = kSegments;
  p.num_hashtags = 20000;
  p.filler_bytes = 16;
  return symple::GenerateTwitterLog(p);
}

// github-spill's budget: well below the in-memory peak of every engine on
// the github input (README.md), so the threaded engines spill every call.
constexpr uint64_t kGithubSpillBudget = 256u << 10;

// --- Engines --------------------------------------------------------------------

enum Engine {
  kSequential,
  kSymple,
  kMapReduce,
  kSympleForked,
  kMapReduceForked,
  kEngines
};
constexpr const char* kEngineNames[kEngines] = {"sequential", "symple", "mapreduce",
                                                "symple_forked", "mapreduce_forked"};
constexpr const char* kEntryPoints[kEngines] = {"RunSequential", "RunSymple",
                                                "RunBaselineMapReduce", "RunSympleForked",
                                                "RunBaselineForked"};

// The forked engines do not fill EngineStats::parsed_records (CHANGES.md).
bool ReportsParsedRecords(int e) {
  return e == kSequential || e == kSymple || e == kMapReduce;
}
bool Threaded(int e) { return e == kSymple || e == kMapReduce; }

template <typename Query>
symple::RunResult<Query> RunEngine(int e, const symple::Dataset& data,
                                   const symple::EngineOptions& options) {
  switch (e) {
    case kSequential:
      return symple::RunSequential<Query>(data, options);
    case kSymple:
      return symple::RunSymple<Query>(data, options);
    case kMapReduce:
      return symple::RunBaselineMapReduce<Query>(data, options);
    case kSympleForked:
      return symple::RunSympleForked<Query>(data, options);
    default:
      return symple::RunBaselineForked<Query>(data, options);
  }
}

bool MakeDirs(const std::string& path) {
  std::string prefix;
  size_t pos = 0;
  while (pos != std::string::npos) {
    pos = path.find('/', pos + 1);
    prefix = path.substr(0, pos);
    if (!prefix.empty() && mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      return false;
    }
  }
  return true;
}

bool DirIsEmpty(const std::string& path) {
  DIR* dir = opendir(path.c_str());
  if (dir == nullptr) {
    return false;
  }
  bool empty = true;
  while (const dirent* entry = readdir(dir)) {
    if (std::strcmp(entry->d_name, ".") != 0 && std::strcmp(entry->d_name, "..") != 0) {
      empty = false;
    }
  }
  closedir(dir);
  return empty;
}

// One engine call as the benchmark measured it.
struct CallSample {
  double wall_ms = 0;    // steady_clock around the call
  double cpu_ms = 0;     // getrusage self + children delta around the call
  double start_us = 0;   // tracer clock at the call, when traced
  symple::EngineStats stats;
};

template <typename Query, typename Oracle>
class WorkloadBench {
 public:
  using Key = typename Query::Key;
  using Output = typename Query::Output;

  WorkloadBench(const Args& args, symple::Dataset (*generate)(uint64_t),
                uint64_t memory_budget)
      : args_(args), memory_budget_(memory_budget) {
    const auto g0 = Clock::now();
    data_ = generate(args.seed);
    generate_ms_ = MsSince(g0);
    for (const std::string& seg : data_.segments) {
      input_bytes_ += seg.size();
    }
    input_mb_ = static_cast<double>(input_bytes_) / 1e6;
    oracle_ = ComputeOracle<Oracle>(data_.segments, &expected_);
    // Hand the generator's freed line buffers back to the OS: the forked
    // engines' fork() copies the page tables of everything resident, and the
    // benchmark's own garbage should not be charged to them.
    malloc_trim(0);

    spill_dir_ = args.out_dir + "/spill-" + args.workload;
    const long cpus = sysconf(_SC_NPROCESSORS_ONLN);
    const size_t slots = static_cast<size_t>(std::clamp<long>(cpus, 1, 4));
    options_.map_slots = slots;
    options_.reduce_slots = slots;
    options_.memory_budget_bytes = memory_budget_;
    options_.spill_dir = spill_dir_;
  }

  int Run() {
    if (!MakeDirs(spill_dir_)) {
      std::fprintf(stderr, "perfbench: cannot create %s\n", spill_dir_.c_str());
      return 2;
    }
    // Warm-up: one checked round, so lazy set-up and first-touch page faults
    // are paid before timing.
    for (int e = 0; e < kEngines; ++e) {
      Call(e, options_);
    }
    const double setup_s =
        std::chrono::duration<double>(Clock::now() - kProcessStart).count();

    Metrics metrics;
    if (args_.trace == 1) {
      metrics = TracedRun();
    } else {
      metrics = TimedRun(setup_s);
    }
    rmdir(spill_dir_.c_str());
    PrintResult(metrics);
    return errors_ == 0 ? 0 : 1;
  }

 private:
  // --trace 0: whole rounds until the deadline; medians over the rounds.
  Metrics TimedRun(double setup_s) {
    std::vector<std::vector<CallSample>> samples(kEngines);
    const auto deadline = Clock::now() + std::chrono::seconds(args_.seconds);
    int round = 0;
    do {
      for (int i = 0; i < kEngines; ++i) {
        const int e = (i + round) % kEngines;
        if (auto s = Call(e, options_)) {
          samples[e].push_back(*s);
        }
      }
      ++round;
    } while (Clock::now() < deadline);

    const auto median_of = [&](int e, auto field) {
      std::vector<double> v;
      for (const CallSample& s : samples[e]) {
        v.push_back(field(s));
      }
      return Median(v);
    };
    const auto wall = [](const CallSample& s) { return s.wall_ms; };
    const auto mb_s = [&](int e) {
      const double ms = median_of(e, wall);
      return ms > 0 ? input_mb_ / (ms / 1e3) : 0;
    };
    const auto shuffle = [](const CallSample& s) {
      return static_cast<double>(s.stats.shuffle_bytes);
    };
    Metrics m;
    m.push_back({"setup_s", setup_s, "s"});
    for (int e = 0; e < kEngines; ++e) {
      m.push_back({std::string(kEngineNames[e]) + "_mb_s", mb_s(e), "MB/s"});
    }
    m.push_back({"symple_shuffle_bytes", median_of(kSymple, shuffle), "bytes"});
    m.push_back({"mapreduce_shuffle_bytes", median_of(kMapReduce, shuffle), "bytes"});
    const auto cpu = [](const CallSample& s) { return s.cpu_ms; };
    m.push_back({"symple_cpu_ms_per_mb", median_of(kSymple, cpu) / input_mb_, "ms/MB"});
    m.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
    std::fprintf(stderr, "perfbench: %s seed %llu: %d rounds over %.1f MB\n",
                 args_.workload.c_str(), static_cast<unsigned long long>(args_.seed),
                 round, input_mb_);
    if (over_budget_calls_ > 0) {
      std::fprintf(stderr,
                   "perfbench: %llu threaded calls peaked over the memory budget\n",
                   static_cast<unsigned long long>(over_budget_calls_));
    }
    for (int e = 0; e < kEngines; ++e) {
      std::vector<double> w;
      for (const CallSample& s : samples[e]) {
        w.push_back(s.wall_ms);
      }
      std::sort(w.begin(), w.end());
      if (!w.empty()) {
        std::fprintf(stderr,
                     "  %-17s wall ms min %8.2f  q1 %8.2f  median %8.2f  q3 %8.2f"
                     "  max %8.2f\n",
                     kEngineNames[e], w.front(), w[w.size() / 4], Median(w),
                     w[w.size() * 3 / 4], w.back());
      }
    }
    return m;
  }

  // --trace 1: layer timings, then traced rounds (each beside an untraced
  // call of the same engine) until the deadline, at least kMinTracedRounds.
  Metrics TracedRun() {
    static constexpr int kMinTracedRounds = 3;
    static constexpr int kLayerPasses = 3;
    const std::string dir = args_.out_dir + "/" + args_.workload;
    if (!MakeDirs(dir)) {
      std::fprintf(stderr, "perfbench: cannot create %s\n", dir.c_str());
      ++errors_;
      return {};
    }
    symple::obs::Tracer tracer;
    tracer.NameProcess(kLayerTracePid, "perfbench layers");
    Metrics m;
    m.push_back({"workloads.generate_ms", generate_ms_, "ms"});
    m.push_back({"workloads.input_mb", input_mb_, "MB"});
    m.push_back({"workloads.records", static_cast<double>(oracle_.records), "count"});
    {
      LayerBench<Query> layers(data_, expected_, &tracer);
      const std::string error = layers.Measure(kLayerPasses, &m);
      if (!error.empty()) {
        Fail("layers", error);
      }
      std::fprintf(stderr, "perfbench: layer checksum %llu\n",
                   static_cast<unsigned long long>(layers.sink()));
    }

    struct EngineLayers {
      std::vector<double> map, shuffle, reduce, unattributed, cpu;
      std::vector<double> spill_runs, spill_bytes, spill_merge, peak_tracked;
    };
    std::vector<EngineLayers> per(kEngines);
    std::vector<double> traced_total, untraced_total;
    std::vector<double> map_serial, summaries, morsels, steals, map_util, reduce_util,
        skew, queue_wait_p50, probe_len, rehashes, runs_per_record, paths_per_summary,
        summary_bytes_per_record;
    std::vector<symple::obs::RunReport> last_reports(kEngines);

    const auto deadline = Clock::now() + std::chrono::seconds(args_.seconds);
    int round = 0;
    for (; round < kMinTracedRounds || Clock::now() < deadline; ++round) {
      double traced = 0;
      double untraced = 0;
      for (int i = 0; i < kEngines; ++i) {
        const int e = (i + round) % kEngines;
        const auto plain = Call(e, options_);
        const uint32_t pid = static_cast<uint32_t>(1 + round * kEngines + e);
        tracer.NameProcess(pid, std::string(kEngineNames[e]) + " round " +
                                    std::to_string(round));
        symple::obs::RunObserver observer(kEngineNames[e], &tracer, pid);
        symple::EngineOptions opts = options_;
        opts.observer = &observer;
        const auto s = Call(e, opts, &tracer, pid);
        if (!plain || !s) {
          continue;
        }
        untraced += plain->wall_ms;
        traced += s->wall_ms;
        const symple::EngineStats& st = s->stats;
        EngineLayers& l = per[e];
        l.map.push_back(st.map_wall_ms);
        l.shuffle.push_back(st.shuffle_wall_ms);
        l.reduce.push_back(st.reduce_wall_ms);
        l.unattributed.push_back(s->wall_ms - st.map_wall_ms - st.shuffle_wall_ms -
                                 st.reduce_wall_ms);
        l.cpu.push_back(s->cpu_ms);
        l.spill_runs.push_back(static_cast<double>(st.spill_runs));
        l.spill_bytes.push_back(static_cast<double>(st.spill_bytes));
        l.spill_merge.push_back(st.spill_merge_ms);
        l.peak_tracked.push_back(static_cast<double>(st.peak_tracked_bytes));
        last_reports[e] = symple::MakeRunReport(Query::kName, kEngineNames[e], opts, st,
                                                &observer);
        if (e != kSymple) {
          continue;
        }
        const symple::obs::RunReport& report = last_reports[e];
        double first_map_us = -1;
        for (const symple::obs::TraceSpan& span : tracer.Spans()) {
          if (span.pid == pid && span.name == "map_task" &&
              (first_map_us < 0 || span.start_us < first_map_us)) {
            first_map_us = span.start_us;
          }
        }
        if (first_map_us >= 0) {
          map_serial.push_back((first_map_us - s->start_us) / 1e3);
        }
        summaries.push_back(static_cast<double>(st.summaries));
        morsels.push_back(static_cast<double>(st.map_morsels));
        steals.push_back(static_cast<double>(st.morsel_steals));
        for (const symple::obs::TimelineStage& stage : report.timeline.stages) {
          if (stage.name == "map") {
            map_util.push_back(stage.utilization);
          } else if (stage.name == "reduce") {
            reduce_util.push_back(stage.utilization);
          }
        }
        skew.push_back(st.partition_skew);
        queue_wait_p50.push_back(
            static_cast<double>(report.map_morsel_queue_wait_us.Quantile(0.5)));
        probe_len.push_back(st.group_map.AvgProbeLen());
        rehashes.push_back(static_cast<double>(st.group_map.rehashes));
        const double parsed =
            static_cast<double>(std::max<uint64_t>(st.parsed_records, 1));
        runs_per_record.push_back(static_cast<double>(st.exploration.runs) / parsed);
        paths_per_summary.push_back(
            static_cast<double>(st.summary_paths) /
            static_cast<double>(std::max<uint64_t>(st.summaries, 1)));
        summary_bytes_per_record.push_back(static_cast<double>(st.shuffle_bytes) /
                                           parsed);
      }
      traced_total.push_back(traced);
      untraced_total.push_back(untraced);
    }

    m.push_back({"core.group_map.avg_probe_len", Median(probe_len), "steps"});
    m.push_back({"core.group_map.rehashes", Median(rehashes), "count"});
    m.push_back({"core.runs_per_record", Median(runs_per_record), "runs/record"});
    m.push_back({"core.paths_per_summary", Median(paths_per_summary), "paths"});
    m.push_back({"serialize.summary_bytes_per_record", Median(summary_bytes_per_record),
                 "bytes/record"});
    for (int e = 0; e < kEngines; ++e) {
      const std::string p = std::string("runtime.") + kEngineNames[e] + ".";
      const EngineLayers& l = per[e];
      m.push_back({p + "map_wall_ms", Median(l.map), "ms"});
      m.push_back({p + "shuffle_wall_ms", Median(l.shuffle), "ms"});
      m.push_back({p + "reduce_wall_ms", Median(l.reduce), "ms"});
      m.push_back({p + "unattributed_ms", Median(l.unattributed), "ms"});
      m.push_back({p + "cpu_ms", Median(l.cpu), "ms"});
      m.push_back({p + "spill_runs", Median(l.spill_runs), "count"});
      m.push_back({p + "spill_bytes", Median(l.spill_bytes), "bytes"});
      m.push_back({p + "spill_merge_ms", Median(l.spill_merge), "ms"});
      m.push_back({p + "peak_tracked_bytes", Median(l.peak_tracked), "bytes"});
    }
    m.push_back({"runtime.symple.map_serial_ms", Median(map_serial), "ms"});
    m.push_back({"runtime.symple.summaries", Median(summaries), "count"});
    m.push_back({"runtime.symple.map_morsels", Median(morsels), "count"});
    m.push_back({"runtime.symple.morsel_steals", Median(steals), "count"});
    m.push_back({"runtime.symple.map_utilization", Median(map_util), "ratio"});
    m.push_back({"runtime.symple.reduce_utilization", Median(reduce_util), "ratio"});
    m.push_back({"runtime.symple.partition_skew", Median(skew), "ratio"});
    m.push_back({"common.morsel_queue_wait_us_p50", Median(queue_wait_p50), "us"});
    m.push_back({"runtime.threaded_over_budget_calls",
                 static_cast<double>(over_budget_calls_), "count"});
    const double untraced_ms = Median(untraced_total);
    m.push_back({"obs.tracing_overhead_pct",
                 untraced_ms > 0 ? (Median(traced_total) / untraced_ms - 1) * 100 : 0,
                 "%"});

    WriteTraceOutputs(dir, tracer, m, last_reports, round);
    return m;
  }

  void WriteTraceOutputs(const std::string& dir, const symple::obs::Tracer& tracer,
                         const Metrics& m,
                         const std::vector<symple::obs::RunReport>& reports, int rounds) {
    symple::obs::JsonWriter w;
    w.BeginObject();
    w.KV("schema", "perfbench.layers/1");
    w.KV("workload", args_.workload);
    w.KV("seed", args_.seed);
    w.KV("traced_rounds", rounds);
    w.Key("metrics").BeginObject();
    for (const Metric& metric : m) {
      w.Key(metric.name).BeginObject();
      w.Key("value").Double(metric.value);
      w.KV("unit", metric.unit);
      w.EndObject();
    }
    w.EndObject();
    w.Key("last_round_reports").BeginArray();
    for (const symple::obs::RunReport& report : reports) {
      report.AppendJson(w);
    }
    w.EndArray();
    w.EndObject();
    const std::string layers_path = dir + "/layers.json";
    std::FILE* f = std::fopen(layers_path.c_str(), "w");
    const std::string json = w.TakeString();
    const bool ok =
        f != nullptr && std::fwrite(json.data(), 1, json.size(), f) == json.size();
    if (f != nullptr && std::fclose(f) != 0) {
      Fail("output", "cannot close " + layers_path);
    }
    if (!ok) {
      Fail("output", "cannot write " + layers_path);
    }
    if (!tracer.WriteChromeTrace(dir + "/trace.json")) {
      Fail("output", "cannot write " + dir + "/trace.json");
    }
  }

  // Runs engine `e` once, timed and checked. nullopt when the call threw.
  std::optional<CallSample> Call(int e, const symple::EngineOptions& opts,
                                 symple::obs::Tracer* tracer = nullptr,
                                 uint32_t pid = 0) {
    ++attempted_;
    CallSample s;
    std::optional<symple::RunResult<Query>> result;
    try {
      const double cpu0 = ProcessCpuMs();
      const auto t0 = Clock::now();
      {
        s.start_us = tracer != nullptr ? tracer->NowUs() : 0;
        symple::obs::ScopedSpan span(tracer, std::string("perfbench.") + kEntryPoints[e],
                                     "perfbench", pid, 0);
        result.emplace(RunEngine<Query>(e, data_, opts));
      }
      s.wall_ms = MsSince(t0);
      s.cpu_ms = ProcessCpuMs() - cpu0;
    } catch (const std::exception& ex) {
      ++failed_;
      std::fprintf(stderr, "perfbench: %s threw: %s\n", kEngineNames[e], ex.what());
      return std::nullopt;
    }
    s.stats = result->stats;
    const std::string problem = CheckCall(e, *result, s.wall_ms);
    if (!problem.empty()) {
      Fail(kEngineNames[e], problem);
    }
    return s;
  }

  // Every output and the stats the checks can judge; "" when all hold.
  std::string CheckCall(int e, const symple::RunResult<Query>& r, double wall_ms) {
    if (r.outputs != expected_) {
      return DescribeMismatch(r.outputs);
    }
    if (const std::string p = oracle_.Check(r.outputs); !p.empty()) {
      return p;
    }
    const symple::EngineStats& st = r.stats;
    if (st.input_bytes != input_bytes_) {
      return "input_bytes " + std::to_string(st.input_bytes) + " != segment bytes " +
             std::to_string(input_bytes_);
    }
    if (ReportsParsedRecords(e) && st.parsed_records != oracle_.accepted) {
      return "parsed_records " + std::to_string(st.parsed_records) +
             " != records the oracle accepted " + std::to_string(oracle_.accepted);
    }
    if (st.total_wall_ms > wall_ms) {
      return "total_wall_ms " + std::to_string(st.total_wall_ms) +
             " exceeds the wall measured around the call " + std::to_string(wall_ms);
    }
    if (memory_budget_ > 0) {
      if (st.peak_tracked_bytes > memory_budget_) {
        // The threaded engines charge the budget from several workers at once
        // and now and then overshoot it by a few hundred bytes (CHANGES.md,
        // FOUND). A check that fails only now and then cannot gate a run, so
        // for them it is counted (runtime.threaded_over_budget_calls).
        if (!Threaded(e)) {
          return "peak_tracked_bytes " + std::to_string(st.peak_tracked_bytes) +
                 " over the budget " + std::to_string(memory_budget_);
        }
        ++over_budget_calls_;
      }
      if (Threaded(e) && st.spill_runs == 0) {
        return "no spill runs under the memory budget";
      }
    }
    if (!DirIsEmpty(spill_dir_)) {
      return "spill directory " + spill_dir_ + " not empty after the call";
    }
    return "";
  }

  std::string DescribeMismatch(const std::map<Key, Output>& got) const {
    size_t missing = 0, extra = 0, differ = 0;
    for (const auto& [key, value] : expected_) {
      const auto it = got.find(key);
      if (it == got.end()) {
        ++missing;
      } else if (!(it->second == value)) {
        ++differ;
      }
    }
    for (const auto& entry : got) {
      extra += expected_.count(entry.first) == 0 ? 1 : 0;
    }
    return "outputs differ from the oracle: " + std::to_string(missing) +
           " groups missing, " + std::to_string(extra) + " extra, " +
           std::to_string(differ) + " with other values";
  }

  void Fail(const std::string& who, const std::string& what) {
    ++errors_;
    if (errors_ <= 10) {
      std::fprintf(stderr, "perfbench: CHECK FAILED (%s): %s\n", who.c_str(),
                   what.c_str());
    }
  }

  void PrintResult(const Metrics& metrics) const {
    std::string out = "{\"correct\": ";
    out += errors_ == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
      char value[64];
      const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
      std::snprintf(value, sizeof(value), "%.17g", v);
      out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + value +
             ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
  }

  const Args& args_;
  const uint64_t memory_budget_;
  symple::Dataset data_;
  double generate_ms_ = 0;
  uint64_t input_bytes_ = 0;
  double input_mb_ = 0;
  std::map<Key, Output> expected_;
  Oracle oracle_;
  std::string spill_dir_;
  symple::EngineOptions options_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t errors_ = 0;
  uint64_t over_budget_calls_ = 0;
};

template <typename Query, typename Oracle>
int Bench(const Args& args, symple::Dataset (*generate)(uint64_t), uint64_t budget = 0) {
  WorkloadBench<Query, Oracle> bench(args, generate, budget);
  return bench.Run();
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--out") {
      args->out_dir = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--trace") {
      args->trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds >= 1 && args->seconds <= 600 &&
         (args->trace == 0 || args->trace == 1) && !args->out_dir.empty();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload redshift-scan|github-groups|"
                 "twitter-symbolic|github-spill --seed N --seconds S --trace 0|1 "
                 "[--out DIR]\n");
    return 2;
  }
  if (args.workload == "redshift-scan") {
    return Bench<symple::R1Impressions, R1Oracle>(args, RedshiftScanInput);
  }
  if (args.workload == "github-groups") {
    return Bench<symple::G1OnlyPushes, G1Oracle>(args, GithubInput);
  }
  if (args.workload == "twitter-symbolic") {
    return Bench<symple::T1SpamLearning, T1Oracle>(args, TwitterSymbolicInput);
  }
  if (args.workload == "github-spill") {
    return Bench<symple::G1OnlyPushes, G1Oracle>(args, GithubInput, kGithubSpillBudget);
  }
  std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
  return 2;
}
