// Single-thread timings of the layers the engines are built from, measured
// from outside by calling each module's public functions over the
// workload's own input:
//
//   queries    Query::Parse on every line
//   core       FlatGroupMap probes (one table per segment),
//              ConcreteAggregator::Feed, SymbolicAggregator::Feed per
//              segment chunk, Summary::Compose + ApplyTo in input order
//   serialize  Summary::Serialize / Summary::Deserialize
//
// Each layer runs `passes` times over the whole input and reports the median
// pass. The concrete and composed answers are checked against the oracle, so
// a layer that got fast by getting wrong does not report a time.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/aggregator.h"
#include "core/flat_group_map.h"
#include "core/summary.h"
#include "obs/trace.h"
#include "oracle.h"
#include "runtime/dataset.h"
#include "runtime/engine.h"
#include "serialize/binary_io.h"
#include "util.h"

namespace perfbench {

// Trace lane of the layer spans (engine runs use lanes 1..).
inline constexpr uint32_t kLayerTracePid = 1000;

template <typename Query>
class LayerBench {
 public:
  using Key = typename Query::Key;
  using Event = typename Query::Event;
  using State = typename Query::State;
  using Output = typename Query::Output;
  using UpdateFn = void (*)(State&, const Event&);

  LayerBench(const symple::Dataset& data, const std::map<Key, Output>& expected,
             symple::obs::Tracer* tracer)
      : expected_(expected), tracer_(tracer) {
    // Untimed preparation: line boundaries, parsed records and group ids.
    std::unordered_map<Key, uint32_t> global_ids;
    segments_.resize(data.segments.size());
    for (size_t s = 0; s < data.segments.size(); ++s) {
      Segment& seg = segments_[s];
      std::unordered_map<Key, uint32_t> local_ids;
      ForEachLine(data.segments[s], [&](std::string_view line) {
        seg.lines.push_back(line);
        auto rec = Query::Parse(line);
        if (!rec.has_value()) {
          return;
        }
        const auto g = global_ids.try_emplace(rec->first, keys_.size());
        if (g.second) {
          keys_.push_back(rec->first);
        }
        const auto l = local_ids.try_emplace(rec->first, seg.local_to_global.size());
        if (l.second) {
          seg.local_to_global.push_back(g.first->second);
        }
        seg.keys.push_back(rec->first);
        seg.events.push_back(rec->second);
        seg.global_group.push_back(g.first->second);
        seg.local_group.push_back(l.first->second);
      });
      records_ += seg.lines.size();
      parsed_ += seg.keys.size();
    }
  }

  // Runs every layer; returns "" or the first check that failed.
  std::string Measure(int passes, Metrics* out) {
    const double parse_ms =
        MedianPass(passes, "queries.Parse", [&] { return ParsePass(); });
    const double probe_ms =
        MedianPass(passes, "core.FlatGroupMap", [&] { return ProbePass(); });
    std::string error;
    const double concrete_ms = MedianPass(passes, "core.ConcreteAggregator",
                                          [&] { return ConcretePass(&error); });
    const double symbolic_ms =
        MedianPass(passes, "core.SymbolicAggregator", [&] { return SymbolicPass(); });
    const double write_ms =
        MedianPass(passes, "serialize.Summary::Serialize", [&] { return WritePass(); });
    const double read_ms = MedianPass(passes, "serialize.Summary::Deserialize",
                                      [&] { return ReadPass(&error); });
    const double compose_ms =
        MedianPass(passes, "core.Summary::Compose", [&] { return ComposePass(&error); });

    const double records = static_cast<double>(records_);
    const double parsed = static_cast<double>(parsed_);
    const double concrete_ns = concrete_ms * 1e6 / parsed;
    const double symbolic_ns = symbolic_ms * 1e6 / parsed;
    out->push_back(
        {"queries.parse_ns_per_record", parse_ms * 1e6 / records, "ns/record"});
    out->push_back(
        {"core.group_probe_ns_per_record", probe_ms * 1e6 / parsed, "ns/record"});
    out->push_back({"core.concrete_update_ns_per_event", concrete_ns, "ns/event"});
    out->push_back({"core.symbolic_update_ns_per_event", symbolic_ns, "ns/event"});
    out->push_back({"core.symbolic_overhead_x", symbolic_ns / concrete_ns, "x"});
    out->push_back({"serialize.summary_write_ns_per_byte",
                    write_ms * 1e6 / static_cast<double>(summary_bytes_), "ns/byte"});
    out->push_back({"serialize.summary_read_ns_per_byte",
                    read_ms * 1e6 / static_cast<double>(summary_bytes_), "ns/byte"});
    out->push_back({"core.compose_ns_per_summary",
                    compose_ms * 1e6 / static_cast<double>(summary_count_),
                    "ns/summary"});
    return error;
  }

  // Folded results of the timed loops; reading it keeps them from being
  // optimized out.
  uint64_t sink() const { return sink_; }

 private:
  struct Segment {
    std::vector<std::string_view> lines;
    std::vector<Key> keys;  // parsed records, in line order
    std::vector<Event> events;
    std::vector<uint32_t> global_group;  // per parsed record
    std::vector<uint32_t> local_group;   // per parsed record, this segment
    std::vector<uint32_t> local_to_global;
    // From the last symbolic pass: each local group's ordered summaries.
    std::vector<std::vector<symple::Summary<State>>> summaries;
    std::vector<uint8_t> wire;  // the summaries serialized back to back
  };

  // Runs `pass` (which returns its own timed milliseconds) `passes` times
  // inside one trace span per pass and returns the median.
  template <typename Pass>
  double MedianPass(int passes, const char* name, Pass pass) {
    std::vector<double> ms;
    for (int i = 0; i < passes; ++i) {
      symple::obs::ScopedSpan span(tracer_, name, "layer", kLayerTracePid, 0);
      ms.push_back(pass());
    }
    return Median(ms);
  }

  double ParsePass() {
    uint64_t accepted = 0;
    const auto t0 = Clock::now();
    for (const Segment& seg : segments_) {
      for (const std::string_view line : seg.lines) {
        accepted += Query::Parse(line).has_value() ? 1 : 0;
      }
    }
    const double ms = MsSince(t0);
    sink_ += accepted;
    return ms;
  }

  double ProbePass() {
    uint64_t groups = 0;
    const auto t0 = Clock::now();
    for (const Segment& seg : segments_) {
      symple::FlatGroupMap<Key, uint64_t> table(
          symple::internal::ResolveGroupCapacityHint(0, seg.lines.size()));
      for (const Key& key : seg.keys) {
        ++*table.GetOrEmplace(key, uint64_t{0}).first;
      }
      groups += table.size();
    }
    const double ms = MsSince(t0);
    sink_ += groups;
    return ms;
  }

  double ConcretePass(std::string* error) {
    using Aggregator = symple::ConcreteAggregator<State, Event, UpdateFn>;
    std::vector<Aggregator> aggs;
    aggs.reserve(keys_.size());
    for (size_t g = 0; g < keys_.size(); ++g) {
      aggs.emplace_back(&Query::Update);
    }
    const auto t0 = Clock::now();
    for (const Segment& seg : segments_) {
      for (size_t i = 0; i < seg.events.size(); ++i) {
        aggs[seg.global_group[i]].Feed(seg.events[i]);
      }
    }
    const double ms = MsSince(t0);
    for (size_t g = 0; g < keys_.size(); ++g) {
      CheckOutput(keys_[g], Query::Result(aggs[g].state(), keys_[g]),
                  "ConcreteAggregator", error);
    }
    return ms;
  }

  double SymbolicPass() {
    using Aggregator = symple::SymbolicAggregator<State, Event, UpdateFn>;
    double ms = 0;
    summary_count_ = 0;
    for (Segment& seg : segments_) {
      std::deque<Aggregator> aggs;  // not movable: owns an ExecContext
      for (size_t g = 0; g < seg.local_to_global.size(); ++g) {
        aggs.emplace_back(&Query::Update, symple::AggregatorOptions{});
      }
      const auto t0 = Clock::now();
      for (size_t i = 0; i < seg.events.size(); ++i) {
        aggs[seg.local_group[i]].Feed(seg.events[i]);
      }
      ms += MsSince(t0);
      seg.summaries.clear();
      for (Aggregator& agg : aggs) {
        seg.summaries.push_back(agg.Finish());
        summary_count_ += seg.summaries.back().size();
      }
    }
    return ms;
  }

  double WritePass() {
    double ms = 0;
    summary_bytes_ = 0;
    for (Segment& seg : segments_) {
      symple::BinaryWriter w;
      const auto t0 = Clock::now();
      for (const auto& group : seg.summaries) {
        for (const symple::Summary<State>& s : group) {
          s.Serialize(w);
        }
      }
      ms += MsSince(t0);
      summary_bytes_ += w.size();
      seg.wire = w.TakeBuffer();
    }
    return ms;
  }

  double ReadPass(std::string* error) {
    double ms = 0;
    uint64_t paths = 0;
    for (const Segment& seg : segments_) {
      symple::BinaryReader r(seg.wire);
      const auto t0 = Clock::now();
      for (const auto& group : seg.summaries) {
        for (size_t i = 0; i < group.size(); ++i) {
          symple::Summary<State> s;
          s.Deserialize(r);
          paths += s.path_count();
        }
      }
      ms += MsSince(t0);
      if (r.remaining() != 0 && error->empty()) {
        *error = "Summary::Deserialize left " + std::to_string(r.remaining()) +
                 " unread bytes";
      }
    }
    sink_ += paths;
    return ms;
  }

  // Per key: the summaries of every segment, in input order, composed
  // later-after-earlier into one and applied to the initial state.
  double ComposePass(std::string* error) {
    std::vector<std::vector<const symple::Summary<State>*>> ordered(keys_.size());
    for (const Segment& seg : segments_) {
      for (size_t l = 0; l < seg.summaries.size(); ++l) {
        for (const symple::Summary<State>& s : seg.summaries[l]) {
          ordered[seg.local_to_global[l]].push_back(&s);
        }
      }
    }
    std::vector<State> states(keys_.size());
    bool applied = true;
    const auto t0 = Clock::now();
    for (size_t g = 0; g < keys_.size(); ++g) {
      symple::Summary<State> acc = *ordered[g].front();
      for (size_t i = 1; i < ordered[g].size(); ++i) {
        acc = symple::Summary<State>::Compose(*ordered[g][i], acc);
      }
      applied = acc.ApplyTo(states[g]) && applied;
    }
    const double ms = MsSince(t0);
    if (!applied && error->empty()) {
      *error = "a composed summary rejected the initial state";
    }
    for (size_t g = 0; g < keys_.size(); ++g) {
      CheckOutput(keys_[g], Query::Result(states[g], keys_[g]), "Summary::Compose",
                  error);
    }
    return ms;
  }

  void CheckOutput(const Key& key, const Output& got, const char* layer,
                   std::string* error) const {
    const auto it = expected_.find(key);
    if ((it == expected_.end() || !(it->second == got)) && error->empty()) {
      *error = std::string(layer) + " answer differs from the oracle";
    }
  }

  const std::map<Key, Output>& expected_;
  symple::obs::Tracer* tracer_;
  std::vector<Segment> segments_;
  std::vector<Key> keys_;  // global first-seen order
  uint64_t records_ = 0;
  uint64_t parsed_ = 0;
  uint64_t summary_count_ = 0;
  uint64_t summary_bytes_ = 0;
  uint64_t sink_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
