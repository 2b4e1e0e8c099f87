// Independent reference answers for the benchmark's three queries.
//
// Each oracle recomputes its query's answer from the raw segment bytes with
// its own line splitting, its own field search, its own decimal parsing and
// plain integer state. It shares no code with the engines or the query
// structs (no FieldCursor, ParseInt64, JsonFieldAfter, Sym types), so a
// fault in any of those shows up as a mismatch instead of being reproduced
// by the check. Records are fed once, in input order (segment by segment,
// line by line), which is the order the sequential semantics are defined in.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace perfbench {

// Calls fn(line) for every newline-separated line of `blob`; a trailing
// chunk without a newline is one more line.
template <typename Fn>
void ForEachLine(std::string_view blob, Fn&& fn) {
  size_t begin = 0;
  while (begin < blob.size()) {
    size_t end = begin;
    while (end < blob.size() && blob[end] != '\n') {
      ++end;
    }
    fn(blob.substr(begin, end - begin));
    begin = end + 1;
  }
}

// Optional '-' followed by 1..18 decimal digits (no overflow possible).
inline bool ParseDecimal(std::string_view s, int64_t* out) {
  bool negative = false;
  if (!s.empty() && s[0] == '-') {
    negative = true;
    s.remove_prefix(1);
  }
  if (s.empty() || s.size() > 18) {
    return false;
  }
  int64_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') {
      return false;
    }
    v = v * 10 + (c - '0');
  }
  *out = negative ? -v : v;
  return true;
}

// The text between the first occurrence of `key` and the next `terminator`;
// false when either is missing.
inline bool FieldAfter(std::string_view line, std::string_view key, char terminator,
                       std::string_view* out) {
  const size_t at = line.find(key);
  if (at == std::string_view::npos) {
    return false;
  }
  const size_t begin = at + key.size();
  const size_t end = line.find(terminator, begin);
  if (end == std::string_view::npos) {
    return false;
  }
  *out = line.substr(begin, end - begin);
  return true;
}

// "YYYY-MM-DD hh:mm:ss" with in-range fields. The generators only write
// valid calendar dates, so the day is checked against 31 only.
inline bool IsDateTime(std::string_view s) {
  if (s.size() != 19 || s[4] != '-' || s[7] != '-' || s[10] != ' ' ||
      s[13] != ':' || s[16] != ':') {
    return false;
  }
  const auto num = [&](size_t at, size_t len, int* v) {
    int64_t x = 0;
    const bool ok = ParseDecimal(s.substr(at, len), &x) && x >= 0;
    *v = static_cast<int>(x);
    return ok;
  };
  int y = 0, mo = 0, d = 0, h = 0, mi = 0, se = 0;
  return num(0, 4, &y) && num(5, 2, &mo) && num(8, 2, &d) && num(11, 2, &h) &&
         num(14, 2, &mi) && num(17, 2, &se) && mo >= 1 && mo <= 12 && d >= 1 &&
         d <= 31 && h <= 23 && mi <= 59 && se <= 59;
}

// Groups in first-seen order with a dense index, so per-record work is one
// hash lookup and the output map is built once at the end.
template <typename Key, typename Acc>
struct FirstSeenGroups {
  std::unordered_map<Key, size_t> index;
  std::vector<Key> keys;
  std::vector<Acc> accs;

  Acc& Get(const Key& key) {
    const auto [it, inserted] = index.try_emplace(key, keys.size());
    if (inserted) {
      keys.push_back(key);
      accs.emplace_back();
    }
    return accs[it->second];
  }
};

// R1: impressions per advertiser. Tab-separated; the advertiser id is the
// second column.
struct R1Oracle {
  using Key = int64_t;
  using Output = int64_t;

  FirstSeenGroups<Key, int64_t> groups;
  uint64_t records = 0;
  uint64_t accepted = 0;

  void Feed(std::string_view line) {
    ++records;
    const size_t tab = line.find('\t');
    if (tab == std::string_view::npos) {
      return;
    }
    std::string_view rest = line.substr(tab + 1);
    const size_t tab2 = rest.find('\t');
    int64_t adv = 0;
    if (!ParseDecimal(rest.substr(0, tab2), &adv)) {
      return;
    }
    ++accepted;
    ++groups.Get(adv);
  }

  Output OutputAt(size_t i) const { return groups.accs[i]; }

  // The counts sum to the records the oracle accepted.
  std::string Check(const std::map<Key, Output>& out) const {
    int64_t sum = 0;
    for (const auto& entry : out) {
      sum += entry.second;
    }
    if (sum != static_cast<int64_t>(accepted)) {
      return "R1 counts sum to " + std::to_string(sum) + ", the oracle accepted " +
             std::to_string(accepted) + " records";
    }
    return "";
  }
};

// G1: repositories whose operations are all pushes. JSON-ish lines; a record
// counts when its created_at is a datetime, its repo id a decimal and its
// type one of the ten archive operation names.
struct G1Oracle {
  using Key = int64_t;
  using Output = bool;

  FirstSeenGroups<Key, uint8_t> groups;  // 1 = saw an operation other than push
  uint64_t records = 0;
  uint64_t accepted = 0;

  static bool KnownOp(std::string_view op) {
    static constexpr std::string_view kOps[] = {
        "push", "pull_open", "pull_close", "create_branch", "delete_branch",
        "delete_repo", "fork", "issue", "star", "release"};
    for (const std::string_view known : kOps) {
      if (op == known) {
        return true;
      }
    }
    return false;
  }

  void Feed(std::string_view line) {
    ++records;
    std::string_view created, repo, op;
    int64_t repo_id = 0;
    if (!FieldAfter(line, "\"created_at\":\"", '"', &created) ||
        !FieldAfter(line, "\"repo\":{\"id\":", ',', &repo) ||
        !FieldAfter(line, "\"type\":\"", '"', &op) || !IsDateTime(created) ||
        !ParseDecimal(repo, &repo_id) || !KnownOp(op)) {
      return;
    }
    ++accepted;
    uint8_t& other = groups.Get(repo_id);
    other = other != 0 || op != "push" ? 1 : 0;
  }

  Output OutputAt(size_t i) const { return groups.accs[i] == 0; }

  std::string Check(const std::map<Key, Output>&) const { return ""; }
};

// T1: per hashtag, the non-spam tweets before the first run of five
// consecutive spam tweets (-1 if none). `nonspam_total` is the hashtag's
// whole-input non-spam count, the upper bound the property check uses.
struct T1Oracle {
  using Key = std::string;
  using Output = int64_t;

  struct Tag {
    int run = 0;  // consecutive spam so far; 5 = burst seen (absorbing)
    int64_t nonspam = 0;
    int64_t first = -1;
    int64_t nonspam_total = 0;
  };
  FirstSeenGroups<Key, Tag> groups;
  uint64_t records = 0;
  uint64_t accepted = 0;

  void Feed(std::string_view line) {
    ++records;
    static constexpr std::string_view kTag = "\"hashtag\":\"";
    static constexpr std::string_view kSpam = "\"spam\":";
    const size_t at = line.find(kTag);
    if (at == std::string_view::npos) {
      return;
    }
    const size_t begin = at + kTag.size();
    const size_t end = line.find('"', begin);
    if (end == std::string_view::npos) {
      return;
    }
    const size_t spam_at = line.find(kSpam, end);
    if (spam_at == std::string_view::npos || spam_at + kSpam.size() >= line.size()) {
      return;
    }
    const char flag = line[spam_at + kSpam.size()];
    if (flag != '0' && flag != '1') {
      return;
    }
    ++accepted;
    Tag& t = groups.Get(std::string(line.substr(begin, end - begin)));
    if (flag == '1') {
      if (t.run < 4) {
        ++t.run;
      } else if (t.run == 4) {
        t.first = t.nonspam;
        t.run = 5;
      }
    } else {
      ++t.nonspam_total;
      if (t.run != 5) {
        t.run = 0;
        ++t.nonspam;
      }
    }
  }

  Output OutputAt(size_t i) const { return groups.accs[i].first; }

  // Each value is -1 or lies in [0, the hashtag's non-spam count].
  std::string Check(const std::map<Key, Output>& out) const {
    for (const auto& [tag, value] : out) {
      const auto it = groups.index.find(tag);
      if (it == groups.index.end()) {
        return "T1 output for unknown hashtag " + tag;
      }
      if (value != -1 && (value < 0 || value > groups.accs[it->second].nonspam_total)) {
        return "T1 value " + std::to_string(value) + " for " + tag + " outside [0, " +
               std::to_string(groups.accs[it->second].nonspam_total) + "]";
      }
    }
    return "";
  }
};

// Runs `Oracle` over the segments in input order and returns it with its
// answer as a key-ordered map (the engines' RunResult::outputs type).
template <typename Oracle, typename Segments>
Oracle ComputeOracle(const Segments& segments,
                     std::map<typename Oracle::Key, typename Oracle::Output>* out) {
  Oracle oracle;
  for (const auto& seg : segments) {
    ForEachLine(seg, [&oracle](std::string_view line) { oracle.Feed(line); });
  }
  out->clear();
  for (size_t i = 0; i < oracle.groups.keys.size(); ++i) {
    out->emplace(oracle.groups.keys[i], oracle.OutputAt(i));
  }
  return oracle;
}

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
