// In-memory span recorder for the end-to-end benchmark's traced runs.
//
// A span is (name, start, end, parent, request id). Spans are recorded from
// the benchmark's own code around calls into each layer; nothing inside the
// library is instrumented. Each name keeps an aggregate (count, total time,
// time covered by direct children, and a bounded uniform reservoir of
// durations for quantiles), and the first few spans of every name are kept
// verbatim. `write_jsonl` dumps both when the run ends.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace dart::e2e {

/// Steady-clock nanoseconds; the clock every benchmark timing uses.
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

/// Nearest-rank quantile of `v` (sorted in place); 0 when empty.
template <typename T>
T quantile(std::vector<T>& v, double q) {
  if (v.empty()) return T{};
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(v.size()) + 0.999999);
  rank = std::min(std::max<std::size_t>(rank, 1), v.size());
  return v[rank - 1];
}

class Tracer {
 public:
  /// Everything recorded under one span name.
  struct Series {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t child_ns = 0;         ///< time covered by direct children
    std::vector<std::uint64_t> sample;  ///< uniform reservoir of durations
    struct Raw {
      std::uint64_t id, parent, request, start_ns, end_ns;
    };
    std::vector<Raw> raw;  ///< the first spans, verbatim

    std::uint64_t self_ns() const { return total_ns > child_ns ? total_ns - child_ns : 0; }
    double mean_ns() const {
      return count == 0 ? 0.0 : static_cast<double>(total_ns) / static_cast<double>(count);
    }
    std::uint64_t quantile_ns(double q) const {
      std::vector<std::uint64_t> v = sample;
      return quantile(v, q);
    }
  };

  /// A span that has started: its id, so children can name it as parent.
  struct Ref {
    std::uint64_t id = 0;
    Series* series = nullptr;
  };

  /// The series for `name` (created on first use; the pointer stays valid).
  Series* series(const std::string& name) { return &series_[name]; }

  /// Allocates the id of a span that is about to start.
  Ref open(Series* s) { return Ref{++next_id_, s}; }

  /// Records a finished span opened with `open`; `parent` may be empty.
  void record(const Ref& self, const Ref& parent, std::uint64_t request, std::uint64_t start_ns,
              std::uint64_t end_ns) {
    const std::uint64_t dur = end_ns > start_ns ? end_ns - start_ns : 0;
    Series& s = *self.series;
    ++s.count;
    s.total_ns += dur;
    if (s.sample.size() < kReservoir) {
      s.sample.push_back(dur);
    } else {
      const std::uint64_t slot = rng_.below(s.count);
      if (slot < kReservoir) s.sample[slot] = dur;
    }
    if (parent.series != nullptr) parent.series->child_ns += dur;
    if (s.raw.size() < kRawPerName) {
      s.raw.push_back(Series::Raw{self.id, parent.id, request, start_ns, end_ns});
    }
  }

  /// Records a span that has no children.
  void record(Series* s, const Ref& parent, std::uint64_t request, std::uint64_t start_ns,
              std::uint64_t end_ns) {
    record(open(s), parent, request, start_ns, end_ns);
  }

  /// The series for `name`, or nullptr when no span of that name finished.
  const Series* find(const std::string& name) const {
    auto it = series_.find(name);
    return it == series_.end() || it->second.count == 0 ? nullptr : &it->second;
  }

  /// Writes one aggregate line per name, then the kept raw spans.
  bool write_jsonl(const std::string& path, const std::string& workload) const {
    std::unique_ptr<FILE, int (*)(FILE*)> f(std::fopen(path.c_str(), "w"), &std::fclose);
    if (!f) return false;
    for (const auto& [name, s] : series_) {
      if (s.count == 0) continue;
      std::fprintf(f.get(),
                   "{\"type\": \"aggregate\", \"workload\": \"%s\", \"name\": \"%s\", "
                   "\"count\": %llu, \"total_ns\": %llu, \"self_ns\": %llu, \"p50_ns\": %llu, "
                   "\"p99_ns\": %llu}\n",
                   workload.c_str(), name.c_str(), static_cast<unsigned long long>(s.count),
                   static_cast<unsigned long long>(s.total_ns),
                   static_cast<unsigned long long>(s.self_ns()),
                   static_cast<unsigned long long>(s.quantile_ns(0.50)),
                   static_cast<unsigned long long>(s.quantile_ns(0.99)));
    }
    for (const auto& [name, s] : series_) {
      for (const Series::Raw& r : s.raw) {
        std::fprintf(f.get(),
                     "{\"type\": \"span\", \"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                     "\"request\": %llu, \"start_ns\": %llu, \"end_ns\": %llu}\n",
                     name.c_str(), static_cast<unsigned long long>(r.id),
                     static_cast<unsigned long long>(r.parent),
                     static_cast<unsigned long long>(r.request),
                     static_cast<unsigned long long>(r.start_ns),
                     static_cast<unsigned long long>(r.end_ns));
      }
    }
    return true;
  }

 private:
  static constexpr std::size_t kReservoir = 1 << 16;
  static constexpr std::size_t kRawPerName = 256;

  std::uint64_t next_id_ = 0;
  common::Rng rng_{0x7ace};
  std::map<std::string, Series> series_;
};

}  // namespace dart::e2e
