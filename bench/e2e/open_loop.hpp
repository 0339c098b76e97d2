// Open-loop load for the serve-open workload: one client thread sends
// Poisson arrivals over two sessions of a serve::PrefetchServer, spinning
// until each send is due, and times every request from its *intended* send
// time, so a stall also charges the requests scheduled behind it.
//
// A request whose session has no free slot is dropped and counted as a
// window-full miss (its latency is infinite), except in capacity mode,
// where the client waits for a slot instead and the achieved completion
// rate is the measurement. Every 64th feature window's response is compared
// bit for bit with a reference computed by forward_sample_into.
//
// Per-request records go to buffers sized and touched once, from the run
// plan alone, so the client's memory does not depend on how fast the
// server turned out to be.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/detmath.hpp"
#include "common/rng.hpp"
#include "kernel_replay.hpp"
#include "serve/server.hpp"
#include "tracer.hpp"

namespace dart::e2e {

inline constexpr std::uint64_t kMiss = std::numeric_limits<std::uint64_t>::max();
inline constexpr std::size_t kCheckEvery = 64;
/// Latency quantiles are taken per window of this length; interference from
/// other processes only ever adds latency, so the best window is the
/// steadiest estimate of the code's own latency.
inline constexpr double kLatencyWindowS = 0.25;
/// Capacity is the best completion rate over windows of this length.
inline constexpr double kRateWindowS = 0.1;

/// References for every kCheckEvery-th window, `out_dim` floats each.
struct References {
  std::size_t out_dim = 0;
  std::vector<float> probs;
};

inline References compute_references(const tabular::TabularPredictor& p, const Windows& w) {
  const nn::ModelConfig& a = p.arch();
  References r;
  r.out_dim = a.out_dim;
  tabular::InferenceWorkspace ws(p.tabular_arch());
  for (std::size_t i = 0; i < w.count(); i += kCheckEvery) {
    r.probs.resize(r.probs.size() + a.out_dim);
    p.forward_sample_into(w.addr.data() + i * a.seq_len * a.addr_dim,
                          w.pc.data() + i * a.seq_len * a.pc_dim,
                          r.probs.data() + r.probs.size() - a.out_dim, ws);
  }
  return r;
}

/// Microseconds from nanoseconds; a miss reads as 1e12 us.
inline double to_us(std::uint64_t ns) {
  return ns == kMiss ? 1e12 : static_cast<double>(ns) / 1000.0;
}

struct PhaseStats {
  double offered_rps = 0.0;
  double seconds = 0.0;
  std::uint64_t sent = 0;
  std::uint64_t completed = 0;
  std::uint64_t completed_in_phase = 0;  ///< completions seen before the phase ended
  std::uint64_t shed = 0;
  std::uint64_t window_full = 0;
  std::uint64_t rejected = 0;
  std::uint64_t id_mismatches = 0;
  std::uint64_t checked = 0;
  std::uint64_t check_failures = 0;
  std::uint64_t backlog_at_end = 0;  ///< requests in flight when sending stopped
  bool drained = true;               ///< every accepted request resolved

  // Latencies from intended send time, misses included.
  double best_p50_us = 0.0, best_p99_us = 0.0;    ///< best window
  double p50_us = 0.0, p99_us = 0.0;              ///< median over windows
  double whole_p50_us = 0.0, whole_p99_us = 0.0;  ///< over the whole phase
  double lag_p99_us = 0.0;          ///< how late sends left
  double from_submit_p99_us = 0.0;  ///< served requests, from the submit call
  double best_window_rps = 0.0;     ///< completions per second, best window
  double submit_mean_ns = 0.0;      ///< traced phases: ClientSession::submit
  double poll_mean_ns = 0.0;        ///< traced phases: a poll that returned a response
  serve::ServeStatsSummary server;

  double completed_per_s() const {
    return seconds > 0.0 ? static_cast<double>(completed_in_phase) / seconds : 0.0;
  }
};

class OpenLoopClient {
 public:
  /// In-flight window per session: deep enough that a shard stalled for
  /// ~20 ms at the nominal rate delays requests instead of dropping them.
  static constexpr std::size_t kSlots = 1024;

  /// `max_records` bounds the per-request records one phase keeps (later
  /// requests still count, they are just not in the quantiles).
  OpenLoopClient(const Windows& windows, const References& refs, const nn::ModelConfig& arch,
                 std::size_t max_records)
      : w_(windows), refs_(refs), arch_(arch) {
    records_.assign(max_records, {0, 0});
    records_.clear();
    for (auto* v : {&lag_, &from_submit_, &scratch_}) {
      v->assign(max_records, 0);
      v->clear();
    }
  }

  /// Sends at `rate_per_s` for `seconds` against `server`, whose stats are
  /// reported as the phase's. `wait_when_full` selects capacity mode;
  /// traced spans are named "serve.<span>.<label>". Request i of a phase
  /// carries window i (mod the window count).
  PhaseStats run(serve::PrefetchServer& server, double rate_per_s, double seconds,
                 bool wait_when_full, common::Rng& rng, Tracer* tracer,
                 const std::string& label) {
    PhaseStats st;
    st.offered_rps = rate_per_s;
    st.seconds = seconds;
    records_.clear();
    lag_.clear();
    from_submit_.clear();
    done_per_window_.assign(std::max<std::size_t>(1, static_cast<std::size_t>(seconds / kRateWindowS)), 0);
    Session sessions[2] = {Session(server, arch_.out_dim), Session(server, arch_.out_dim)};
    if (tracer != nullptr) {
      request_series_ = tracer->series("serve.request." + label);
      submit_series_ = tracer->series("serve.submit." + label);
      poll_series_ = tracer->series("serve.poll." + label);
    }

    const double mean_gap_ns = 1e9 / rate_per_s;
    auto gap = [&] { return -common::det::log(1.0 - rng.uniform()) * mean_gap_ns; };
    start_ = now_ns();
    end_ = start_ + static_cast<std::uint64_t>(seconds * 1e9);
    double due = static_cast<double>(start_) + gap();
    std::uint64_t seq = 0;
    std::size_t next_window = 0;
    auto miss = [&] {
      keep(records_, {static_cast<std::uint64_t>(due), kMiss});
      ++seq;
      due += gap();
    };
    for (;;) {
      for (Session& s : sessions) drain(s, st, tracer);
      const std::uint64_t now = now_ns();
      if (now >= end_ || due >= static_cast<double>(end_)) break;
      if (static_cast<double>(now) < due) continue;
      // Open loop alternates sessions strictly. Capacity mode takes whichever
      // session has room, so one slow shard does not idle the other.
      Session* pick = &sessions[seq & 1];
      if (pick->free.empty() && wait_when_full) pick = &sessions[(seq + 1) & 1];
      Session& s = *pick;
      if (s.free.empty()) {
        if (wait_when_full) continue;
        ++st.window_full;
        miss();
        continue;
      }
      const std::size_t slot = s.free.back();
      const std::size_t window = next_window++ % w_.count();
      const float* addr = w_.addr.data() + window * arch_.seq_len * arch_.addr_dim;
      const float* pc = w_.pc.data() + window * arch_.seq_len * arch_.pc_dim;
      const Tracer::Ref request = tracer != nullptr ? tracer->open(request_series_)
                                                    : Tracer::Ref{};
      const std::uint64_t t0 = now_ns();
      const std::uint64_t id = s.session->submit(addr, pc, s.probs.data() + slot * arch_.out_dim);
      if (tracer != nullptr) tracer->record(submit_series_, request, id, t0, now_ns());
      if (id == 0) {
        ++st.rejected;
        if (!wait_when_full) miss();
        continue;
      }
      s.free.pop_back();
      s.expect[slot] = id;
      s.intended[slot] = static_cast<std::uint64_t>(due);
      s.submitted[slot] = t0;
      s.window[slot] = window;
      s.span[slot] = request;
      ++st.sent;
      keep(lag_, t0 > s.intended[slot] ? t0 - s.intended[slot] : 0);
      ++seq;
      due += gap();
    }
    for (const Session& s : sessions) st.backlog_at_end += kSlots - s.free.size();
    // Collect every outstanding response; a request that never resolves is
    // a lost request, which fails the run.
    const std::uint64_t give_up = now_ns() + 10'000'000'000ULL;
    for (Session& s : sessions) {
      while (s.free.size() < kSlots && now_ns() < give_up) drain(s, st, tracer);
      if (s.free.size() < kSlots) st.drained = false;
    }
    st.server = server.stats();
    if (tracer != nullptr) {
      st.submit_mean_ns = submit_series_->mean_ns();
      st.poll_mean_ns = poll_series_->mean_ns();
    }
    summarize(st);
    return st;
  }

 private:
  struct Session {
    Session(serve::PrefetchServer& server, std::size_t out_dim)
        : session(server.connect(kSlots)), probs(kSlots * out_dim), expect(kSlots),
          intended(kSlots), submitted(kSlots), window(kSlots), span(kSlots) {
      for (std::size_t i = 0; i < kSlots; ++i) free.push_back(kSlots - 1 - i);
    }
    std::unique_ptr<serve::ClientSession> session;
    std::vector<float> probs;
    std::vector<std::uint64_t> expect, intended, submitted;
    std::vector<std::size_t> window;
    std::vector<Tracer::Ref> span;
    std::vector<std::size_t> free;
  };

  /// Appends within the preallocated capacity only.
  template <typename T>
  static void keep(std::vector<T>& v, const T& x) {
    if (v.size() < v.capacity()) v.push_back(x);
  }

  void drain(Session& s, PhaseStats& st, Tracer* tracer) {
    serve::Response r;
    for (;;) {
      const std::uint64_t t0 = tracer != nullptr ? now_ns() : 0;
      if (!s.session->poll(r)) return;
      const std::uint64_t now = now_ns();
      // Responses echo the slot's probs pointer; an address outside this
      // session's slots is a mis-routed response.
      const auto offset = reinterpret_cast<std::uintptr_t>(r.probs) -
                          reinterpret_cast<std::uintptr_t>(s.probs.data());
      const std::size_t slot = offset / (arch_.out_dim * sizeof(float));
      if (slot >= kSlots || s.expect[slot] != r.trace_id) {
        ++st.id_mismatches;
        continue;
      }
      if (r.status == serve::Response::Status::kShed) {
        ++st.shed;
        keep(records_, {s.intended[slot], kMiss});
      } else {
        ++st.completed;
        if (now < end_) {
          ++st.completed_in_phase;
          ++done_per_window_[std::min(done_per_window_.size() - 1,
                                      static_cast<std::size_t>(static_cast<double>(now - start_) /
                                                               (kRateWindowS * 1e9)))];
        }
        keep(records_, {s.intended[slot], now - s.intended[slot]});
        keep(from_submit_, now - s.submitted[slot]);
        const std::size_t window = s.window[slot];
        if (window % kCheckEvery == 0) {
          ++st.checked;
          const float* ref = refs_.probs.data() + (window / kCheckEvery) * refs_.out_dim;
          if (std::memcmp(ref, r.probs, refs_.out_dim * sizeof(float)) != 0) {
            ++st.check_failures;
          }
        }
      }
      if (tracer != nullptr) {
        tracer->record(poll_series_, s.span[slot], r.trace_id, t0, now);
        tracer->record(s.span[slot], Tracer::Ref{}, r.trace_id, s.intended[slot], now);
      }
      s.expect[slot] = 0;
      s.free.push_back(slot);
    }
  }

  void summarize(PhaseStats& st) {
    std::sort(records_.begin(), records_.end());  // by intended send time
    auto latencies = [&](std::size_t b, std::size_t e) {
      scratch_.clear();
      for (std::size_t i = b; i < e; ++i) scratch_.push_back(records_[i].second);
    };
    latencies(0, records_.size());
    st.whole_p50_us = to_us(quantile(scratch_, 0.50));
    st.whole_p99_us = to_us(quantile(scratch_, 0.99));
    std::vector<std::uint64_t> p50, p99;
    const auto window_ns = static_cast<std::uint64_t>(kLatencyWindowS * 1e9);
    for (std::size_t b = 0; b < records_.size();) {
      const std::uint64_t limit = start_ + ((records_[b].first - start_) / window_ns + 1) * window_ns;
      std::size_t e = b;
      while (e < records_.size() && records_[e].first < limit) ++e;
      latencies(b, e);
      p50.push_back(quantile(scratch_, 0.50));
      p99.push_back(quantile(scratch_, 0.99));
      b = e;
    }
    st.best_p50_us = to_us(quantile(p50, 0.0));
    st.best_p99_us = to_us(quantile(p99, 0.0));
    st.p50_us = to_us(quantile(p50, 0.5));
    st.p99_us = to_us(quantile(p99, 0.5));
    st.lag_p99_us = to_us(quantile(lag_, 0.99));
    st.from_submit_p99_us = to_us(quantile(from_submit_, 0.99));
    st.best_window_rps = static_cast<double>(
                             *std::max_element(done_per_window_.begin(), done_per_window_.end())) /
                         kRateWindowS;
  }

  const Windows& w_;
  const References& refs_;
  nn::ModelConfig arch_;
  std::uint64_t start_ = 0, end_ = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> records_;  ///< (intended, latency)
  std::vector<std::uint64_t> lag_, from_submit_, scratch_;
  std::vector<std::uint64_t> done_per_window_;
  Tracer::Series* request_series_ = nullptr;
  Tracer::Series* submit_series_ = nullptr;
  Tracer::Series* poll_series_ = nullptr;
};

}  // namespace dart::e2e
