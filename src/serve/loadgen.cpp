#include "serve/loadgen.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "common/detmath.hpp"
#include "common/rng.hpp"
#include "common/text.hpp"
#include "trace/trace.hpp"

namespace dart::serve {

namespace {

/// Latency of a request that was never answered (missed, shed or lost):
/// it reads as +infinity in the quantiles.
constexpr std::uint64_t kUnanswered = std::numeric_limits<std::uint64_t>::max();

/// One client stream: its session, trace and T-deep history, plus the
/// session's request slots. Slot buffers are contiguous, so a response's
/// echoed probs pointer maps back to its slot by arithmetic.
struct Stream {
  std::unique_ptr<ClientSession> session;
  trace::MemoryTrace trace;
  std::vector<std::uint64_t> hist_blocks, hist_pcs;
  std::size_t hist_pos = 0, access = 0;
  std::vector<float> addr, pc, probs;
  std::vector<std::uint64_t> expect_id;  ///< per slot: trace ID the response must echo
  std::vector<std::size_t> request;      ///< per slot: index of the planned request
  std::vector<std::size_t> free;

  /// Rolls the next trace access (wrapping the trace) into the history.
  void advance() {
    const trace::MemoryAccess& acc = trace[access++ % trace.size()];
    hist_blocks[hist_pos] = trace::block_of(acc.addr);
    hist_pcs[hist_pos] = acc.pc;
    hist_pos = (hist_pos + 1) % hist_blocks.size();
  }
};

void check_options(const LoadOptions& o) {
  auto fail = [](const char* what) {
    throw common::InputError(std::string("run_client_load: ") + what);
  };
  if (o.streams == 0 || o.streams > kMaxStreams) fail("streams must be in [1, kMaxStreams]");
  if (o.requests_per_stream == 0 || o.requests_per_stream > kMaxPlannedRequests / o.streams) {
    fail("streams x requests_per_stream must be in [1, kMaxPlannedRequests]");
  }
  if (!std::isfinite(o.rate_per_s) || o.rate_per_s <= 0.0) fail("rate_per_s must be finite and > 0");
  if (static_cast<double>(o.streams * o.requests_per_stream) / o.rate_per_s >
      kMaxScheduleSeconds) {
    fail("streams x requests_per_stream / rate_per_s must be <= kMaxScheduleSeconds");
  }
  if (o.trace_accesses == 0 || o.trace_accesses > kMaxTraceAccesses) {
    fail("trace_accesses must be in [1, kMaxTraceAccesses]");
  }
}

}  // namespace

LoadOptions LoadOptions::from_env() {
  LoadOptions o;
  o.streams = common::env_uint("DART_SERVE_STREAMS", o.streams);
  o.requests_per_stream = common::env_uint("DART_SERVE_REQUESTS", o.requests_per_stream);
  o.rate_per_s = common::env_double("DART_SERVE_RATE", o.rate_per_s);
  const std::string wls = common::env_string("DART_SERVE_WORKLOADS", "");
  if (!wls.empty()) o.workloads = trace::parse_workload_list(wls);
  return o;
}

LoadReport run_client_load(PrefetchServer& server, const LoadOptions& options,
                           std::chrono::nanoseconds drain_give_up) {
  check_options(options);
  const trace::PreprocessOptions& prep = options.prep;
  const nn::ModelConfig arch = server.arch();
  if (prep.history != arch.seq_len || prep.addr_segments != arch.addr_dim ||
      prep.pc_segments != arch.pc_dim || prep.bitmap_size != arch.out_dim) {
    throw std::invalid_argument(
        "run_client_load: preprocessing geometry does not match the serving model");
  }
  std::vector<trace::Workload> workloads = options.workloads;
  if (workloads.empty()) {
    workloads.assign(trace::all_apps().begin(), trace::all_apps().end());
  }

  const std::size_t t_len = prep.history;
  const std::size_t addr_len = t_len * prep.addr_segments;
  const std::size_t pc_len = t_len * prep.pc_segments;
  const std::size_t out_len = prep.bitmap_size;
  const std::size_t slots = server.config().completion_capacity;
  const std::size_t planned = options.streams * options.requests_per_stream;

  // (intended send ns, latency ns) per planned request, sized before the
  // first send so the client's memory does not depend on the server.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> records(planned, {0, kUnanswered});
  std::vector<Stream> streams(options.streams);
  for (std::size_t i = 0; i < streams.size(); ++i) {
    Stream& s = streams[i];
    s.trace = workloads[i % workloads.size()].generate(options.trace_accesses,
                                                       common::derive_seed(options.seed, i));
    if (s.trace.empty()) throw std::invalid_argument("run_client_load: workload has no accesses");
    s.hist_blocks.assign(t_len, 0);
    s.hist_pcs.assign(t_len, 0);
    // Warm the history window before the first request.
    for (std::size_t a = 0; a < t_len && a < s.trace.size(); ++a) s.advance();
    s.addr.resize(slots * addr_len);
    s.pc.resize(slots * pc_len);
    s.probs.resize(slots * out_len);
    s.expect_id.assign(slots, 0);
    s.request.assign(slots, 0);
    for (std::size_t k = slots; k-- > 0;) s.free.push_back(k);
    s.session = server.connect(slots);
  }

  LoadReport report;
  report.streams = options.streams;
  auto drain = [&] {
    Response r;
    for (Stream& s : streams) {
      while (s.session->poll(r)) {
        const std::uint64_t now = now_ns();
        const std::size_t slot = (reinterpret_cast<std::uintptr_t>(r.probs) -
                                  reinterpret_cast<std::uintptr_t>(s.probs.data())) /
                                 (out_len * sizeof(float));
        if (slot >= slots || s.expect_id[slot] != r.trace_id) {
          ++report.id_mismatches;  // not this stream's buffer, or another request's ID
          continue;
        }
        auto& record = records[s.request[slot]];
        if (r.status == Response::Status::kShed) {
          ++report.shed;
        } else {
          ++report.completed;
          record.second = now - record.first;
        }
        s.expect_id[slot] = 0;
        s.free.push_back(slot);
      }
    }
  };

  // Poisson arrivals from their own seeded stream, past every trace seed.
  common::Rng rng(common::derive_seed(options.seed, kMaxStreams));
  const double mean_gap_ns = 1e9 / options.rate_per_s;
  const std::uint64_t start = now_ns();
  double due_ns = 0.0;
  for (std::size_t k = 0; k < planned; ++k) {
    due_ns -= common::det::log(1.0 - rng.uniform()) * mean_gap_ns;
    const std::uint64_t intended = start + static_cast<std::uint64_t>(due_ns);
    records[k].first = intended;
    Stream& s = streams[k % streams.size()];
    s.advance();
    // Yield, not spin, while early: the shards may need this core.
    for (;;) {
      drain();
      if (now_ns() >= intended) break;
      std::this_thread::yield();
    }
    if (s.free.empty()) {
      ++report.missed;
      continue;
    }
    const std::size_t slot = s.free.back();
    float* addr = s.addr.data() + slot * addr_len;
    float* pc = s.pc.data() + slot * pc_len;
    for (std::size_t t = 0; t < t_len; ++t) {
      const std::size_t h = (s.hist_pos + t) % t_len;  // oldest -> newest
      trace::segment_value(s.hist_blocks[h], prep.addr_segments, prep.segment_bits,
                           addr + t * prep.addr_segments);
      trace::segment_value(s.hist_pcs[h] >> 2, prep.pc_segments, prep.segment_bits,
                           pc + t * prep.pc_segments);
    }
    const std::uint64_t id = s.session->submit(addr, pc, s.probs.data() + slot * out_len);
    if (id == 0) {
      ++report.missed;
      continue;
    }
    s.free.pop_back();
    s.expect_id[slot] = id;
    s.request[slot] = k;
    ++report.submitted;
  }

  auto in_flight = [&] {
    std::size_t n = 0;
    for (const Stream& s : streams) n += s.session->in_flight();
    return n;
  };
  const std::uint64_t give_up =
      now_ns() + static_cast<std::uint64_t>(std::max<std::int64_t>(drain_give_up.count(), 0));
  for (;;) {
    drain();
    if (in_flight() == 0 || now_ns() >= give_up) break;
    std::this_thread::yield();
  }
  report.elapsed_s = static_cast<double>(now_ns() - start) / 1e9;
  if (in_flight() != 0) {
    // Gave up: what is still out counts as lost, but the shards still hold
    // those requests' feature and probs buffers. Stopping the server
    // completes every accepted request into these sessions' rings before
    // the sessions and buffers are freed.
    server.stop();
  }
  report.predictions_per_sec = static_cast<double>(report.completed) / report.elapsed_s;
  report.server = server.stats();

  // Nearest-rank quantiles over every planned request.
  std::sort(records.begin(), records.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  auto quantile_us = [&](double q) {
    const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(planned)));
    const std::uint64_t ns = records[std::clamp<std::size_t>(rank, 1, planned) - 1].second;
    return ns == kUnanswered ? std::numeric_limits<double>::infinity()
                             : static_cast<double>(ns) / 1000.0;
  };
  report.p50_us = quantile_us(0.50);
  report.p99_us = quantile_us(0.99);
  return report;
}

}  // namespace dart::serve
