// Simulated client load for the serving layer (DESIGN.md §9): one client
// thread drives `streams` sessions of a PrefetchServer with open-loop
// Poisson arrivals. Each stream replays a synthetic access stream
// (src/trace generators) exactly as a prefetching front-end would — a
// rolling T-deep history window, segmented into the model's [T, S] feature
// rows per request. Latency is timed from each request's *intended* send
// time, so a stall also charges the requests scheduled behind it, and a
// request that cannot be sent is a miss, never a retry. Used by
// `dart_run --serve`.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "serve/server.hpp"
#include "trace/preprocess.hpp"
#include "trace/workloads.hpp"

namespace dart::serve {

/// Largest `LoadOptions::streams` run_client_load accepts.
inline constexpr std::size_t kMaxStreams = 256;
/// Largest `streams * requests_per_stream` run_client_load accepts: each
/// planned request owns one record, allocated before the first send.
inline constexpr std::size_t kMaxPlannedRequests = std::size_t{1} << 24;
/// Largest `LoadOptions::trace_accesses` run_client_load accepts.
inline constexpr std::size_t kMaxTraceAccesses = std::size_t{1} << 24;
/// Longest arrival schedule run_client_load accepts, in seconds: planned
/// requests / `rate_per_s`.
inline constexpr double kMaxScheduleSeconds = static_cast<double>(common::kMaxTimerSeconds);

/// Client-load shape. Request k of `streams * requests_per_stream` goes to
/// stream k mod `streams`; stream i replays workload
/// `workloads[i % workloads.size()]`.
struct LoadOptions {
  std::size_t streams = 8;                  ///< client sessions, in [1, kMaxStreams]
  std::size_t requests_per_stream = 20000;  ///< >= 1; streams x this <= kMaxPlannedRequests
  /// Total offered rate; finite, > 0, and at most kMaxScheduleSeconds of
  /// arrivals for the planned requests.
  double rate_per_s = 50000.0;
  std::size_t trace_accesses = 100000;      ///< generated accesses per stream (wraps), >= 1
  std::uint64_t seed = 1;                   ///< trace-generation and arrival seed base
  trace::PreprocessOptions prep;            ///< feature geometry (must match the server)
  /// Replayed workloads (trace::App converts implicitly); empty = all of
  /// Table IV. Accepts the full spec grammar via DART_SERVE_WORKLOADS, so
  /// the serving load generator replays the same corpus as the sweeps.
  std::vector<trace::Workload> workloads;

  /// Defaults overridden by DART_SERVE_STREAMS / DART_SERVE_REQUESTS /
  /// DART_SERVE_RATE / DART_SERVE_WORKLOADS (';'-separated spec list).
  static LoadOptions from_env();
};

/// Outcome of one load run. Every planned request is exactly one of
/// completed, shed, missed or lost (`submitted - completed - shed`, still
/// unanswered when the drain gave up); a correct server under a load it
/// can carry loses none and mis-routes none. Rates and latencies are
/// host-dependent.
struct LoadReport {
  std::size_t streams = 0;
  std::uint64_t submitted = 0;       ///< requests the server accepted
  std::uint64_t completed = 0;       ///< responses served (Response::Status::kOk)
  std::uint64_t shed = 0;            ///< responses explicitly shed by the server
  std::uint64_t missed = 0;          ///< never sent: no free session slot, or submit refused
  std::uint64_t id_mismatches = 0;   ///< responses with an unexpected trace ID or buffer
  double elapsed_s = 0.0;            ///< start of the arrival schedule to the end of the drain
  double predictions_per_sec = 0.0;  ///< completed / elapsed_s
  /// Client latency quantiles from the intended send time, microseconds.
  /// Missed, shed and lost requests count as +infinity.
  double p50_us = 0.0;
  double p99_us = 0.0;
  ServeStatsSummary server;  ///< server-side counters at completion
};

/// Runs the load against `server` from the calling thread and returns
/// after every accepted request has resolved, or `drain_give_up` after the
/// last send. Each session holds `server.config().completion_capacity`
/// request slots. When the drain gives up, the unanswered requests count
/// as lost and the server is stopped (PrefetchServer::stop), so that every
/// request it holds completes before the client buffers it borrowed are
/// freed; a stopped server serves nothing more. Throws
/// std::invalid_argument, before connecting or allocating anything, when
/// `options` is outside the bounds documented on its fields or when
/// `options.prep` geometry does not match the server's model architecture.
LoadReport run_client_load(PrefetchServer& server, const LoadOptions& options,
                           std::chrono::nanoseconds drain_give_up = std::chrono::seconds(10));

}  // namespace dart::serve
