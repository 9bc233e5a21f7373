// The cluster simulation engine: job broker + M servers + event loop.
//
// Continuous-time and event-driven, exactly as the paper's decision
// framework requires: every job arrival is a global-tier decision epoch,
// every idle-entry is a local-tier decision epoch. `step()` processes one
// event so callers can checkpoint metrics at any granularity (the figures
// plot metrics versus number-of-jobs).
//
// Events come from three sources: a cursor over the sorted trace (arrivals
// never enter the heap), the fault injector's retry stream, and the event
// heap (server-local events and the fault plan). At equal timestamps the
// trace arrival goes first, then the retry, then the heap event.
//
// Policies observe the running engine through `const ClusterView&`, an alias
// of this class declared in policies.hpp.
#pragma once

#include <cstddef>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/sim/event_queue.hpp"
#include "src/sim/fault/fault.hpp"
#include "src/sim/metrics.hpp"
#include "src/sim/policies.hpp"
#include "src/sim/server.hpp"
#include "src/sim/types.hpp"

namespace hcrl::sim {

struct ClusterConfig {
  std::size_t num_servers = 30;
  ServerConfig server;
  bool keep_job_records = true;

  void validate() const;
};

class Cluster {
 public:
  /// Policies are borrowed and must outlive the cluster.
  Cluster(const ClusterConfig& cfg, AllocationPolicy& allocation, PowerPolicy& power);

  /// Heterogeneous variant: one ServerConfig per server (size must equal
  /// cfg.num_servers; all must share cfg.server.num_resources). The paper
  /// assumes a homogeneous cluster "without loss of generality" — this
  /// constructor removes that restriction (mixed power models, transition
  /// times, hot-spot thresholds).
  Cluster(const ClusterConfig& cfg, std::vector<ServerConfig> per_server,
          AllocationPolicy& allocation, PowerPolicy& power);

  /// Install deterministic fault injection (borrowed; must outlive the
  /// cluster). Must be called before load_jobs, which materializes the
  /// fault plan into the event queue.
  void install_faults(FaultInjector* faults);

  /// Load the trace. Jobs must pass Job::validate (finite fields), be
  /// sorted by arrival time and have unique ids; throws otherwise. May only
  /// be called once, before stepping.
  void load_jobs(std::vector<Job> jobs);

  /// Process one event; returns false once every source has drained.
  bool step();
  /// Run until all events (arrivals + completions + transitions) drain.
  void run();
  /// Run until at least `n` jobs have completed (or events drain).
  void run_until_completed(std::size_t n);

  /// Current simulation time (the time of the last processed event).
  Time now() const noexcept { return now_; }

  /// All servers, indexed by ServerId. Encoders and heuristics scan these
  /// on every decision.
  std::span<const Server> servers() const noexcept { return servers_; }
  std::size_t num_servers() const noexcept { return servers_.size(); }
  const Server& server(std::size_t i) const {
    if (i >= servers_.size()) {
      throw std::out_of_range("Cluster::server: id " + std::to_string(i) + " out of range");
    }
    return servers_[i];
  }
  /// True when server i is crash-failed. Policies must exclude such
  /// servers from placement; the engine bounces placements into them.
  bool server_failed(std::size_t i) const { return server(i).failed(); }

  ClusterMetrics& metrics() noexcept { return metrics_; }
  const ClusterMetrics& metrics() const noexcept { return metrics_; }
  MetricsSnapshot snapshot() const { return metrics_.snapshot(now_); }

  // ---- exact metric integrals (the Eqn. 4 reward signals) ------------------
  double energy_joules(Time t) const { return metrics_.energy_joules(t); }
  double jobs_in_system_integral(Time t) const { return metrics_.jobs_in_system_integral(t); }
  double reliability_integral(Time t) const { return metrics_.reliability_integral(t); }
  std::size_t jobs_arrived() const noexcept { return metrics_.jobs_arrived(); }
  std::size_t jobs_completed() const noexcept { return metrics_.jobs_completed(); }

  /// Sum of CPU utilizations across servers divided by M (cluster load); O(1).
  double mean_cpu_utilization() const;
  /// Number of servers currently powered on (active or idle); O(1).
  std::size_t servers_on() const;
  /// Number of servers currently crash-failed (0 when faults are off); O(1).
  std::size_t servers_failed() const { return metrics_.servers_failed(); }
  /// Brute-force O(M) rescans of the same quantities. Tests pin the
  /// incremental counters against these; production code should not call them.
  double mean_cpu_utilization_scan() const;
  std::size_t servers_on_scan() const;

  const ClusterConfig& config() const noexcept { return cfg_; }

 private:
  enum class Source { kNone, kArrival, kRetry, kHeap };
  struct Next {
    Source source = Source::kNone;
    Time time = 0.0;
  };

  /// The source of the next event, under the equal-time precedence
  /// trace arrival, then retry, then heap event.
  Next next_event() const;
  void handle(const Event& e);
  /// Route a (trace or retry) arrival to the selected server, bouncing it
  /// into the retry stream when the target has crash-failed.
  void dispatch_arrival(const Job& job);
  /// Re-queue jobs revoked by a crash/eviction through the retry policy.
  void requeue_killed(const std::vector<Job>& killed);

  ClusterConfig cfg_;
  AllocationPolicy& allocation_;
  PowerPolicy& power_policy_;
  ClusterMetrics metrics_;
  std::vector<Server> servers_;
  EventQueue queue_;
  std::vector<Job> jobs_;
  std::size_t next_arrival_ = 0;  // cursor into jobs_
  FaultInjector* faults_ = nullptr;  // not owned; null = faults off
  bool jobs_loaded_ = false;
  bool finished_notified_ = false;
  Time now_ = 0.0;
};

}  // namespace hcrl::sim
