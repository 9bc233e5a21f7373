#include "src/sim/policies.hpp"

#include "src/sim/cluster.hpp"
#include "src/sim/server.hpp"

namespace hcrl::sim {

namespace {

/// Failure mask for stateless allocators: first non-failed server scanning
/// cyclically from `start`. Returns `start` itself when every server is
/// failed (the engine then bounces the placement into the retry stream).
/// A no-op (returns `start`) whenever fault injection is off.
ServerId first_live_from(const ClusterView& cluster, ServerId start) {
  const std::size_t m = cluster.num_servers();
  for (std::size_t k = 0; k < m; ++k) {
    const ServerId i = (start + k) % m;
    if (!cluster.server(i).failed()) return i;
  }
  return start;
}

}  // namespace

ServerId RoundRobinAllocator::select_server(const ClusterView& cluster, const Job& job) {
  (void)job;
  const ServerId chosen = next_ % cluster.num_servers();
  next_ = (next_ + 1) % cluster.num_servers();
  return first_live_from(cluster, chosen);
}

ServerId RandomAllocator::select_server(const ClusterView& cluster, const Job& job) {
  (void)job;
  const auto chosen = static_cast<ServerId>(
      rng_.uniform_int(0, static_cast<std::int64_t>(cluster.num_servers()) - 1));
  return first_live_from(cluster, chosen);
}

ServerId LeastLoadedAllocator::select_server(const ClusterView& cluster, const Job& job) {
  (void)job;
  // Prefer the least-utilized awake server; wake a sleeping one only when
  // no awake server can absorb the job without saturating.
  ServerId best_awake = cluster.num_servers();
  double best_util = 2.0;
  for (ServerId i = 0; i < cluster.num_servers(); ++i) {
    const Server& s = cluster.server(i);
    if (!s.is_on() && s.power_state() != PowerState::kWaking) continue;
    const double u = s.utilization(0) + static_cast<double>(s.queue_length());
    if (u < best_util) {
      best_util = u;
      best_awake = i;
    }
  }
  if (best_awake < cluster.num_servers() && best_util + job.demand[0] <= 1.0) return best_awake;
  // Saturated (or nothing awake): pick any sleeping server, else least loaded.
  // (kFailed is excluded everywhere: it is neither on, waking, nor kSleep.)
  for (ServerId i = 0; i < cluster.num_servers(); ++i) {
    if (cluster.server(i).power_state() == PowerState::kSleep) return i;
  }
  return best_awake < cluster.num_servers() ? best_awake : first_live_from(cluster, 0);
}

ServerId FirstFitPackingAllocator::select_server(const ClusterView& cluster, const Job& job) {
  // Choose the *busiest* awake server whose free resources fit the job and
  // whose queue is empty (consolidation without creating waits); fall back
  // to waking the first sleeping server, then to the shortest queue.
  ServerId best = cluster.num_servers();
  double best_util = -1.0;
  for (ServerId i = 0; i < cluster.num_servers(); ++i) {
    const Server& s = cluster.server(i);
    const bool usable = s.is_on() || s.power_state() == PowerState::kWaking;
    if (!usable || s.queue_length() > 0) continue;
    if (!s.available().fits(job.demand)) continue;
    if (s.utilization(0) > best_util) {
      best_util = s.utilization(0);
      best = i;
    }
  }
  if (best < cluster.num_servers()) return best;
  for (ServerId i = 0; i < cluster.num_servers(); ++i) {
    if (cluster.server(i).power_state() == PowerState::kSleep) return i;
  }
  // Everything is busy: shortest combined backlog among live servers.
  ServerId fallback = cluster.num_servers();
  std::size_t best_backlog = static_cast<std::size_t>(-1);
  for (ServerId i = 0; i < cluster.num_servers(); ++i) {
    if (cluster.server(i).failed()) continue;
    const std::size_t backlog = cluster.server(i).jobs_on_server();
    if (backlog < best_backlog) {
      best_backlog = backlog;
      fallback = i;
    }
  }
  return fallback < cluster.num_servers() ? fallback : 0;
}

namespace {

/// Shared fallback when no awake server can take the job now: wake the first
/// sleeping server, else join the shortest combined backlog among live
/// servers (0 as a last resort when the whole cluster is failed — the
/// engine bounces that placement).
ServerId wake_or_shortest_backlog(const ClusterView& cluster) {
  for (ServerId i = 0; i < cluster.num_servers(); ++i) {
    if (cluster.server(i).power_state() == PowerState::kSleep) return i;
  }
  ServerId fallback = cluster.num_servers();
  std::size_t best_backlog = static_cast<std::size_t>(-1);
  for (ServerId i = 0; i < cluster.num_servers(); ++i) {
    if (cluster.server(i).failed()) continue;
    const std::size_t backlog = cluster.server(i).jobs_on_server();
    if (backlog < best_backlog) {
      best_backlog = backlog;
      fallback = i;
    }
  }
  return fallback < cluster.num_servers() ? fallback : 0;
}

/// Scan the awake (or waking), empty-queue servers that fit `job` and return
/// the one with the best score (strictly-greater wins, so ties keep the
/// lowest id). Returns num_servers when no server qualifies.
template <class ScoreFn>
ServerId best_scoring_fit(const ClusterView& cluster, const Job& job, ScoreFn score) {
  ServerId best = cluster.num_servers();
  double best_score = -std::numeric_limits<double>::infinity();
  for (ServerId i = 0; i < cluster.num_servers(); ++i) {
    const Server& s = cluster.server(i);
    const bool usable = s.is_on() || s.power_state() == PowerState::kWaking;
    if (!usable || s.queue_length() > 0) continue;
    if (!s.available().fits(job.demand)) continue;
    const double sc = score(s);
    if (sc > best_score) {
      best_score = sc;
      best = i;
    }
  }
  return best;
}

double total_available(const Server& s) {
  const ResourceVector avail = s.available();
  double sum = 0.0;
  for (std::size_t d = 0; d < avail.dims(); ++d) sum += avail[d];
  return sum;
}

}  // namespace

ServerId BestFitAllocator::select_server(const ClusterView& cluster, const Job& job) {
  const ServerId best = best_scoring_fit(cluster, job, [](const Server& s) {
    return -total_available(s);  // least leftover = tightest bin
  });
  if (best < cluster.num_servers()) return best;
  return wake_or_shortest_backlog(cluster);
}

ServerId WorstFitAllocator::select_server(const ClusterView& cluster, const Job& job) {
  const ServerId best = best_scoring_fit(cluster, job, &total_available);
  if (best < cluster.num_servers()) return best;
  return wake_or_shortest_backlog(cluster);
}

ServerId TetrisAllocator::select_server(const ClusterView& cluster, const Job& job) {
  const ServerId best = best_scoring_fit(cluster, job, [&job](const Server& s) {
    const ResourceVector avail = s.available();
    double dot = 0.0;
    for (std::size_t d = 0; d < avail.dims() && d < job.demand.dims(); ++d) {
      dot += avail[d] * job.demand[d];
    }
    return dot;
  });
  if (best < cluster.num_servers()) return best;
  return wake_or_shortest_backlog(cluster);
}

RandomKAllocator::RandomKAllocator(std::size_t k, common::Rng rng) : k_(k), rng_(rng) {
  if (k == 0) throw std::invalid_argument("RandomKAllocator: k == 0");
}

ServerId RandomKAllocator::select_server(const ClusterView& cluster, const Job& job) {
  (void)job;
  // k independent draws (with replacement — the classic power-of-k-choices
  // sampler); among the sampled servers prefer the least-loaded usable one.
  ServerId chosen = cluster.num_servers();
  double chosen_load = std::numeric_limits<double>::infinity();
  for (std::size_t draw = 0; draw < k_; ++draw) {
    const auto i = static_cast<ServerId>(
        rng_.uniform_int(0, static_cast<std::int64_t>(cluster.num_servers()) - 1));
    const Server& s = cluster.server(i);
    if (s.failed()) continue;  // failed samples burn a draw but never win
    const bool usable = s.is_on() || s.power_state() == PowerState::kWaking;
    // Sleeping samples are admissible (they wake on dispatch) but rank after
    // any usable sample: charge them the wake as one queued-job equivalent.
    const double load = s.utilization(0) + static_cast<double>(s.queue_length()) +
                        (usable ? 0.0 : 1.0 + static_cast<double>(s.jobs_on_server()));
    if (load < chosen_load) {
      chosen_load = load;
      chosen = i;
    }
  }
  return chosen < cluster.num_servers() ? chosen : first_live_from(cluster, 0);
}

double AlwaysOnPolicy::on_idle(const Server& server, Time now) {
  (void)server;
  (void)now;
  return kNeverSleep;
}

double ImmediateSleepPolicy::on_idle(const Server& server, Time now) {
  (void)server;
  (void)now;
  return 0.0;
}

double FixedTimeoutPolicy::on_idle(const Server& server, Time now) {
  (void)server;
  (void)now;
  return timeout_;
}

}  // namespace hcrl::sim
