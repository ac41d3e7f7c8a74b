#include "dlb/analysis/locality.hpp"

#include <algorithm>
#include <queue>

#include "dlb/common/contracts.hpp"

namespace dlb::analysis {

namespace {

/// BFS distances from `src`.
std::vector<node_id> bfs_distances(const graph& g, node_id src) {
  std::vector<node_id> dist(static_cast<size_t>(g.num_nodes()), invalid_node);
  std::queue<node_id> frontier;
  dist[static_cast<size_t>(src)] = 0;
  frontier.push(src);
  while (!frontier.empty()) {
    const node_id i = frontier.front();
    frontier.pop();
    for (const incidence& inc : g.neighbors(i)) {
      if (dist[static_cast<size_t>(inc.neighbor)] == invalid_node) {
        dist[static_cast<size_t>(inc.neighbor)] =
            dist[static_cast<size_t>(i)] + 1;
        frontier.push(inc.neighbor);
      }
    }
  }
  return dist;
}

}  // namespace

locality_stats task_locality(const graph& g, const task_assignment& a) {
  DLB_EXPECTS(a.num_nodes() == g.num_nodes());
  locality_stats stats;
  real_t total_distance = 0;
  std::size_t at_origin = 0;

  // One BFS per distinct origin, lazily.
  std::vector<std::vector<node_id>> dist_cache(
      static_cast<size_t>(g.num_nodes()));
  const auto distances_from = [&](node_id o) -> const std::vector<node_id>& {
    auto& d = dist_cache[static_cast<size_t>(o)];
    if (d.empty()) d = bfs_distances(g, o);
    return d;
  };

  // One step per run: its tasks share one origin, hence one distance. The
  // distance sum is integer-valued, so adding d·count at once gives the
  // same bits as adding d count times.
  for (node_id host = 0; host < g.num_nodes(); ++host) {
    for (const task_run& run : a.pool(host).runs()) {
      const node_id origin = run.origin;
      if (origin == invalid_node) continue;
      DLB_EXPECTS(origin >= 0 && origin < g.num_nodes());
      const node_id d = distances_from(origin)[static_cast<size_t>(host)];
      DLB_EXPECTS(d != invalid_node);  // connected graphs only
      const auto tasks = static_cast<std::size_t>(run.count);
      stats.tasks += tasks;
      total_distance += static_cast<real_t>(d) * static_cast<real_t>(run.count);
      stats.max_distance = std::max(stats.max_distance, d);
      if (d == 0) at_origin += tasks;
    }
  }
  if (stats.tasks > 0) {
    stats.mean_distance = total_distance / static_cast<real_t>(stats.tasks);
    stats.stationary_fraction =
        static_cast<real_t>(at_origin) / static_cast<real_t>(stats.tasks);
  }
  return stats;
}

real_t mean_pairwise_distance(const graph& g) {
  DLB_EXPECTS(g.is_connected());
  real_t total = 0;
  for (node_id src = 0; src < g.num_nodes(); ++src) {
    const auto dist = bfs_distances(g, src);
    for (const node_id d : dist) total += static_cast<real_t>(d);
  }
  const real_t n = static_cast<real_t>(g.num_nodes());
  return total / (n * n);
}

}  // namespace dlb::analysis
