#include "core/noc_placement.hpp"

#include <algorithm>
#include <numeric>

#include "util/error.hpp"

namespace hybridic::core {

namespace {

/// Symmetric traffic lookup built once for the solvers.
class TrafficMatrix {
public:
  explicit TrafficMatrix(const PlacementProblem& problem)
      : n_(problem.attachment_count), data_(n_ * n_, 0) {
    for (const auto& [a, b, bytes] : problem.traffic) {
      require(a < n_ && b < n_, "placement traffic index out of range");
      data_[a * n_ + b] += bytes;
      data_[b * n_ + a] += bytes;
    }
  }

  [[nodiscard]] std::uint64_t at(std::uint32_t a, std::uint32_t b) const {
    return data_[a * n_ + b];
  }
  [[nodiscard]] std::uint64_t total_for(std::uint32_t a) const {
    std::uint64_t sum = 0;
    for (std::uint32_t b = 0; b < n_; ++b) {
      sum += at(a, b);
    }
    return sum;
  }
  [[nodiscard]] std::uint32_t size() const { return n_; }

private:
  std::uint32_t n_;
  std::vector<std::uint64_t> data_;
};

std::uint64_t cost_of(const TrafficMatrix& traffic, const noc::Mesh2D& mesh,
                      const std::vector<std::uint32_t>& node_of) {
  std::uint64_t cost = 0;
  for (std::uint32_t a = 0; a < traffic.size(); ++a) {
    for (std::uint32_t b = a + 1; b < traffic.size(); ++b) {
      const std::uint64_t bytes = traffic.at(a, b);
      if (bytes > 0) {
        cost += bytes * mesh.distance(node_of[a], node_of[b]);
      }
    }
  }
  return cost;
}

/// One pass of best-improvement pairwise swaps; returns true if improved.
bool improve_once(const TrafficMatrix& traffic, const noc::Mesh2D& mesh,
                  std::vector<std::uint32_t>& node_of, std::uint64_t& cost) {
  const std::uint32_t n = traffic.size();
  for (std::uint32_t a = 0; a < n; ++a) {
    for (std::uint32_t b = a + 1; b < n; ++b) {
      std::swap(node_of[a], node_of[b]);
      const std::uint64_t candidate = cost_of(traffic, mesh, node_of);
      if (candidate < cost) {
        cost = candidate;
        return true;
      }
      std::swap(node_of[a], node_of[b]);
    }
  }
  return false;
}

}  // namespace

std::uint64_t placement_cost(const PlacementProblem& problem,
                             const noc::Mesh2D& mesh,
                             const std::vector<std::uint32_t>& node_of) {
  require(node_of.size() == problem.attachment_count,
          "placement assignment size mismatch");
  return cost_of(TrafficMatrix{problem}, mesh, node_of);
}

PlacementResult place_attachments(const PlacementProblem& problem) {
  require(problem.attachment_count > 0,
          "placement requires at least one attachment");
  const TrafficMatrix traffic{problem};
  const noc::Mesh2D mesh = noc::Mesh2D::fitting(problem.attachment_count);
  const std::uint32_t n = problem.attachment_count;

  // Greedy: seed with the most-communicating attachment at the mesh center;
  // place each subsequent attachment (by descending total traffic) at the
  // free node minimizing incremental cost to already-placed peers.
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&traffic](std::uint32_t a, std::uint32_t b) {
                     return traffic.total_for(a) > traffic.total_for(b);
                   });

  std::vector<bool> node_used(mesh.node_count(), false);
  std::vector<std::uint32_t> node_of(n, 0);
  std::vector<bool> placed(n, false);

  const std::uint32_t center =
      mesh.id_of({mesh.width() / 2, mesh.height() / 2});
  node_of[order[0]] = center;
  node_used[center] = true;
  placed[order[0]] = true;

  for (std::uint32_t k = 1; k < n; ++k) {
    const std::uint32_t item = order[k];
    std::uint64_t best_cost = UINT64_MAX;
    std::uint32_t best_node = 0;
    for (std::uint32_t node = 0; node < mesh.node_count(); ++node) {
      if (node_used[node]) {
        continue;
      }
      std::uint64_t incremental = 0;
      for (std::uint32_t other = 0; other < n; ++other) {
        if (placed[other] && traffic.at(item, other) > 0) {
          incremental +=
              traffic.at(item, other) * mesh.distance(node, node_of[other]);
        }
      }
      if (incremental < best_cost) {
        best_cost = incremental;
        best_node = node;
      }
    }
    node_of[item] = best_node;
    node_used[best_node] = true;
    placed[item] = true;
  }

  std::uint64_t cost = cost_of(traffic, mesh, node_of);
  while (improve_once(traffic, mesh, node_of, cost)) {
  }
  return PlacementResult{mesh, std::move(node_of), cost};
}

}  // namespace hybridic::core
