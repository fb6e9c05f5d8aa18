#include "replica/allreduce.hpp"

#include "common/error.hpp"

namespace pipad::replica {

int allreduce_steps(int replicas) {
  PIPAD_CHECK_MSG(replicas >= 1, "need at least one replica");
  return 2 * (replicas - 1);
}

std::size_t allreduce_step_bytes(int replicas, std::size_t bytes) {
  PIPAD_CHECK_MSG(replicas >= 1, "need at least one replica");
  // Reduce-scatter/all-gather move one chunk of the payload per step.
  return (bytes + static_cast<std::size_t>(replicas) - 1) /
         static_cast<std::size_t>(replicas);
}

double allreduce_step_us(int replicas, std::size_t bytes,
                         const LinkModel& link) {
  PIPAD_CHECK_MSG(link.gb_per_s > 0.0, "link bandwidth must be positive");
  // 1 GB/s = 1e9 B / 1e6 us = 1000 bytes per microsecond.
  const double bytes_per_us = link.gb_per_s * 1000.0;
  const double payload =
      static_cast<double>(allreduce_step_bytes(replicas, bytes));
  return link.latency_us + payload / bytes_per_us;
}

std::vector<float> reduce_mean(const std::vector<std::vector<float>>& parts) {
  PIPAD_CHECK_MSG(!parts.empty(), "reduce_mean over zero contributions");
  const std::size_t n = parts[0].size();
  for (const auto& p : parts) {
    PIPAD_CHECK_MSG(p.size() == n, "ragged reduce_mean contributions");
  }
  const float count = static_cast<float>(parts.size());
  std::vector<float> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    float acc = parts[0][i];
    for (std::size_t j = 1; j < parts.size(); ++j) acc += parts[j][i];
    out[i] = acc / count;
  }
  return out;
}

}  // namespace pipad::replica
