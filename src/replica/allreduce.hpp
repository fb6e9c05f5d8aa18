// Gradient all-reduce across K simulated devices: canonical numerics, a
// ring timing model.
//
// The numeric reduction is ALWAYS the fixed-order serial sum (index order
// over the contributions, one float accumulator per element) — never the
// ring's own chunked arithmetic. A real ring all-reduce sums each chunk in
// a rotated order, which is deterministic for a fixed K but changes bits
// when K changes; since this repo's wall is "bit-identical results for any
// replica count", the ring only models the interconnect TIME: 2(K-1)
// steps (reduce-scatter + all-gather), each moving bytes/K at
// latency + (bytes/K)/BW. Steps are charged back-to-back to each replica's
// Resource::Link lane as "comm:allreduce:ring" ops (replica_trainer.cpp).
#pragma once

#include <cstddef>
#include <vector>

namespace pipad::replica {

/// Interconnect model (PipadOptions carries the user-facing knobs).
struct LinkModel {
  double latency_us = 5.0;
  double gb_per_s = 50.0;
};

/// Number of modeled interconnect steps for K replicas (0 when K <= 1: a
/// single replica never touches the link).
int allreduce_steps(int replicas);

/// Payload bytes moved per step: one chunk of the payload, rounded up.
std::size_t allreduce_step_bytes(int replicas, std::size_t bytes);

/// Duration of one step under the link model.
double allreduce_step_us(int replicas, std::size_t bytes,
                         const LinkModel& link);

/// Canonical numeric reduction: out[i] = (sum over parts in index order of
/// parts[j][i]) / parts.size().
std::vector<float> reduce_mean(const std::vector<std::vector<float>>& parts);

}  // namespace pipad::replica
