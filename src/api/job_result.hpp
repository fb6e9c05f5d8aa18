// JobResult: the one versioned result schema for a finished job — the
// TrainResult summary (as the bench-record object every BENCH_*.json
// baseline and bench_diff already understand), the per-frame losses, an
// optional analyzer summary, and optionally the flat params+grads (the
// bitwise determinism payload). Serialized over the serve wire protocol
// and by `pipad submit`; parsed back by clients and tests.
//
// bench_record() builds that record. It is the one record builder: the
// bench binaries' JsonReport, `pipad bench --json` and make_result (the
// serve daemon's results) all call it, and bench_diff matches records by
// the field names it emits — so there is exactly one place to add a field
// without silently breaking the CI perf gates.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/json.hpp"
#include "models/training.hpp"

namespace pipad::api {

/// Version of the bench-record schema. Bumped when a field changes meaning
/// or is removed; added fields are backward compatible — bench_diff keys on
/// the legacy fields and tolerates unknown ones, so checked-in BENCH_*.json
/// baselines written before versioning keep gating.
inline constexpr int kBenchRecordSchemaVersion = 2;

/// One flat bench record keyed by (dataset, model, method). Keys in order:
/// the legacy fields (dataset ... final_loss), then `replicas` and
/// `allreduce_us` only on replicated runs (replicas > 0), then
/// `schema_version` last. Numbers are exact, not rounded. `epoch_us` is
/// total_us / epochs, computed by the caller since only it knows the
/// epoch count.
Json bench_record(const std::string& dataset, const std::string& model,
                  const std::string& method, double epoch_us,
                  const models::TrainResult& r);

/// Bump when a field changes meaning or is removed; adding fields is
/// backward compatible (bench_diff ignores unknown fields).
inline constexpr int kResultSchemaVersion = 1;

struct JobResult {
  // Job identity (echoed from the JobSpec / assigned by the scheduler).
  std::uint64_t id = 0;
  std::string tenant = "default";
  int priority = 5;
  std::string tag;

  /// done | failed | cancelled.
  std::string state = "done";
  std::string error;  ///< Non-empty for failed (and "job cancelled").

  /// Completion sequence number within the serving session (1 = first job
  /// to finish) — what the priority-ordering tests and the CI smoke
  /// script assert on.
  std::uint64_t seq = 0;

  /// The bench record as bench_record() builds it: dataset/model/method/
  /// epoch_us/total_us/... with schema_version last. Null for
  /// failed/cancelled jobs.
  Json record;

  /// Per-frame losses in training order. Numbers round-trip the float bit
  /// pattern exactly (see api/json.hpp).
  std::vector<float> frame_loss;

  /// Flat params+grads in canonical parameter order, when the JobSpec set
  /// return_params.
  std::vector<float> params;

  // Analyzer summary, when the JobSpec set run_analyzer.
  bool analyzed = false;
  double critical_path_us = 0.0;
  int findings = 0;
  std::string worst_severity;  ///< "" when no findings fired.

  Json to_json() const;
  static bool from_json(const Json& j, JobResult& out, std::string& error);
};

}  // namespace pipad::api
