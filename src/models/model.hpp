// DgnnModel: common interface for the three evaluation models (§2.1).
//
// A model trains on one frame at a time: forward over the frame's snapshots,
// mean-MSE node-regression loss against per-snapshot targets, full backward
// (including BPTT through the RNN chains), leaving gradients accumulated in
// its parameters. The caller owns the optimizer step.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "models/executor.hpp"
#include "nn/parameter.hpp"

namespace pipad::models {

class DgnnModel {
 public:
  virtual ~DgnnModel() = default;

  virtual std::string name() const = 0;

  /// Forward + backward over one frame. xs/targets are per-snapshot raw
  /// features and regression targets (frame order). Returns the loss.
  virtual float train_frame(FrameExecutor& ex,
                            const std::vector<const Tensor*>& xs,
                            const std::vector<const Tensor*>& targets) = 0;

  /// Forward-only (for loss tracking in tests/examples).
  virtual float eval_frame(FrameExecutor& ex,
                           const std::vector<const Tensor*>& xs,
                           const std::vector<const Tensor*>& targets) = 0;

  virtual std::vector<nn::Parameter*> params() = 0;

  /// True when GCN weights differ per snapshot (EvolveGCN): the runtime
  /// must not apply locality-optimized weight reuse to the GCN update
  /// (§4.2), and must expect a second non-cacheable aggregation layer.
  virtual bool weights_evolve() const { return false; }

  /// Number of aggregation layers. Layer 0 (raw features) is always
  /// cacheable; with inter-frame reuse, models with more than one layer
  /// still need the snapshot topology on the device (§5.2).
  virtual int num_agg_layers() const = 0;
};

enum class ModelType { MpnnLstm, EvolveGcn, TGcn, Gcn };

/// The models a JobSpec can name, in the order its error texts list them.
inline constexpr ModelType kModels[] = {ModelType::Gcn, ModelType::TGcn,
                                        ModelType::EvolveGcn,
                                        ModelType::MpnnLstm};

/// Record and table label: "MPNN-LSTM", "EvolveGCN", "T-GCN", "GCN".
const char* model_type_name(ModelType t);

/// The model a JobSpec model string names ("gcn", "tgcn", "evolvegcn",
/// "mpnn-lstm"); nullopt when it names none.
inline std::optional<ModelType> parse_model(const std::string& name) {
  constexpr const char* kNames[] = {"mpnn-lstm", "evolvegcn", "tgcn", "gcn"};
  for (const ModelType m : kModels) {
    if (name == kNames[static_cast<int>(m)]) return m;
  }
  return std::nullopt;
}

/// Factory. in_dim = dataset feature dimension; hidden_dim per §5.1 (32 for
/// small-feature datasets is the paper's hidden for D=16; 6 for D=2).
std::unique_ptr<DgnnModel> make_model(ModelType type, int in_dim,
                                      int hidden_dim, Rng& rng);

/// The paper's hidden-size rule (§5.1): D=2 -> hidden 6, D=16 -> hidden 32.
inline int default_hidden_dim(int in_dim) { return in_dim <= 2 ? 6 : 32; }

/// Mean-MSE regression loss over a frame's per-snapshot predictions — the
/// head-loss every DGNN shares. When `train`, fills `d_preds` with the
/// 1/T-scaled gradients; records one ew:loss kernel per snapshot on `rec`
/// (nullptr = no recording).
float frame_mse_loss(const std::vector<Tensor>& preds,
                     const std::vector<const Tensor*>& targets, bool train,
                     std::vector<Tensor>& d_preds,
                     kernels::KernelRecorder* rec);

}  // namespace pipad::models
