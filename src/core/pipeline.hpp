#pragma once
/// \file pipeline.hpp
/// \brief The in situ post-processing pipeline of Fig 3: data extraction →
/// filtering → mapping → rendering, executed against the live simulation
/// state with per-stage timing (the pipeline-cost series of bench F3).

#include <memory>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "lb/domain_map.hpp"
#include "multires/octree.hpp"
#include "multires/roi.hpp"
#include "telemetry/telemetry.hpp"
#include "util/timer.hpp"
#include "vis/lic.hpp"
#include "vis/line_render.hpp"
#include "vis/particles.hpp"
#include "vis/sampler.hpp"
#include "vis/streamlines.hpp"
#include "vis/volume.hpp"

namespace hemo::core {

/// What one pipeline execution produced (master-rank fields are only filled
/// on rank 0).
struct PipelineOutputs {
  std::uint64_t step = 0;
  // filter stage: reduced statistics (valid on every rank).
  double minSpeed = 0.0, maxSpeed = 0.0, meanSpeed = 0.0;
  double meanWss = 0.0, maxWss = 0.0;
  // context view of the field octree (rank 0).
  std::vector<multires::OctreeNode> contextNodes;
  // rendering (rank 0).
  vis::Image volumeImage;
  std::vector<vis::Polyline> streamlines;
  vis::LicResult lic;
};

/// Everything a stage may touch during one pipeline run.
struct PipelineContext {
  comm::Communicator* comm = nullptr;
  const lb::DomainMap* domain = nullptr;
  const lb::MacroFields* macro = nullptr;
  vis::GhostedField* ghosts = nullptr;
  multires::FieldOctree* octree = nullptr;
  std::uint64_t step = 0;
  PipelineOutputs out;
};

/// One stage of the Fig 3 pipeline.
class Stage {
 public:
  virtual ~Stage() = default;
  virtual const char* name() const = 0;
  virtual void run(PipelineContext& ctx) = 0;
};

/// Ordered stage list with per-stage CPU timing.
class InSituPipeline {
 public:
  void addStage(std::unique_ptr<Stage> stage) {
    stages_.push_back(std::move(stage));
    timers_.emplace_back();
  }

  std::size_t numStages() const { return stages_.size(); }
  const char* stageName(std::size_t i) const { return stages_[i]->name(); }
  double stageSeconds(std::size_t i) const { return timers_[i].total(); }
  /// Summed seconds of every stage.
  double totalSeconds() const {
    double total = 0.0;
    for (const auto& t : timers_) total += t.total();
    return total;
  }
  void resetTimers() {
    for (auto& t : timers_) t.reset();
  }

  /// Run all stages in order (collective).
  PipelineOutputs run(PipelineContext& ctx) {
    for (std::size_t i = 0; i < stages_.size(); ++i) {
      ScopedPhase phase(timers_[i]);
      HEMO_TSPAN(kVis, stages_[i]->name());
      stages_[i]->run(ctx);
    }
    return std::move(ctx.out);
  }

 private:
  std::vector<std::unique_ptr<Stage>> stages_;
  std::vector<PhaseTimer> timers_;
};

// --- built-in stages -----------------------------------------------------------

/// Extraction: refresh the ghost field and the multiresolution cache from
/// the solver's current macroscopic state.
class ExtractStage final : public Stage {
 public:
  const char* name() const override { return "extract"; }
  void run(PipelineContext& ctx) override;
};

/// Filtering/reduction: global field statistics and the coarse context
/// level of the octree — the data-reduction step §V builds on.
class FilterStage final : public Stage {
 public:
  explicit FilterStage(int contextLevel = 2) : contextLevel_(contextLevel) {}
  const char* name() const override { return "filter"; }
  void run(PipelineContext& ctx) override;

 private:
  int contextLevel_;
};

/// Mapping: derive renderable geometry — wall shear stress samples and
/// streamline polylines.
class MapStage final : public Stage {
 public:
  MapStage(std::vector<Vec3d> seeds, vis::StreamlineParams params,
           bool computeWss)
      : seeds_(std::move(seeds)), params_(params), computeWss_(computeWss) {}
  const char* name() const override { return "map"; }
  void run(PipelineContext& ctx) override;

 private:
  std::vector<Vec3d> seeds_;
  vis::StreamlineParams params_;
  bool computeWss_;
};

/// Rendering: distributed volume rendering (+ streamline overlay) and
/// optionally a LIC slice.
class RenderStage final : public Stage {
 public:
  RenderStage(const vis::VolumeRenderOptions& options, bool drawLines,
              bool lic, vis::LicOptions licOptions = {})
      : options_(options), drawLines_(drawLines), lic_(lic),
        licOptions_(licOptions) {}
  const char* name() const override { return "render"; }
  void run(PipelineContext& ctx) override;

  vis::VolumeRenderOptions& options() { return options_; }

  /// Volume renders executed so far — the serving layer's proof that M
  /// subscribed clients cost one render, not M.
  std::uint64_t rendersDone() const { return rendersDone_; }

 private:
  vis::VolumeRenderOptions options_;
  bool drawLines_;
  bool lic_;
  vis::LicOptions licOptions_;
  std::uint64_t rendersDone_ = 0;
};

}  // namespace hemo::core
