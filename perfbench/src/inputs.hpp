#pragma once
/// \file inputs.hpp
/// \brief Seeded workload inputs: the .sgmy geometries and the steering and
/// hot-rank scripts. `perfbench gen` writes them before any timing
/// starts; `perfbench run` only reads them, so the program under test
/// receives generated inputs and never the seed itself.
///
/// Why each workload exists (see NOTES.md for the full predictions):
///  * batch_large   — a ~600k-site aneurysm, 1.7x the L3 in distributions,
///                    on 4 ranks with vis/serve/checkpoints off: lb and comm
///                    do all the work and the kway partition dominates set-up.
///  * insitu_steered — the paper's Fig 2 loop on a ~75k-site, L3-resident
///                    aneurysm: renders, serving, steering and the relay carry
///                    the run.
///  * restandup     — the stack stood up again on a new partition or from a
///                    snapshot: live migration, checkpoint and buddy writes
///                    next to their restores.

#include <cstdint>
#include <string>
#include <vector>

#include "steer/protocol.hpp"

namespace pb {

/// Geometry file of a workload (shared by every seed: the seed drives the
/// scripts, not the vessel).
std::string geometryPath(const std::string& inputs, const std::string& workload,
                         bool smoke);
/// Per-seed script file of a workload.
std::string scriptPath(const std::string& inputs, const std::string& workload,
                       std::uint64_t seed, bool smoke);

/// One scripted steering command and the response the guard must give it.
struct SteerStep {
  hemo::steer::Command cmd;
  hemo::steer::RejectReason expect = hemo::steer::RejectReason::kNone;
};

/// Passive subscriber codecs: 0 raw, 1 RLE, 2 progressive (via the relay).
struct InsituScript {
  std::vector<SteerStep> steps;
  std::vector<int> subscriberCodecs;
};

/// One migration's vis-aware cost field: the sites the hot rank owns at
/// that moment (the region a vis client is looking at) cost 1 + factor,
/// every other site 1.
struct HotRank {
  int rank = 0;
  double factor = 0.0;
};

struct RestandupScript {
  /// Cycled by successive migrations; no rank follows itself, wrap-around
  /// included, so every call finds the partition out of balance.
  std::vector<HotRank> hot;
};

InsituScript readInsituScript(const std::string& path);
RestandupScript readRestandupScript(const std::string& path);

/// Lattice spacing of a workload's vessel.
double voxelFor(const std::string& workload, bool smoke);

}  // namespace pb
