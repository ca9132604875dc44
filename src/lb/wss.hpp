#pragma once
/// \file wss.hpp
/// \brief Wall shear stress extraction — the physiologically relevant
/// observable the paper names first among the data sets in situ
/// post-processing must deliver ("wall stress distributions").

#include <cstdint>
#include <vector>

#include "lb/domain_map.hpp"
#include "util/vec.hpp"

namespace hemo::lb {

struct WssSample {
  std::uint64_t siteId = 0;
  Vec3d worldPos{};
  Vec3d normal{};       ///< outward wall normal
  Vec3d traction{};     ///< tangential traction vector (lattice units)
  double wss = 0.0;     ///< |tangential traction|
};

/// Compute WSS at every owned wall-adjacent site. Requires the solver to
/// run with LbParams::computeStress = true (macro.stress filled).
inline std::vector<WssSample> computeWallShearStress(
    const DomainMap& domain, const MacroFields& macro) {
  std::vector<WssSample> samples;
  if (macro.stress.empty()) return samples;
  const auto& lat = domain.lattice();
  for (std::uint32_t l = 0; l < domain.numOwned(); ++l) {
    const std::uint64_t g = domain.globalOf(l);
    if (!lat.touchesWall(g)) continue;
    const auto rec = lat.site(g);
    if (!rec.hasWallNormal) continue;
    const Vec3d n = rec.wallNormal.cast<double>().normalized();
    const Vec3d t = macro.stress[static_cast<std::size_t>(l)].apply(n);
    const Vec3d tangential = t - n * n.dot(t);
    WssSample s;
    s.siteId = g;
    s.worldPos = lat.siteWorld(g);
    s.normal = n;
    s.traction = tangential;
    s.wss = tangential.norm();
    samples.push_back(s);
  }
  return samples;
}

}  // namespace hemo::lb
