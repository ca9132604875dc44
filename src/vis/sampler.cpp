#include "vis/sampler.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace hemo::vis {

namespace {
constexpr int kGhostTag = 101;
}

GhostedField::GhostedField(const lb::DomainMap& domain,
                           comm::Communicator& comm, int rings)
    : domain_(&domain) {
  HEMO_CHECK(rings >= 1);
  const auto& lat = domain.lattice();
  // Ghosts: foreign fluid sites within `rings` 26-neighbourhood steps of an
  // owned site (BFS frontier expansion; one visited byte per global site),
  // grouped by owner. Sorted, a group is the order the owner echoes back
  // and the order ghostSlot binary-searches.
  std::vector<std::vector<std::uint64_t>> wanted(
      static_cast<std::size_t>(comm.size()));
  {
    std::vector<std::uint8_t> seen(
        static_cast<std::size_t>(lat.numFluidSites()), 0);
    std::vector<std::uint64_t> frontier = domain.ownedIds();
    for (const auto g : frontier) seen[static_cast<std::size_t>(g)] = 1;
    for (int ring = 0; ring < rings; ++ring) {
      std::vector<std::uint64_t> next;
      for (const auto g : frontier) {
        for (int d = 0; d < geometry::kNumDirections; ++d) {
          const auto n = lat.neighborId(g, d);
          if (n < 0 || seen[static_cast<std::size_t>(n)]) continue;
          const auto ng = static_cast<std::uint64_t>(n);
          seen[static_cast<std::size_t>(n)] = 1;
          next.push_back(ng);
          wanted[static_cast<std::size_t>(domain.ownerOf(ng))].push_back(ng);
        }
      }
      frontier = std::move(next);
    }
  }
  for (auto& group : wanted) std::sort(group.begin(), group.end());

  // Receive ranges: ghostIds_ is the groups back to back.
  std::size_t numGhosts = 0;
  for (const auto& group : wanted) numGhosts += group.size();
  ghostIds_.reserve(numGhosts);
  recvOffset_.assign(static_cast<std::size_t>(comm.size()) + 1, 0);
  for (int r = 0; r < comm.size(); ++r) {
    const auto& group = wanted[static_cast<std::size_t>(r)];
    ghostIds_.insert(ghostIds_.end(), group.begin(), group.end());
    recvOffset_[static_cast<std::size_t>(r) + 1] =
        static_cast<std::uint32_t>(ghostIds_.size());
    if (!group.empty()) {
      recvRanges_.push_back({r, static_cast<std::uint32_t>(group.size())});
    }
  }
  ghostU_.assign(ghostIds_.size(), Vec3d{});
  ghostRho_.assign(ghostIds_.size(), 1.0);

  comm::Communicator::TrafficScope scope(comm, comm::Traffic::kVis);
  const auto requests = comm.alltoallVec(wanted);
  for (int r = 0; r < comm.size(); ++r) {
    const auto& reqs = requests[static_cast<std::size_t>(r)];
    if (reqs.empty()) continue;
    SendPlan plan;
    plan.dest = r;
    plan.locals.reserve(reqs.size());
    for (const auto g : reqs) {
      const auto local = domain.localOf(g);
      HEMO_CHECK_MSG(local >= 0, "ghost request for non-owned site");
      plan.locals.push_back(static_cast<std::uint32_t>(local));
    }
    sendPlans_.push_back(std::move(plan));
  }
}

void GhostedField::refresh(const lb::MacroFields& macro,
                           comm::Communicator& comm) {
  macro_ = &macro;
  comm::Communicator::TrafficScope scope(comm, comm::Traffic::kVis);
  std::vector<double> buf;
  for (const auto& plan : sendPlans_) {
    buf.clear();
    buf.reserve(plan.locals.size() * 4);
    for (const auto l : plan.locals) {
      const Vec3d& u = macro.u[static_cast<std::size_t>(l)];
      buf.push_back(u.x);
      buf.push_back(u.y);
      buf.push_back(u.z);
      buf.push_back(macro.rho[static_cast<std::size_t>(l)]);
    }
    comm.sendVec(plan.dest, kGhostTag, buf);
  }
  for (const auto& [rank, count] : recvRanges_) {
    const auto incoming = comm.recvVec<double>(rank, kGhostTag);
    HEMO_CHECK(incoming.size() == static_cast<std::size_t>(count) * 4);
    const auto off = recvOffset_[static_cast<std::size_t>(rank)];
    for (std::uint32_t i = 0; i < count; ++i) {
      ghostU_[off + i] = {incoming[i * 4], incoming[i * 4 + 1],
                          incoming[i * 4 + 2]};
      ghostRho_[off + i] = incoming[i * 4 + 3];
    }
  }
}

std::optional<Vec3d> GhostedField::velocityAt(std::uint64_t global) const {
  HEMO_CHECK_MSG(macro_ != nullptr, "GhostedField::refresh not called");
  const auto local = domain_->localOf(global);
  if (local >= 0) return macro_->u[static_cast<std::size_t>(local)];
  const auto slot = ghostSlot(global);
  if (slot < 0) return std::nullopt;
  return ghostU_[static_cast<std::size_t>(slot)];
}

std::optional<double> GhostedField::densityAt(std::uint64_t global) const {
  HEMO_CHECK_MSG(macro_ != nullptr, "GhostedField::refresh not called");
  const auto local = domain_->localOf(global);
  if (local >= 0) return macro_->rho[static_cast<std::size_t>(local)];
  const auto slot = ghostSlot(global);
  if (slot < 0) return std::nullopt;
  return ghostRho_[static_cast<std::size_t>(slot)];
}

std::int64_t GhostedField::ghostSlot(std::uint64_t global) const {
  if (global >= domain_->lattice().numFluidSites()) return -1;
  const auto owner = static_cast<std::size_t>(domain_->ownerOf(global));
  const auto first = ghostIds_.begin() + recvOffset_[owner];
  const auto last = ghostIds_.begin() + recvOffset_[owner + 1];
  const auto it = std::lower_bound(first, last, global);
  if (it == last || *it != global) return -1;
  return it - ghostIds_.begin();
}

std::int64_t VelocitySampler::containingSite(const Vec3d& world) const {
  const auto& lat = field_->domain().lattice();
  const Vec3d rel = (world - lat.origin()) / lat.voxelSize();
  const Vec3i p{static_cast<int>(std::floor(rel.x)),
                static_cast<int>(std::floor(rel.y)),
                static_cast<int>(std::floor(rel.z))};
  return lat.siteId(p);
}

std::optional<Vec3d> VelocitySampler::sample(const Vec3d& world) const {
  const auto& lat = field_->domain().lattice();
  const auto base = containingSite(world);
  if (base < 0) return std::nullopt;

  // Trilinear over the 8 site centres surrounding the point.
  const double h = lat.voxelSize();
  const Vec3d rel = (world - lat.origin()) / h - Vec3d{0.5, 0.5, 0.5};
  const Vec3i c0{static_cast<int>(std::floor(rel.x)),
                 static_cast<int>(std::floor(rel.y)),
                 static_cast<int>(std::floor(rel.z))};
  const Vec3d frac = rel - c0.cast<double>();

  Vec3d acc{0, 0, 0};
  for (int dz = 0; dz < 2; ++dz) {
    for (int dy = 0; dy < 2; ++dy) {
      for (int dx = 0; dx < 2; ++dx) {
        const double wgt = (dx ? frac.x : 1.0 - frac.x) *
                           (dy ? frac.y : 1.0 - frac.y) *
                           (dz ? frac.z : 1.0 - frac.z);
        if (wgt <= 0.0) continue;
        const auto corner = lat.siteId(c0 + Vec3i{dx, dy, dz});
        if (corner < 0) continue;  // wall corner: no-slip, zero velocity
        const auto u =
            field_->velocityAt(static_cast<std::uint64_t>(corner));
        if (!u) return std::nullopt;  // base not available on this rank
        acc += *u * wgt;
      }
    }
  }
  return acc;
}

}  // namespace hemo::vis
