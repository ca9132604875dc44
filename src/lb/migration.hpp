#pragma once
/// \file migration.hpp
/// \brief The one owner-routed state transfer: live migration, buddy restore
/// and disk restore all put populations onto a partition through it.
///
/// The paper argues interactive runs create "the opportunity to adjust the
/// partitioning mid-term", and at exascale state must also be rebuilt after
/// a failure. Both are the same job: ranks hold site-tagged populations —
/// the old owners' live state, decoded buddy blobs, or a parsed checkpoint
/// on rank 0 — and every site must reach its owner under a DomainMap.
/// `transferToOwners` keeps the sites this rank owns in place, ships the
/// rest in one personalised all-to-all, checks that every owned slot is
/// filled exactly once, and returns the columns in external (DomainMap)
/// order or a typed failure that is identical on every rank. Callers apply
/// the columns only on success, so a failed transfer leaves every solver
/// untouched. `migrateDistributions` is the live-migration caller (traffic
/// class `kRepart`); checkpoint.hpp and buddy.hpp are the other two. The
/// control-plane half (when to migrate, rebuilding solver/ghosts/octree)
/// lives in core::SimulationDriver.

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "lb/domain_map.hpp"
#include "lb/solver.hpp"
#include "util/check.hpp"

namespace hemo::lb {

// --- typed restore outcome --------------------------------------------------

enum class CkptStatus : std::uint8_t {
  kOk = 0,
  kOpenFailed,         ///< file missing or unreadable
  kBadMagic,           ///< not a checkpoint file
  kFormatMismatch,     ///< version or kQ differs from this build
  kTruncated,          ///< file ends mid-structure
  kCrcMismatch,        ///< stored CRC32 does not match the bytes
  kGeometryMismatch,   ///< site set does not cover the current lattice
};

inline const char* ckptStatusName(CkptStatus s) {
  switch (s) {
    case CkptStatus::kOk: return "ok";
    case CkptStatus::kOpenFailed: return "open-failed";
    case CkptStatus::kBadMagic: return "bad-magic";
    case CkptStatus::kFormatMismatch: return "format-mismatch";
    case CkptStatus::kTruncated: return "truncated";
    case CkptStatus::kCrcMismatch: return "crc-mismatch";
    case CkptStatus::kGeometryMismatch: return "geometry-mismatch";
  }
  return "unknown";
}

/// Outcome of a transfer or a restore (readCheckpoint, restoreLatest,
/// restoreFromBuddy). On failure the solver is left untouched (validation
/// happens before any state is applied).
struct RestoreResult {
  CkptStatus status = CkptStatus::kOk;
  std::uint64_t step = 0;     ///< step the state was taken at (kOk)
  std::string detail;         ///< human-readable failure note (rank 0)
  bool ok() const { return status == CkptStatus::kOk; }
};

/// Site-tagged populations: global ids and the Q columns over them, in any
/// site order. One decoded checkpoint or buddy blob, or one rank's live
/// state — the unit the transfer routes.
struct CheckpointBlob {
  std::vector<std::uint64_t> ids;
  std::vector<std::vector<double>> f;  ///< [q][site]
};

/// One site on the wire: its id and its Q populations, site-major.
template <int kQ>
struct SitePopulations {
  std::uint64_t id;
  std::array<double, kQ> f;
};

// --- the transfer -----------------------------------------------------------

/// Collective. Route the site-tagged populations this rank holds (`held`;
/// a rank may hold none) to their owners under `domain`. Each blob is
/// released as soon as it is routed, so the state is in flight once. On
/// success `columns[i]` holds population i over `domain`'s owned sites in
/// external order, ready for Solver::setDistributions. A site id outside
/// the lattice, a site that arrives twice, or an owned site that never
/// arrives fails the transfer on every rank with kGeometryMismatch.
/// `sitesShipped` (optional) receives the number of sites this rank sent
/// to other ranks.
template <int kQ>
RestoreResult transferToOwners(const DomainMap& domain,
                               comm::Communicator& comm,
                               std::vector<CheckpointBlob> held,
                               std::vector<std::vector<double>>& columns,
                               std::uint64_t* sitesShipped = nullptr) {
  const int me = comm.rank();
  const std::uint64_t numSites = domain.lattice().numFluidSites();
  columns.assign(kQ, std::vector<double>(domain.numOwned(), 0.0));
  std::vector<std::uint8_t> filled(domain.numOwned(), 0);
  // Place one site's populations; false when it is not owned here or was
  // placed before.
  const auto place = [&](std::uint64_t id, const auto& value) {
    const std::int64_t l = domain.localOf(id);
    if (l < 0 || filled[static_cast<std::size_t>(l)] != 0) return false;
    filled[static_cast<std::size_t>(l)] = 1;
    for (int i = 0; i < kQ; ++i) {
      columns[static_cast<std::size_t>(i)][static_cast<std::size_t>(l)] =
          value(i);
    }
    return true;
  };

  bool ok = true;
  std::vector<std::size_t> count(static_cast<std::size_t>(comm.size()), 0);
  for (const auto& blob : held) {
    ok = ok && blob.f.size() == static_cast<std::size_t>(kQ);
    for (std::size_t i = 0; ok && i < blob.f.size(); ++i) {
      ok = blob.f[i].size() == blob.ids.size();
    }
    for (const std::uint64_t id : blob.ids) {
      if (!ok || id >= numSites) {
        ok = false;
        break;
      }
      ++count[static_cast<std::size_t>(domain.ownerOf(id))];
    }
  }
  std::vector<std::vector<SitePopulations<kQ>>> outgoing(count.size());
  std::uint64_t shipped = 0;
  if (ok) {
    for (std::size_t r = 0; r < count.size(); ++r) {
      if (static_cast<int>(r) != me) outgoing[r].reserve(count[r]);
    }
    for (auto& blob : held) {
      for (std::size_t s = 0; ok && s < blob.ids.size(); ++s) {
        const std::uint64_t id = blob.ids[s];
        const int owner = domain.ownerOf(id);
        if (owner == me) {
          ok = place(id, [&](int i) {
            return blob.f[static_cast<std::size_t>(i)][s];
          });
          continue;
        }
        auto& site = outgoing[static_cast<std::size_t>(owner)].emplace_back();
        site.id = id;
        for (int i = 0; i < kQ; ++i) {
          site.f[static_cast<std::size_t>(i)] =
              blob.f[static_cast<std::size_t>(i)][s];
        }
        ++shipped;
      }
      blob = CheckpointBlob{};
    }
  }
  // Every rank enters the exchange, including one whose own input failed:
  // the verdict is agreed below, after the collective.
  const auto incoming = comm.alltoallVec(outgoing);
  outgoing = {};
  for (const auto& from : incoming) {
    for (std::size_t s = 0; ok && s < from.size(); ++s) {
      const auto& site = from[s];
      ok = place(site.id, [&](int i) {
        return site.f[static_cast<std::size_t>(i)];
      });
    }
  }
  ok = ok && std::all_of(filled.begin(), filled.end(),
                         [](std::uint8_t v) { return v != 0; });
  if (comm.allreduceMin(ok ? 1 : 0) != 1) {
    return RestoreResult{CkptStatus::kGeometryMismatch, 0,
                         "transferred sites do not cover the partition"};
  }
  if (sitesShipped != nullptr) *sitesShipped = shipped;
  return RestoreResult{};
}

// --- live migration ---------------------------------------------------------

struct MigrationStats {
  /// Global number of sites that changed owner (summed over ranks).
  std::uint64_t sitesMoved = 0;
  /// Global payload bytes shipped between ranks (ids + populations).
  std::uint64_t bytesMoved = 0;
};

/// Collective. Repack `solver`'s distributions from its current domain onto
/// `newDomain`'s ownership. On return `columns[i]` holds distribution i over
/// the *new* domain's owned sites in external order (ready for
/// Solver::setDistributions on a solver built over `newDomain`). Every rank
/// must pass DomainMaps built from the same old/new partitions; the old
/// partition covers every site, so a failed transfer is a bug and aborts.
template <typename Lattice>
MigrationStats migrateDistributions(const Solver<Lattice>& solver,
                                    const DomainMap& newDomain,
                                    comm::Communicator& comm,
                                    std::vector<std::vector<double>>& columns) {
  constexpr int kQ = Lattice::kQ;
  comm::Communicator::TrafficScope scope(comm, comm::Traffic::kRepart);
  std::vector<CheckpointBlob> live(1);
  live[0].ids = solver.domain().ownedIds();
  live[0].f.resize(kQ);
  for (int i = 0; i < kQ; ++i) {
    solver.gatherDistribution(i, live[0].f[static_cast<std::size_t>(i)]);
  }
  std::uint64_t shipped = 0;
  const auto moved =
      transferToOwners<kQ>(newDomain, comm, std::move(live), columns, &shipped);
  HEMO_CHECK_MSG(moved.ok(), "live migration: " << moved.detail);
  MigrationStats stats;
  stats.sitesMoved = comm.allreduceSum(shipped);
  stats.bytesMoved = stats.sitesMoved * sizeof(SitePopulations<kQ>);
  return stats;
}

}  // namespace hemo::lb
