#pragma once
/// \file buddy.hpp
/// \brief Diskless buddy checkpoints: RAM-mirrored distribution blobs.
///
/// Disk checkpoints (checkpoint.hpp) survive anything but cost a parallel
/// filesystem round-trip; at exascale cadence that is often the limiting
/// term. The buddy scheme trades durability for speed: every
/// `checkpointEvery` steps each rank keeps its own distribution blob in
/// memory *and* mirrors it to a buddy (the next rank on a ring), RAID-1
/// style. Any single rank death then leaves every rank's newest blob held
/// by at least one survivor — its own copy if it lives, the buddy copy if
/// it died — so shrink-and-continue recovery needs no filesystem at all.
/// Two *adjacent* deaths can lose a blob; restoreFromBuddy detects the
/// gap and returns a typed failure so the recovery ladder falls back to
/// disk (or a cold restart).
///
/// The blob payload and validation reuse the checkpoint v2 machinery
/// (ckptdetail::encodeBlob / parseCheckpointBlob), and restore hands the
/// decoded sites to the same owner-routed transfer as readCheckpoint and
/// live migration — so a buddy snapshot taken on N ranks restores onto any
/// survivor decomposition.

#include <algorithm>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "lb/checkpoint.hpp"
#include "lb/solver.hpp"

namespace hemo::lb {

/// In-memory blob store standing in for node-local RAM. One instance is
/// shared by every thread-rank (the in-process analogue of "each node
/// keeps its own buffers"); slots are keyed by the *holder* world rank so
/// recovery only ever consults memory owned by survivors.
class BuddyStore {
 public:
  struct Slot {
    std::uint64_t step = 0;
    std::uint64_t siteCount = 0;
    std::uint32_t crc = 0;
    std::vector<std::byte> blob;
  };

  /// Holder-visible metadata of one slot (what restore's allgather ships).
  struct SlotMeta {
    std::uint64_t owner = 0;
    std::uint64_t step = 0;
    std::uint64_t siteCount = 0;
  };

  /// Store/overwrite the blob of `ownerWorld`'s sites at `step`, held in
  /// `holderWorld`'s memory.
  void put(int holderWorld, int ownerWorld, std::uint64_t step,
           std::uint64_t siteCount, std::vector<std::byte> blob) {
    const std::uint32_t crc = crc32(blob);
    put(holderWorld, ownerWorld, step, siteCount, crc, std::move(blob));
  }

  /// As put(), but with the CRC already computed — the mirror exchange
  /// ships the owner's CRC alongside the blob so the holder skips a full
  /// pass over the bytes (fetch() re-verifies before any restore uses it).
  void put(int holderWorld, int ownerWorld, std::uint64_t step,
           std::uint64_t siteCount, std::uint32_t crc,
           std::vector<std::byte> blob) {
    std::lock_guard<std::mutex> lock(mutex_);
    slots_[holderWorld][ownerWorld] = Slot{step, siteCount, crc, std::move(blob)};
  }

  /// Metadata of every slot held by `holderWorld`.
  std::vector<SlotMeta> heldBy(int holderWorld) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<SlotMeta> out;
    const auto it = slots_.find(holderWorld);
    if (it == slots_.end()) return out;
    for (const auto& [owner, slot] : it->second) {
      out.push_back(SlotMeta{static_cast<std::uint64_t>(owner), slot.step,
                             slot.siteCount});
    }
    return out;
  }

  /// Copy of the blob `holderWorld` holds for (`ownerWorld`, `step`);
  /// false when absent or when the stored CRC no longer matches (memory
  /// corruption — treated like a missing slot).
  bool fetch(int holderWorld, int ownerWorld, std::uint64_t step,
             std::vector<std::byte>& out) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto hit = slots_.find(holderWorld);
    if (hit == slots_.end()) return false;
    const auto oit = hit->second.find(ownerWorld);
    if (oit == hit->second.end() || oit->second.step != step) return false;
    if (crc32(oit->second.blob) != oit->second.crc) return false;
    out = oit->second.blob;
    return true;
  }

  /// Simulate the death of a rank's node: its memory is gone. Tests use
  /// this to prove restore works from the surviving buddy copies alone
  /// (the recovery path itself never consults dead holders anyway).
  void dropHolder(int holderWorld) {
    std::lock_guard<std::mutex> lock(mutex_);
    slots_.erase(holderWorld);
  }

  void clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    slots_.clear();
  }

  std::uint64_t bytesHeld() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t total = 0;
    for (const auto& [holder, byOwner] : slots_) {
      for (const auto& [owner, slot] : byOwner) total += slot.blob.size();
    }
    return total;
  }

 private:
  mutable std::mutex mutex_;
  // holder world rank -> owner world rank -> newest slot.
  std::map<int, std::map<int, Slot>> slots_;
};

namespace buddydetail {
/// User tags for the ring mirror exchange (clear of the recovery agreement
/// tag and of kMaxUserTag collectives). The header and the blob travel as
/// separate messages so the blob vector is handed to the mailbox whole — no
/// pack/unpack copy on either side.
inline constexpr int kTagMirror = 9851;
inline constexpr int kTagMirrorBlob = 9852;
}  // namespace buddydetail

/// Collective: snapshot this rank's distributions into the store — its own
/// slot plus a ring copy in the next live rank's memory. Returns the bytes
/// mirrored by this rank (blob size, counted once for the remote copy).
template <typename Lattice>
std::uint64_t mirrorBuddy(const Solver<Lattice>& solver,
                          comm::Communicator& comm, BuddyStore& store) {
  comm::Communicator::TrafficScope scope(comm, comm::Traffic::kIo);
  constexpr int kQ = Lattice::kQ;
  const int n = comm.size();
  const int me = comm.worldRank();
  const std::uint64_t step = solver.stepsDone();

  std::vector<std::vector<double>> f(static_cast<std::size_t>(kQ));
  for (int i = 0; i < kQ; ++i) {
    solver.gatherDistribution(i, f[static_cast<std::size_t>(i)]);
  }
  auto blob = ckptdetail::encodeBlob(solver.domain().ownedIds(), f);
  const std::uint64_t owned = solver.domain().numOwned();
  const std::uint64_t blobBytes = blob.size();
  // One CRC pass at the owner covers both copies: the header ships it to
  // the buddy, and fetch() re-verifies before a restore ever trusts it.
  const std::uint32_t crc = crc32(blob);

  if (n > 1) {
    const int next = (comm.rank() + 1) % n;
    const int prev = (comm.rank() - 1 + n) % n;
    io::Writer w;
    w.put<std::uint64_t>(step);
    w.put<std::int32_t>(me);
    w.put<std::uint64_t>(owned);
    w.put<std::uint32_t>(crc);
    const auto header = w.take();
    comm.sendBytes(next, buddydetail::kTagMirror, header.data(),
                   header.size());
    comm.sendBytes(next, buddydetail::kTagMirrorBlob, blob.data(),
                   blob.size());
    // Self copy: a rank that survives always restores from its own memory,
    // buddy traffic only matters for the dead. Deferred past the sends so
    // the blob moves into the store instead of being copied.
    store.put(me, me, step, owned, crc, std::move(blob));
    const auto incoming = comm.recvBytes(prev, buddydetail::kTagMirror);
    io::Reader r(incoming.data(), incoming.size());
    const std::uint64_t peerStep = r.get<std::uint64_t>();
    const std::int32_t peerOwner = r.get<std::int32_t>();
    const std::uint64_t peerOwned = r.get<std::uint64_t>();
    const std::uint32_t peerCrc = r.get<std::uint32_t>();
    auto peerBlob = comm.recvBytes(prev, buddydetail::kTagMirrorBlob);
    store.put(me, peerOwner, peerStep, peerOwned, peerCrc,
              std::move(peerBlob));
  } else {
    store.put(me, me, step, owned, crc, std::move(blob));
  }
  if (auto* t = telemetry::threadTelemetry()) {
    t->metrics().counter("buddy.mirrors").add(1);
    t->metrics().counter("buddy.bytes_mirrored").add(blobBytes);
  }
  return blobBytes;
}

/// Collective: restore the solver from the newest buddy snapshot whose
/// blobs — drawn only from memory held by the ranks of `comm` — cover the
/// whole lattice. The contributing holders decode their blobs and hand
/// them to the owner-routed transfer (migration.hpp), so any survivor
/// decomposition works and nothing is applied before coverage is checked.
/// Typed failure when no complete snapshot exists (e.g. adjacent buddies
/// died): the caller falls back to disk.
template <typename Lattice>
RestoreResult restoreFromBuddy(BuddyStore& store, Solver<Lattice>& solver,
                               comm::Communicator& comm) {
  comm::Communicator::TrafficScope scope(comm, comm::Traffic::kIo);
  constexpr int kQ = Lattice::kQ;
  const std::uint64_t expectSites =
      solver.domain().lattice().numFluidSites();
  const int n = comm.size();

  // Ship every live holder's slot metadata everywhere; each rank then
  // derives the same restore plan with no further coordination.
  std::vector<std::uint64_t> metaFlat;
  for (const auto& m : store.heldBy(comm.worldRank())) {
    metaFlat.push_back(m.owner);
    metaFlat.push_back(m.step);
    metaFlat.push_back(m.siteCount);
  }
  const auto allMeta = comm.allgatherVec(metaFlat);

  // Candidate steps, newest first. A step qualifies when the distinct
  // owners present sum to the full lattice (owners partition the sites,
  // so coverage == site-count sum).
  std::vector<std::uint64_t> steps;
  for (const auto& flat : allMeta) {
    for (std::size_t i = 0; i + 3 <= flat.size(); i += 3) {
      steps.push_back(flat[i + 1]);
    }
  }
  std::sort(steps.begin(), steps.end(), std::greater<>());
  steps.erase(std::unique(steps.begin(), steps.end()), steps.end());

  std::uint64_t bestStep = 0;
  // owner world rank -> chosen holder group rank (lowest wins: ties are
  // broken identically on every rank).
  std::map<int, int> holderOf;
  bool found = false;
  for (const std::uint64_t cand : steps) {
    std::map<int, int> holders;
    std::uint64_t covered = 0;
    for (int holderGroup = 0; holderGroup < n; ++holderGroup) {
      const auto& flat = allMeta[static_cast<std::size_t>(holderGroup)];
      for (std::size_t i = 0; i + 3 <= flat.size(); i += 3) {
        if (flat[i + 1] != cand) continue;
        const int owner = static_cast<int>(flat[i]);
        if (holders.emplace(owner, holderGroup).second) {
          covered += flat[i + 2];
        }
      }
    }
    if (covered == expectSites) {
      bestStep = cand;
      holderOf = std::move(holders);
      found = true;
      break;
    }
  }
  if (!found) {
    if (auto* t = telemetry::threadTelemetry()) {
      t->metrics().counter("buddy.restore_miss").add(1);
    }
    return RestoreResult{CkptStatus::kOpenFailed, 0,
                         "no complete buddy snapshot among survivors"};
  }

  std::vector<CheckpointBlob> held;
  bool decodeOk = true;
  for (const auto& [owner, holderGroup] : holderOf) {
    if (holderGroup != comm.rank()) continue;
    std::vector<std::byte> blob;
    decodeOk = store.fetch(comm.worldRank(), owner, bestStep, blob) &&
               parseCheckpointBlob(blob, kQ, held.emplace_back(), nullptr) ==
                   CkptStatus::kOk;
    if (!decodeOk) break;
  }
  if (comm.allreduceMin(decodeOk ? 1 : 0) != 1) {
    return RestoreResult{CkptStatus::kCrcMismatch, bestStep,
                         "buddy blob failed validation on a holder"};
  }
  std::vector<std::vector<double>> f;
  auto result = transferToOwners<kQ>(solver.domain(), comm, std::move(held), f);
  result.step = bestStep;
  if (!result.ok()) return result;
  solver.setDistributions(f);
  solver.setStepsDone(bestStep);
  if (auto* t = telemetry::threadTelemetry()) {
    t->metrics().counter("buddy.restores").add(1);
  }
  return result;
}

}  // namespace hemo::lb
