#pragma once
/// \file checkpoint.hpp
/// \brief Scalable, validated checkpoint/restart for the distributions.
///
/// The resiliency challenge of §III (error resiliency at extreme core
/// counts) is conventionally met by checkpoint/restart. Format v2 makes
/// that path trustworthy at scale:
///
///   * **Striped writes.** Ranks are split into `stripes` contiguous
///     groups; each group gathers to its leader, which writes one stripe
///     file (`<path>.s<k>`) concurrently with the others. Rank 0 writes a
///     small manifest at `<path>`. v1 funnelled every blob through rank 0.
///   * **Validation.** The manifest carries a trailing CRC32 over its
///     header; every per-rank blob inside a stripe carries its own CRC32.
///     readCheckpoint() validates magics, versions, CRCs and geometry and
///     returns a typed RestoreResult instead of HEMO_CHECK-aborting, so a
///     caller can fall back to an older checkpoint (restoreLatest()).
///   * **Atomic commit.** Every file is written to `<file>.tmp` and
///     renamed into place, so a crash mid-write never leaves a
///     valid-looking truncated checkpoint at the final path.
///   * **Bit-exact ids.** Site ids travel as uint64 end to end; v1 routed
///     them through `double` during the scatter, silently corrupting ids
///     above 2^53.
///
/// v1 files ("HEMOCKPT") remain readable. The fault-injection site
/// FaultSite::kCheckpointCommit mangles the byte buffer *before* it
/// reaches disk, so the resilience tests exercise exactly the code path a
/// bad disk or a killed writer would.

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "comm/communicator.hpp"
#include "io/serial.hpp"
#include "lb/migration.hpp"
#include "lb/solver.hpp"
#include "telemetry/telemetry.hpp"
#include "util/faultinject.hpp"

namespace hemo::lb {

// --- CRC32 (IEEE 802.3, slicing-by-8) ---------------------------------------

inline std::uint32_t crc32(const std::byte* data, std::size_t n) {
  // Eight derived tables let the hot loop fold 8 bytes per iteration
  // (Intel's "slicing-by-8"), ~6x the byte-at-a-time loop. Checkpoints and
  // buddy mirrors CRC multi-MB distribution blobs on the solver's critical
  // path, so this is bandwidth that comes straight out of step time.
  static const auto tables = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = t[0][i];
      for (std::size_t s = 1; s < 8; ++s) {
        c = t[0][c & 0xffu] ^ (c >> 8);
        t[s][i] = c;
      }
    }
    return t;
  }();
  std::uint32_t crc = 0xffffffffu;
  std::size_t i = 0;
  if constexpr (std::endian::native == std::endian::little) {
    for (; i + 8 <= n; i += 8) {
      std::uint32_t lo = 0;
      std::uint32_t hi = 0;
      std::memcpy(&lo, data + i, 4);
      std::memcpy(&hi, data + i + 4, 4);
      lo ^= crc;
      crc = tables[7][lo & 0xffu] ^ tables[6][(lo >> 8) & 0xffu] ^
            tables[5][(lo >> 16) & 0xffu] ^ tables[4][lo >> 24] ^
            tables[3][hi & 0xffu] ^ tables[2][(hi >> 8) & 0xffu] ^
            tables[1][(hi >> 16) & 0xffu] ^ tables[0][hi >> 24];
    }
  }
  for (; i < n; ++i) {
    crc = tables[0][(crc ^ static_cast<std::uint32_t>(
                               static_cast<std::uint8_t>(data[i]))) &
                    0xffu] ^
          (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

inline std::uint32_t crc32(const std::vector<std::byte>& bytes) {
  return crc32(bytes.data(), bytes.size());
}

struct CheckpointOptions {
  /// Stripe files written concurrently by per-rank-group leaders.
  /// Clamped to [1, comm.size()].
  int stripes = 1;
};

// --- on-disk format ---------------------------------------------------------

namespace ckptdetail {

inline constexpr const char* kManifestMagic = "HEMOCKP2";
inline constexpr const char* kStripeMagic = "HEMOSTRP";
inline constexpr const char* kV1Magic = "HEMOCKPT";
inline constexpr std::uint32_t kVersion = 2;

inline std::string stripePath(const std::string& path, int stripe) {
  return path + ".s" + std::to_string(stripe);
}

/// One writer-rank's payload: ids then the Q distribution columns, all in
/// external (DomainMap) order. Identical to the v1 blob layout.
inline std::vector<std::byte> encodeBlob(
    const std::vector<std::uint64_t>& ids,
    const std::vector<std::vector<double>>& f) {
  io::Writer w;
  w.putVec(ids);
  for (const auto& fi : f) w.putVec(fi);
  return w.take();
}

/// Stripe file: header + per-blob CRC32s. `blobs` in any rank order.
inline std::vector<std::byte> encodeStripeFile(
    std::uint64_t step, int stripe,
    const std::vector<std::vector<std::byte>>& blobs) {
  io::Writer w;
  w.putString(kStripeMagic);
  w.put<std::uint32_t>(kVersion);
  w.put<std::uint64_t>(step);
  w.put<std::int32_t>(stripe);
  w.put<std::int32_t>(static_cast<std::int32_t>(blobs.size()));
  for (const auto& blob : blobs) {
    w.put<std::uint32_t>(crc32(blob));
    w.putVec(blob);
  }
  return w.take();
}

/// Manifest: header + trailing CRC32 over everything before it.
inline std::vector<std::byte> encodeManifest(std::uint64_t step, int kQ,
                                             int stripes,
                                             std::uint64_t totalSites) {
  io::Writer w;
  w.putString(kManifestMagic);
  w.put<std::uint32_t>(kVersion);
  w.put<std::uint64_t>(step);
  w.put<std::int32_t>(kQ);
  w.put<std::int32_t>(stripes);
  w.put<std::uint64_t>(totalSites);
  auto bytes = w.take();
  const std::uint32_t crc = crc32(bytes);
  io::Writer tail;
  tail.put<std::uint32_t>(crc);
  const auto& t = tail.bytes();
  bytes.insert(bytes.end(), t.begin(), t.end());
  return bytes;
}

/// Commit `bytes` to `path` atomically: write `<path>.tmp`, fsync-free
/// rename into place, clean up on any failure. Adds the bytes actually
/// written to `*bytesWritten`. The fault hook mangles the buffer first,
/// standing in for a bad disk or a writer killed mid-commit.
inline bool atomicWriteFile(const std::string& path, int rank,
                            std::vector<std::byte> bytes,
                            std::uint64_t* bytesWritten) {
  util::FaultInjector::instance().applyBufferFault(
      util::FaultSite::kCheckpointCommit, rank, bytes);
  std::error_code ec;
  const auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;
  const std::size_t wrote =
      bytes.empty() ? 0 : std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (wrote != bytes.size() || !closed) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  if (bytesWritten != nullptr) *bytesWritten += wrote;
  return true;
}

/// Read a whole file into `out`, sized from the file: one copy in memory.
inline bool readFileBytes(const std::string& path,
                          std::vector<std::byte>& out) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  if (!f.good()) return false;
  const std::streamsize size = f.tellg();
  if (size < 0) return false;
  out.resize(static_cast<std::size_t>(size));
  f.seekg(0);
  return f.read(reinterpret_cast<char*>(out.data()), size).good();
}

inline void countCrcFail() {
  if (auto* t = telemetry::threadTelemetry()) {
    t->metrics().counter("ckpt.crc_fail").add(1);
  }
}

}  // namespace ckptdetail

// --- parsing (rank 0; unit-testable without a communicator) ----------------

struct ParsedCheckpoint {
  std::uint64_t step = 0;
  std::uint64_t totalSites = 0;
  std::vector<CheckpointBlob> blobs;
};

inline CkptStatus parseCheckpointBlob(const std::vector<std::byte>& blob,
                                      int expectQ, CheckpointBlob& out,
                                      std::string* detailOut) {
  try {
    io::Reader br(blob);
    out.ids = br.getVec<std::uint64_t>();
    out.f.clear();
    out.f.reserve(static_cast<std::size_t>(expectQ));
    for (int i = 0; i < expectQ; ++i) {
      out.f.push_back(br.getVec<double>());
      if (out.f.back().size() != out.ids.size()) {
        if (detailOut != nullptr) *detailOut = "blob column size mismatch";
        return CkptStatus::kTruncated;
      }
    }
  } catch (const CheckError&) {
    if (detailOut != nullptr) *detailOut = "blob ends mid-structure";
    return CkptStatus::kTruncated;
  }
  return CkptStatus::kOk;
}

/// Parse and validate a checkpoint (v2 manifest + stripes, or a v1 single
/// file). Never throws on bad input — every malformation maps to a typed
/// status, so restore policy can fall back instead of aborting.
inline CkptStatus parseCheckpoint(const std::string& path, int expectQ,
                                  ParsedCheckpoint& out,
                                  std::string* detailOut = nullptr) {
  const auto fail = [&](CkptStatus st, const std::string& msg) {
    if (detailOut != nullptr) *detailOut = msg;
    return st;
  };
  std::vector<std::byte> bytes;
  if (!ckptdetail::readFileBytes(path, bytes)) {
    return fail(CkptStatus::kOpenFailed, "cannot open " + path);
  }
  try {
    io::Reader r(bytes.data(), bytes.size());
    const std::string magic = r.getString();
    if (magic == ckptdetail::kV1Magic) {
      // v1: one rank-0 file, no CRCs; blob layout matches v2.
      out.step = r.get<std::uint64_t>();
      if (r.get<std::int32_t>() != expectQ) {
        return fail(CkptStatus::kFormatMismatch, "kQ mismatch in " + path);
      }
      const std::int32_t writers = r.get<std::int32_t>();
      if (writers < 0) return fail(CkptStatus::kTruncated, "bad v1 header");
      out.totalSites = 0;
      for (std::int32_t wr = 0; wr < writers; ++wr) {
        const auto blob = r.getVec<std::byte>();
        CheckpointBlob& parsed = out.blobs.emplace_back();
        const auto st = parseCheckpointBlob(blob, expectQ, parsed, detailOut);
        if (st != CkptStatus::kOk) return st;
        out.totalSites += parsed.ids.size();
      }
      return CkptStatus::kOk;
    }
    if (magic != ckptdetail::kManifestMagic) {
      return fail(CkptStatus::kBadMagic, "bad magic in " + path);
    }
    if (bytes.size() < sizeof(std::uint32_t)) {
      return fail(CkptStatus::kTruncated, "manifest too small");
    }
    std::uint32_t storedCrc = 0;
    std::memcpy(&storedCrc, bytes.data() + bytes.size() - sizeof(storedCrc),
                sizeof(storedCrc));
    if (crc32(bytes.data(), bytes.size() - sizeof(storedCrc)) != storedCrc) {
      ckptdetail::countCrcFail();
      return fail(CkptStatus::kCrcMismatch, "manifest CRC mismatch: " + path);
    }
    if (r.get<std::uint32_t>() != ckptdetail::kVersion) {
      return fail(CkptStatus::kFormatMismatch, "unknown version in " + path);
    }
    out.step = r.get<std::uint64_t>();
    if (r.get<std::int32_t>() != expectQ) {
      return fail(CkptStatus::kFormatMismatch, "kQ mismatch in " + path);
    }
    const std::int32_t stripes = r.get<std::int32_t>();
    out.totalSites = r.get<std::uint64_t>();
    if (stripes <= 0) return fail(CkptStatus::kTruncated, "bad stripe count");

    std::uint64_t parsedSites = 0;
    for (std::int32_t s = 0; s < stripes; ++s) {
      const std::string sp = ckptdetail::stripePath(path, s);
      std::vector<std::byte> sbytes;
      if (!ckptdetail::readFileBytes(sp, sbytes)) {
        return fail(CkptStatus::kOpenFailed, "missing stripe " + sp);
      }
      io::Reader sr(sbytes.data(), sbytes.size());
      if (sr.getString() != ckptdetail::kStripeMagic) {
        return fail(CkptStatus::kBadMagic, "bad stripe magic in " + sp);
      }
      if (sr.get<std::uint32_t>() != ckptdetail::kVersion) {
        return fail(CkptStatus::kFormatMismatch, "stripe version in " + sp);
      }
      if (sr.get<std::uint64_t>() != out.step) {
        return fail(CkptStatus::kFormatMismatch,
                    "stripe/manifest step mismatch in " + sp);
      }
      if (sr.get<std::int32_t>() != s) {
        return fail(CkptStatus::kFormatMismatch, "stripe index in " + sp);
      }
      const std::int32_t blobCount = sr.get<std::int32_t>();
      if (blobCount < 0) return fail(CkptStatus::kTruncated, "bad " + sp);
      for (std::int32_t b = 0; b < blobCount; ++b) {
        const std::uint32_t blobCrc = sr.get<std::uint32_t>();
        const auto blob = sr.getVec<std::byte>();
        if (crc32(blob) != blobCrc) {
          ckptdetail::countCrcFail();
          return fail(CkptStatus::kCrcMismatch, "blob CRC mismatch in " + sp);
        }
        CheckpointBlob& parsed = out.blobs.emplace_back();
        const auto st = parseCheckpointBlob(blob, expectQ, parsed, detailOut);
        if (st != CkptStatus::kOk) return st;
        parsedSites += parsed.ids.size();
      }
    }
    if (parsedSites != out.totalSites) {
      return fail(CkptStatus::kTruncated, "site count mismatch vs manifest");
    }
    return CkptStatus::kOk;
  } catch (const CheckError&) {
    return fail(CkptStatus::kTruncated, "checkpoint ends mid-structure");
  }
}

// --- collective write/read --------------------------------------------------

/// Collective: write one checkpoint (manifest at `path`, stripe files
/// beside it). Returns the total bytes actually committed to disk across
/// all writers (identical on every rank). Throws CheckError only when a
/// *write* fails (disk full, unwritable directory) — readers get typed
/// errors instead.
template <typename Lattice>
std::uint64_t writeCheckpoint(const std::string& path,
                              const Solver<Lattice>& solver,
                              comm::Communicator& comm,
                              const CheckpointOptions& options = {}) {
  comm::Communicator::TrafficScope scope(comm, comm::Traffic::kIo);
  constexpr int kQ = Lattice::kQ;
  const int stripes = std::clamp(options.stripes, 1, comm.size());
  // Contiguous rank groups; each group's lowest rank leads its stripe.
  const int group = comm.rank() * stripes / comm.size();
  auto sub = comm.split(group, comm.rank());

  std::vector<std::vector<double>> f(static_cast<std::size_t>(kQ));
  for (int i = 0; i < kQ; ++i) {
    solver.gatherDistribution(i, f[static_cast<std::size_t>(i)]);
  }
  const auto blobs =
      sub.gatherVec(ckptdetail::encodeBlob(solver.domain().ownedIds(), f), 0);
  const std::uint64_t totalSites = comm.allreduceSum<std::uint64_t>(
      solver.domain().numOwned());

  std::uint64_t written = 0;
  bool ok = true;
  if (sub.rank() == 0) {
    ok = ckptdetail::atomicWriteFile(
        ckptdetail::stripePath(path, group), comm.rank(),
        ckptdetail::encodeStripeFile(solver.stepsDone(), group, blobs),
        &written);
  }
  if (comm.rank() == 0) {
    ok = ckptdetail::atomicWriteFile(
             path, comm.rank(),
             ckptdetail::encodeManifest(solver.stepsDone(), kQ, stripes,
                                        totalSites),
             &written) &&
         ok;
  }
  const std::uint64_t total = comm.allreduceSum(written);
  const int allOk = comm.allreduceMin(ok ? 1 : 0);
  HEMO_CHECK_MSG(allOk == 1, "checkpoint write failed: " << path);
  if (auto* t = telemetry::threadTelemetry()) {
    t->metrics().counter("ckpt.writes").add(1);
    if (comm.rank() == 0) {
      t->metrics().counter("ckpt.bytes_written").add(total);
    }
  }
  return total;
}

/// Collective: restore distributions from a checkpoint written by any rank
/// layout (sites are routed to their current owners, so the partition may
/// differ from the writing run — repartition-restart). Rank 0 parses and
/// validates and broadcasts the verdict; on success the parsed sites go
/// through the owner-routed transfer (migration.hpp). On any failure every
/// rank returns the same typed error and the solver is untouched. On
/// success the solver's step counter is rebased.
template <typename Lattice>
RestoreResult readCheckpoint(const std::string& path, Solver<Lattice>& solver,
                             comm::Communicator& comm) {
  comm::Communicator::TrafficScope scope(comm, comm::Traffic::kIo);
  constexpr int kQ = Lattice::kQ;
  ParsedCheckpoint parsed;
  std::uint8_t status8 = static_cast<std::uint8_t>(CkptStatus::kOk);
  std::string detailMsg;
  if (comm.rank() == 0) {
    CkptStatus st = parseCheckpoint(path, kQ, parsed, &detailMsg);
    const std::uint64_t expectSites =
        solver.domain().lattice().numFluidSites();
    if (st == CkptStatus::kOk && parsed.totalSites != expectSites) {
      st = CkptStatus::kGeometryMismatch;
      detailMsg = "checkpoint holds " + std::to_string(parsed.totalSites) +
                  " sites, lattice has " + std::to_string(expectSites);
    }
    status8 = static_cast<std::uint8_t>(st);
  }
  comm.bcast(status8, 0);
  std::uint64_t step = parsed.step;
  comm.bcast(step, 0);
  const auto status = static_cast<CkptStatus>(status8);
  if (status != CkptStatus::kOk) {
    return RestoreResult{status, step, detailMsg};
  }
  std::vector<std::vector<double>> f;
  auto result =
      transferToOwners<kQ>(solver.domain(), comm, std::move(parsed.blobs), f);
  result.step = step;
  if (!result.ok()) return result;
  solver.setDistributions(f);
  solver.setStepsDone(step);
  return result;
}

// --- directory policy: checkpointEvery / restoreLatest / prune --------------

/// Canonical file name for the checkpoint taken at `step`.
inline std::string checkpointFileName(std::uint64_t step) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "ckpt_%012llu.hemockpt",
                static_cast<unsigned long long>(step));
  return buf;
}

/// Manifests under `dir` matching checkpointFileName(), newest step first.
/// Local filesystem scan — call on one rank and broadcast, or let
/// restoreLatest() do it.
inline std::vector<std::pair<std::uint64_t, std::string>> listCheckpoints(
    const std::string& dir) {
  std::vector<std::pair<std::uint64_t, std::string>> found;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    unsigned long long step = 0;
    char tail = 0;
    if (std::sscanf(name.c_str(), "ckpt_%12llu.hemockpt%c", &step, &tail) ==
        1) {
      found.emplace_back(step, entry.path().string());
    }
  }
  std::sort(found.begin(), found.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  return found;
}

/// Collective: restore from the newest checkpoint in `dir` that validates,
/// falling back past corrupt/truncated ones. Returns the last attempt's
/// result (kOpenFailed with "no checkpoint found" when the directory holds
/// none).
template <typename Lattice>
RestoreResult restoreLatest(const std::string& dir, Solver<Lattice>& solver,
                            comm::Communicator& comm) {
  std::vector<std::pair<std::uint64_t, std::string>> candidates;
  if (comm.rank() == 0) candidates = listCheckpoints(dir);
  std::uint64_t n = candidates.size();
  comm.bcast(n, 0);
  RestoreResult last{CkptStatus::kOpenFailed, 0,
                     "no checkpoint found in " + dir};
  for (std::uint64_t i = 0; i < n; ++i) {
    std::vector<char> pathChars;
    if (comm.rank() == 0) {
      const auto& p = candidates[static_cast<std::size_t>(i)].second;
      pathChars.assign(p.begin(), p.end());
    }
    comm.bcastVec(pathChars, 0);
    last = readCheckpoint(std::string(pathChars.begin(), pathChars.end()),
                          solver, comm);
    if (last.ok()) {
      if (i > 0) {
        if (auto* t = telemetry::threadTelemetry()) {
          t->metrics().counter("ckpt.restore_fallbacks").add(i);
        }
      }
      return last;
    }
  }
  return last;
}

/// Keep the newest `keep` checkpoints in `dir`; delete older manifests
/// with their stripe files and any stale ".tmp" leftovers. Call from one
/// rank (the driver calls it on rank 0 after each write).
inline void pruneCheckpoints(const std::string& dir, int keep) {
  const auto all = listCheckpoints(dir);
  if (static_cast<int>(all.size()) <= keep) return;
  std::error_code ec;
  for (std::size_t i = static_cast<std::size_t>(keep); i < all.size(); ++i) {
    const std::string& manifest = all[i].second;
    const std::string prefix =
        std::filesystem::path(manifest).filename().string();
    for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
      const std::string name = entry.path().filename().string();
      if (name == prefix || name.rfind(prefix + ".", 0) == 0) {
        std::filesystem::remove(entry.path(), ec);
      }
    }
  }
}

}  // namespace hemo::lb
