#include "geometry/sgmy.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "io/serial.hpp"
#include "util/check.hpp"

namespace hemo::geometry {

namespace {
constexpr char kMagic[4] = {'S', 'G', 'M', 'Y'};
constexpr std::uint32_t kVersion = 2;

void putVec3i(io::Writer& w, const Vec3i& v) {
  w.put<std::int32_t>(v.x);
  w.put<std::int32_t>(v.y);
  w.put<std::int32_t>(v.z);
}

Vec3i getVec3i(io::Reader& r) {
  const int x = r.get<std::int32_t>();
  const int y = r.get<std::int32_t>();
  const int z = r.get<std::int32_t>();
  return {x, y, z};
}

void putVec3d(io::Writer& w, const Vec3d& v) {
  w.put<double>(v.x);
  w.put<double>(v.y);
  w.put<double>(v.z);
}

Vec3d getVec3d(io::Reader& r) {
  const double x = r.get<double>();
  const double y = r.get<double>();
  const double z = r.get<double>();
  return {x, y, z};
}
}  // namespace

std::vector<std::byte> encodeBlockPayload(
    const SparseLattice& lattice, const SparseLattice::BlockInfo& block) {
  io::Writer w;
  for (std::uint64_t id = block.firstSiteId;
       id < block.firstSiteId + block.fluidCount; ++id) {
    const Vec3i pos = lattice.sitePosition(id);
    const int B = lattice.blockSize();
    const Vec3i in{pos.x % B, pos.y % B, pos.z % B};
    w.put<std::uint16_t>(static_cast<std::uint16_t>(lattice.localLinear(in)));
    const SiteRecord rec = lattice.site(id);
    for (const auto& link : rec.links) {
      w.put<std::uint8_t>(static_cast<std::uint8_t>(link.kind));
      if (link.kind != LinkKind::kBulk) {
        w.put<float>(link.wallDistance);
        if (link.kind != LinkKind::kWall) {
          w.put<std::uint16_t>(link.ioletId);
        }
      }
    }
    w.put<std::uint8_t>(rec.hasWallNormal);
    if (rec.hasWallNormal) {
      w.put<float>(rec.wallNormal.x);
      w.put<float>(rec.wallNormal.y);
      w.put<float>(rec.wallNormal.z);
    }
  }
  return w.take();
}

std::vector<DecodedSite> decodeBlockPayload(
    const SgmyHeader& header, std::uint64_t blockLinear,
    const std::vector<std::byte>& payload) {
  const Vec3i bd = header.blockDims();
  const int B = header.blockSize;
  const auto bx = blockLinear % static_cast<std::uint64_t>(bd.x);
  const auto rest = blockLinear / static_cast<std::uint64_t>(bd.x);
  const Vec3i blockCoord{
      static_cast<int>(bx),
      static_cast<int>(rest % static_cast<std::uint64_t>(bd.y)),
      static_cast<int>(rest / static_cast<std::uint64_t>(bd.y))};

  // Every field that indexes something is checked here, so a corrupt
  // payload fails with the same CheckError as a truncated one instead of
  // reaching the solver's iolet tables or a lattice position past dims (the
  // padding of a partial block). B³ is taken with B capped at 2^16, where
  // any u16 local index already fits.
  const auto b = static_cast<std::uint64_t>(std::min(B, 1 << 16));
  const std::uint64_t blockVolume = b * b * b;
  std::vector<DecodedSite> sites;
  io::Reader r(payload);
  while (!r.atEnd()) {
    DecodedSite s;
    const int local = r.get<std::uint16_t>();
    HEMO_CHECK_MSG(static_cast<std::uint64_t>(local) < blockVolume,
                   "local site index " << local << " outside the block");
    const int lz = local / (B * B);
    const int ly = (local / B) % B;
    const int lx = local % B;
    s.position = Vec3i{blockCoord.x * B + lx, blockCoord.y * B + ly,
                       blockCoord.z * B + lz};
    HEMO_CHECK_MSG(s.position.x < header.dims.x &&
                       s.position.y < header.dims.y &&
                       s.position.z < header.dims.z,
                   "site " << s.position << " outside the lattice");
    for (auto& link : s.record.links) {
      const auto kind = r.get<std::uint8_t>();
      HEMO_CHECK_MSG(kind <= static_cast<std::uint8_t>(LinkKind::kOutlet),
                     "unknown link kind " << static_cast<int>(kind));
      link.kind = static_cast<LinkKind>(kind);
      if (link.kind != LinkKind::kBulk) {
        link.wallDistance = r.get<float>();
        if (link.kind != LinkKind::kWall) {
          link.ioletId = r.get<std::uint16_t>();
          HEMO_CHECK_MSG(link.ioletId < header.iolets.size(),
                         "iolet id " << link.ioletId << " of "
                                     << header.iolets.size() << " iolets");
        }
      }
    }
    s.record.hasWallNormal = r.get<std::uint8_t>();
    if (s.record.hasWallNormal) {
      s.record.wallNormal.x = r.get<float>();
      s.record.wallNormal.y = r.get<float>();
      s.record.wallNormal.z = r.get<float>();
    }
    sites.push_back(std::move(s));
  }
  return sites;
}

bool writeSgmy(const std::string& path, const SparseLattice& lattice) {
  HEMO_CHECK(lattice.finalized());

  // Encode all payloads first so the table can carry sizes/offsets.
  std::vector<std::vector<std::byte>> payloads;
  payloads.reserve(lattice.blocks().size());
  for (const auto& block : lattice.blocks()) {
    payloads.push_back(encodeBlockPayload(lattice, block));
  }

  io::Writer head;
  head.putRaw(kMagic, 4);
  head.put<std::uint32_t>(kVersion);
  putVec3i(head, lattice.dims());
  head.put<std::int32_t>(lattice.blockSize());
  head.put<double>(lattice.voxelSize());
  putVec3d(head, lattice.origin());
  head.put<std::uint32_t>(static_cast<std::uint32_t>(lattice.iolets().size()));
  for (const auto& io : lattice.iolets()) {
    head.put<std::uint8_t>(static_cast<std::uint8_t>(io.kind));
    head.put<std::uint8_t>(static_cast<std::uint8_t>(io.bc));
    putVec3d(head, io.center);
    putVec3d(head, io.normal);
    head.put<double>(io.radius);
    head.put<double>(io.density);
    head.put<double>(io.speed);
  }
  head.put<std::uint64_t>(lattice.blocks().size());
  std::uint64_t offset = 0;
  for (std::size_t i = 0; i < lattice.blocks().size(); ++i) {
    const auto& block = lattice.blocks()[i];
    head.put<std::uint64_t>(lattice.blockLinear(block.coord));
    head.put<std::uint32_t>(block.fluidCount);
    head.put<std::uint64_t>(offset);
    head.put<std::uint64_t>(payloads[i].size());
    offset += payloads[i].size();
  }

  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  bool ok = std::fwrite(head.bytes().data(), 1, head.size(), f) == head.size();
  for (const auto& p : payloads) {
    ok = ok && std::fwrite(p.data(), 1, p.size(), f) == p.size();
  }
  ok = (std::fclose(f) == 0) && ok;
  return ok;
}

const char* geoStatusName(GeoStatus status) {
  switch (status) {
    case GeoStatus::kOk: return "ok";
    case GeoStatus::kOpenFailed: return "open-failed";
    case GeoStatus::kBadMagic: return "bad-magic";
    case GeoStatus::kBadVersion: return "bad-version";
    case GeoStatus::kTruncated: return "truncated";
    case GeoStatus::kInconsistent: return "inconsistent";
  }
  return "unknown";
}

namespace {
GeoStatus fail(GeoStatus status, std::string* detail, const std::string& why) {
  if (detail != nullptr) *detail = why;
  return status;
}
/// Per-entry on-disk sizes, used to bound table counts *before* reserving.
constexpr std::uint64_t kIoletEntryBytes = 74;
constexpr std::uint64_t kBlockEntryBytes = 28;
/// Minimum payload bytes one fluid site can encode to (u16 local index +
/// 26 one-byte bulk links + hasNormal u8).
constexpr std::uint64_t kMinSiteBytes = 29;
}  // namespace

GeoStatus tryReadSgmyHeader(const std::string& path, SgmyHeader* header,
                            std::string* detail) {
  std::ifstream f(path, std::ios::binary);
  if (!f.good()) {
    return fail(GeoStatus::kOpenFailed, detail, "cannot open " + path);
  }
  f.seekg(0, std::ios::end);
  const auto fileSize = static_cast<std::uint64_t>(f.tellg());
  f.seekg(0);

  // The header is read section by section, never the payloads. next(n)
  // loads the following n bytes, or what is left of the file: a Reader over
  // a short chunk throws at the same field a whole-file buffer would.
  std::uint64_t pos = 0;
  std::vector<std::byte> chunk;
  auto next = [&](std::uint64_t n) {
    chunk.resize(static_cast<std::size_t>(std::min(n, fileSize - pos)));
    if (!chunk.empty()) {
      f.read(reinterpret_cast<char*>(chunk.data()),
             static_cast<std::streamsize>(chunk.size()));
      HEMO_CHECK_MSG(f.good(), "short read in " << path);
    }
    pos += chunk.size();
    return io::Reader(chunk);
  };

  SgmyHeader h;
  try {
    // magic 4, version 4, dims 12, blockSize 4, voxelSize 8, origin 24,
    // iolet count 4.
    io::Reader r = next(60);
    char magic[4];
    r.getRaw(magic, 4);
    if (std::string(magic, 4) != "SGMY") {
      return fail(GeoStatus::kBadMagic, detail, "bad magic in " + path);
    }
    const auto version = r.get<std::uint32_t>();
    if (version != kVersion) {
      return fail(GeoStatus::kBadVersion, detail,
                  "unsupported sgmy version " + std::to_string(version));
    }

    h.dims = getVec3i(r);
    h.blockSize = r.get<std::int32_t>();
    h.voxelSize = r.get<double>();
    h.origin = getVec3d(r);
    if (h.dims.x <= 0 || h.dims.y <= 0 || h.dims.z <= 0 || h.blockSize <= 0) {
      return fail(GeoStatus::kInconsistent, detail,
                  "non-positive dims/blockSize in " + path);
    }
    const auto numIolets = r.get<std::uint32_t>();
    // Count sanity *before* the loop allocates: each entry has a fixed
    // on-disk size, so a count the remaining bytes cannot hold is corrupt.
    if (numIolets > (fileSize - pos) / kIoletEntryBytes) {
      return fail(GeoStatus::kTruncated, detail,
                  "iolet table exceeds file size in " + path);
    }
    r = next(numIolets * kIoletEntryBytes + 8);
    for (std::uint32_t i = 0; i < numIolets; ++i) {
      Iolet io;
      io.kind = static_cast<Iolet::Kind>(r.get<std::uint8_t>());
      io.bc = static_cast<Iolet::Bc>(r.get<std::uint8_t>());
      io.center = getVec3d(r);
      io.normal = getVec3d(r);
      io.radius = r.get<double>();
      io.density = r.get<double>();
      io.speed = r.get<double>();
      h.iolets.push_back(io);
    }
    const auto numBlocks = r.get<std::uint64_t>();
    if (numBlocks > (fileSize - pos) / kBlockEntryBytes) {
      return fail(GeoStatus::kTruncated, detail,
                  "block table exceeds file size in " + path);
    }
    r = next(numBlocks * kBlockEntryBytes);
    h.blockTable.reserve(static_cast<std::size_t>(numBlocks));
    for (std::uint64_t i = 0; i < numBlocks; ++i) {
      SgmyBlockEntry e;
      e.blockLinear = r.get<std::uint64_t>();
      e.fluidCount = r.get<std::uint32_t>();
      e.payloadOffset = r.get<std::uint64_t>();
      e.payloadBytes = r.get<std::uint64_t>();
      h.blockTable.push_back(e);
    }
  } catch (const CheckError&) {
    return fail(GeoStatus::kTruncated, detail,
                "file ends inside the header in " + path);
  }
  h.payloadStart = pos;

  // Table-vs-file consistency: every payload must lie inside the payload
  // section and be large enough to hold its declared fluid sites. Overflow-
  // safe forms, since all three quantities come from the (untrusted) file.
  const std::uint64_t payloadSection = fileSize - h.payloadStart;
  const std::uint64_t numBlockCells =
      static_cast<std::uint64_t>(h.blockDims().x) *
      static_cast<std::uint64_t>(h.blockDims().y) *
      static_cast<std::uint64_t>(h.blockDims().z);
  for (const auto& e : h.blockTable) {
    if (e.blockLinear >= numBlockCells) {
      return fail(GeoStatus::kInconsistent, detail,
                  "block index outside the lattice in " + path);
    }
    if (e.payloadOffset > payloadSection ||
        e.payloadBytes > payloadSection - e.payloadOffset) {
      return fail(GeoStatus::kInconsistent, detail,
                  "block payload beyond end of file in " + path);
    }
    if (e.fluidCount > e.payloadBytes / kMinSiteBytes) {
      return fail(GeoStatus::kInconsistent, detail,
                  "block fluid count exceeds its payload in " + path);
    }
  }
  *header = std::move(h);
  return GeoStatus::kOk;
}

SgmyHeader readSgmyHeader(const std::string& path) {
  SgmyHeader h;
  std::string detail;
  const GeoStatus status = tryReadSgmyHeader(path, &h, &detail);
  HEMO_CHECK_MSG(status == GeoStatus::kOk,
                 "sgmy read failed (" << geoStatusName(status)
                                      << "): " << detail);
  return h;
}

std::vector<std::vector<std::byte>> readSgmyBlockPayloads(
    const std::string& path, const SgmyHeader& header, std::size_t first,
    std::size_t last) {
  HEMO_CHECK(first <= last && last <= header.blockTable.size());
  std::ifstream f(path, std::ios::binary);
  HEMO_CHECK_MSG(f.good(), "cannot open " << path);
  std::vector<std::vector<std::byte>> payloads;
  payloads.reserve(last - first);
  for (std::size_t i = first; i < last; ++i) {
    const auto& e = header.blockTable[i];
    std::vector<std::byte> buf(static_cast<std::size_t>(e.payloadBytes));
    f.seekg(static_cast<std::streamoff>(header.payloadStart + e.payloadOffset));
    f.read(reinterpret_cast<char*>(buf.data()),
           static_cast<std::streamsize>(buf.size()));
    HEMO_CHECK_MSG(f.good(), "short read in " << path);
    payloads.push_back(std::move(buf));
  }
  return payloads;
}

SparseLattice readSgmy(const std::string& path) {
  const SgmyHeader h = readSgmyHeader(path);
  SparseLattice lattice(h.dims, h.voxelSize, h.origin, h.blockSize);
  lattice.setIolets(h.iolets);
  const auto payloads =
      readSgmyBlockPayloads(path, h, 0, h.blockTable.size());
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    for (const auto& site :
         decodeBlockPayload(h, h.blockTable[i].blockLinear, payloads[i])) {
      lattice.addFluidSite(site.position, site.record);
    }
  }
  lattice.finalize();
  return lattice;
}

}  // namespace hemo::geometry
