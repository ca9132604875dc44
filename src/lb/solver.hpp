#pragma once
/// \file solver.hpp
/// \brief Distributed sparse-geometry lattice-Boltzmann solver.
///
/// The method matches HemeLB's core: indirect addressing over fluid sites
/// only, BGK or TRT collision, halfway bounce-back walls, anti-bounce-back
/// pressure inlets/outlets, Guo forcing, and per-step halo exchange of the
/// distribution values that stream across rank boundaries.
///
/// Distributions live in structure-of-arrays planes (lb/layout.hpp), one
/// aligned, padded plane per velocity direction. Every public surface
/// (checkpointing, observables, vis extraction) goes through gather/
/// scatter accessors in external (DomainMap) site order.
///
/// One production kernel drives the hot path, plus a test oracle
/// (LbParams::kernel):
///
/// * **kSimd** (default): one pass per site fuses collision and streaming.
///   Owned sites are internally reordered frontier-first (SiteReordering):
///   the frontier pass collides every site whose update touches a rank
///   boundary, wall or iolet, applies the local boundary rules and drops
///   the outgoing halo populations straight into persistent send buffers;
///   the halo messages are then posted and the bulk sites are processed
///   *while the messages are in flight*; finally the receives are drained
///   directly into the frontier sites' fNext slots. Both passes run as
///   cache-blocked, branch-free SIMD strips over the SoA planes
///   (util/simd.hpp: AVX-512/AVX2 intrinsics with a scalar fallback). Bulk
///   sites are sorted row-major (x fastest), so the per-direction push
///   destinations decompose into long unit-stride runs (the
///   propagation-optimised layout of Wittmann et al.); the streamed writes
///   retire through non-temporal stores once the working set outgrows the
///   last-level cache. Only iolet rules and halo sends stay on a per-op
///   scalar path.
/// * **kReference**: the textbook three-phase collide -> blocking exchange
///   -> pull-stream, kept only as the oracle of the equivalence tests.
///
/// Streaming uses f_i(x, t+1) = f*_i(x - c_i, t); the production kernel
/// realises it as a push from the collided site, the reference kernel as
/// a pull at the destination. The per-site arithmetic is the same update
/// to round-off, so the trajectories agree to ~1e-12 over hundreds of
/// steps.

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#if defined(__linux__)
#include <unistd.h>
#endif

#include "comm/communicator.hpp"
#include "lb/domain_map.hpp"
#include "lb/lattice.hpp"
#include "lb/layout.hpp"
#include "telemetry/telemetry.hpp"
#include "util/check.hpp"
#include "util/simd.hpp"
#include "util/timer.hpp"

namespace hemo::lb {

/// Fixed point-to-point tag for halo traffic (below comm::kMaxUserTag).
inline constexpr int kHaloTag = 100;

struct LbParams {
  double tau = 0.8;
  enum class Collision { kBgk, kTrt } collision = Collision::kBgk;
  /// TRT "magic" parameter Λ; 3/16 gives exact mid-link bounce-back walls.
  double trtMagic = 3.0 / 16.0;
  /// Uniform body force (lattice units), applied with Guo forcing.
  Vec3d bodyForce{0, 0, 0};
  /// Also accumulate the deviatoric stress tensor during collision.
  bool computeStress = false;
  /// Hot-path kernel: kSimd is the production collide+stream sweep,
  /// kReference the three-phase oracle the equivalence tests compare with.
  enum class Kernel { kSimd, kReference } kernel = Kernel::kSimd;

  /// Kinematic viscosity implied by tau (lattice units).
  double viscosity() const { return kCs2 * (tau - 0.5); }

  const char* kernelName() const {
    return kernel == Kernel::kSimd ? "simd" : "reference";
  }
};

template <typename Lattice>
class Solver {
 public:
  static constexpr int kQ = Lattice::kQ;
  /// Sites per SIMD store strip (frontier and bulk passes share the one
  /// strip buffer). Sized so the per-direction drain writes long
  /// sequential bursts (the buffer, ~150 KB for D3Q19, spills to L2 —
  /// collision is compute-bound enough that the extra L1 misses are
  /// noise, while short write bursts measurably defeat the core's
  /// write-combining).
  static constexpr std::uint32_t kBulkStrip = 1024;
  static_assert(kBulkStrip % simd::kWidth == 0);
  /// NT-store fallback threshold when the LLC size is unknown: stream
  /// past the cache only when f + fNext exceed this (smaller lattices
  /// rehit the lines next step).
  static constexpr std::size_t kNtAutoBytes = std::size_t{16} << 20;

  /// NT-store threshold: the last-level cache size when the OS reports
  /// it, else kNtAutoBytes. Non-temporal stores only pay once the slabs
  /// cannot stay LLC-resident between steps — streaming an LLC-resident
  /// working set to DRAM was measured ~20% slower.
  static std::size_t ntAutoThresholdBytes() {
#if defined(__linux__) && defined(_SC_LEVEL3_CACHE_SIZE)
    const long l3 = ::sysconf(_SC_LEVEL3_CACHE_SIZE);
    if (l3 > 0) return static_cast<std::size_t>(l3);
#endif
    return kNtAutoBytes;
  }

  Solver(const DomainMap& domain, comm::Communicator& comm,
         const LbParams& params)
      : domain_(&domain), comm_(&comm), params_(params) {
    HEMO_CHECK_MSG(params.tau > 0.5, "tau must exceed 0.5 for stability");
    f_.init(domain.numOwned());
    fNext_.init(domain.numOwned());
    const std::size_t distBytes =
        2 * domain.numOwned() * static_cast<std::size_t>(kQ) * sizeof(double);
    useNt_ = distBytes > ntAutoThresholdBytes();
    for (const auto& io : domain.lattice().iolets()) {
      ioletDensity_.push_back(io.density);
      ioletVelocity_.push_back(io.normal.normalized() * io.speed);
      ioletIsVelocityBc_.push_back(io.bc == geometry::Iolet::Bc::kVelocity);
    }
    buildTables();
    initEquilibrium(1.0, Vec3d{0, 0, 0});
  }

  const DomainMap& domain() const { return *domain_; }
  const LbParams& params() const { return params_; }
  std::uint64_t stepsDone() const { return stepsDone_; }

  /// Vector lanes of the SIMD backend this binary was built with (the
  /// kernels see it via util/simd.hpp; reported in benches/telemetry).
  static constexpr int simdWidth() { return simd::kWidth; }
  /// Whether the SIMD kernel retires streamed writes via NT stores here.
  bool usesNtStores() const { return useNt_; }

  /// Rebase the step counter (checkpoint restore): the restored run then
  /// reports the same stepsDone() as the writing run did.
  void setStepsDone(std::uint64_t steps) { stepsDone_ = steps; }

  /// The frontier/bulk internal permutation (external indexing unchanged).
  const SiteReordering& reordering() const { return reorder_; }

  /// Override an iolet's target density mid-run (computational steering).
  void setIoletDensity(std::size_t ioletId, double density) {
    HEMO_CHECK(ioletId < ioletDensity_.size());
    ioletDensity_[ioletId] = density;
  }
  double ioletDensity(std::size_t ioletId) const {
    return ioletDensity_[ioletId];
  }

  /// Override a velocity iolet's target velocity (steering). Also switches
  /// the iolet to the velocity boundary condition.
  void setIoletVelocity(std::size_t ioletId, const Vec3d& velocity) {
    HEMO_CHECK(ioletId < ioletVelocity_.size());
    ioletVelocity_[ioletId] = velocity;
    ioletIsVelocityBc_[ioletId] = true;
  }
  Vec3d ioletVelocity(std::size_t ioletId) const {
    return ioletVelocity_[ioletId];
  }

  /// Change relaxation time mid-run (steering). Keeps tau > 0.5.
  void setTau(double tau) {
    HEMO_CHECK(tau > 0.5);
    params_.tau = tau;
  }

  void setBodyForce(const Vec3d& f) { params_.bodyForce = f; }

  /// Reset all distributions to equilibrium at (rho, u).
  void initEquilibrium(double rho, const Vec3d& u) {
    const std::size_t n = domain_->numOwned();
    for (int i = 0; i < kQ; ++i) {
      f_.fill(i, equilibrium<Lattice>(i, rho, u));
      fNext_.fill(i, 0.0);
    }
    macro_.rho.assign(n, rho);
    macro_.u.assign(n, u);
    if (params_.computeStress) macro_.stress.assign(n, SymTensor3{});
  }

  /// Initialise every owned site to the equilibrium of (rho, u) returned by
  /// `fn(worldPos)` — used to seed perturbed or analytic initial states.
  template <typename F>
  void initWith(F&& fn) {
    const std::size_t n = domain_->numOwned();
    for (std::size_t e = 0; e < n; ++e) {
      const Vec3d w = domain_->lattice().siteWorld(
          domain_->globalOf(static_cast<std::uint32_t>(e)));
      const auto [rho, u] = fn(w);
      const auto l = static_cast<std::size_t>(reorder_.internalOf[e]);
      for (int i = 0; i < kQ; ++i) {
        f_.at(i, l) = equilibrium<Lattice>(i, rho, u);
      }
      macro_.rho[e] = rho;
      macro_.u[e] = u;
    }
  }

  /// One full LB update.
  void step() {
#ifndef HEMO_TELEMETRY_DISABLED
    // Phase-tag the step for wait-state attribution: every envelope this
    // step posts (halo, step collectives) carries the epoch, so receivers
    // can pin blocked time to a specific step on a specific sender.
    if (auto* t = telemetry::threadTelemetry()) {
      t->waitState().setEpoch(stepsDone_ + 1);
    }
#endif
    if (params_.kernel == LbParams::Kernel::kReference) {
      collide();
      exchange();
      stream();
    } else {
      stepSimd();
    }
    f_.swapWith(fNext_);
    ++stepsDone_;
  }

  void run(int steps) {
    for (int s = 0; s < steps; ++s) step();
  }

  /// Macroscopic moments at time of the last collide (pre-collision),
  /// in external (DomainMap) site order.
  const MacroFields& macro() const { return macro_; }

  /// Mass on this rank (sum of cached densities).
  double localMass() const {
    double m = 0.0;
    for (const double r : macro_.rho) m += r;
    return m;
  }

  /// Momentum on this rank.
  Vec3d localMomentum() const {
    Vec3d p{0, 0, 0};
    for (std::size_t l = 0; l < macro_.u.size(); ++l) {
      p += macro_.u[l] * macro_.rho[l];
    }
    return p;
  }

  /// Per-phase CPU time accumulated on this rank. In the production kernel
  /// collide covers the frontier and bulk passes, stream the receive
  /// scatter.
  const PhaseTimer& collideTimer() const { return collideTimer_; }
  const PhaseTimer& streamTimer() const { return streamTimer_; }
  const PhaseTimer& commTimer() const { return commTimer_; }
  /// Wall time of the bulk sweep while halo messages were in flight.
  const WallPhaseTimer& overlapTimer() const { return overlapTimer_; }
  /// Wall time blocked waiting for halo receives after the bulk sweep.
  const WallPhaseTimer& recvWaitTimer() const { return recvWaitTimer_; }

  /// Fraction of the halo-exchange window hidden behind bulk compute:
  /// overlap / (overlap + residual receive wait). Zero on the reference
  /// kernel (nothing is overlapped) and on a rank with no halo.
  double commHiddenFraction() const {
    const double denom = overlapTimer_.total() + recvWaitTimer_.total();
    return denom > 0.0 ? overlapTimer_.total() / denom : 0.0;
  }

  void resetTimers() {
    collideTimer_.reset();
    streamTimer_.reset();
    commTimer_.reset();
    overlapTimer_.reset();
    recvWaitTimer_.reset();
  }

  /// Distribution i over the owned sites in external (DomainMap) order.
  std::vector<double> distribution(int i) const {
    std::vector<double> out(domain_->numOwned());
    gatherDistribution(i, out);
    return out;
  }

  /// As distribution(), but into caller-owned storage (checkpointing).
  void gatherDistribution(int i, std::vector<double>& out) const {
    const std::size_t n = domain_->numOwned();
    out.resize(n);
    const double* fi = f_.dirBase(i);
    for (std::size_t l = 0; l < n; ++l) {
      out[static_cast<std::size_t>(reorder_.externalOf[l])] = fi[l];
    }
  }

  /// Overwrite distribution i from external-order values (restore, tests).
  void setDistribution(int i, const std::vector<double>& values) {
    HEMO_CHECK(values.size() == domain_->numOwned());
    double* fi = f_.dirBase(i);
    for (std::size_t e = 0; e < values.size(); ++e) {
      fi[static_cast<std::size_t>(reorder_.internalOf[e])] = values[e];
    }
    refreshMacros();
  }

  /// Overwrite all kQ distributions at once from external-order columns,
  /// refreshing the cached macro fields a single time (bulk restore path
  /// used by live migration).
  void setDistributions(const std::vector<std::vector<double>>& columns) {
    HEMO_CHECK(columns.size() == static_cast<std::size_t>(kQ));
    for (int i = 0; i < kQ; ++i) {
      const auto& values = columns[static_cast<std::size_t>(i)];
      HEMO_CHECK(values.size() == domain_->numOwned());
      double* fi = f_.dirBase(i);
      for (std::size_t e = 0; e < values.size(); ++e) {
        fi[static_cast<std::size_t>(reorder_.internalOf[e])] = values[e];
      }
    }
    refreshMacros();
  }

  /// Whether iolet `ioletId` currently imposes a velocity (true) or density
  /// (false) boundary condition — including steered overrides; migration
  /// carries this over to the rebuilt solver.
  bool ioletIsVelocityBc(std::size_t ioletId) const {
    HEMO_CHECK(ioletId < ioletIsVelocityBc_.size());
    return ioletIsVelocityBc_[ioletId] != 0;
  }

 private:
  enum class PullKind : std::uint8_t { kLocal, kRecv, kWall, kIolet };
  struct PullSrc {
    PullKind kind = PullKind::kWall;
    std::uint32_t index = 0;  ///< internal idx / flat recv slot / iolet id
  };

  /// One scalar boundary/halo action of a frontier site's update.
  enum class OpKind : std::uint8_t {
    kSend,  ///< sendFlat_[index] = f*[dir]
    kWall,  ///< fNext[dir][self] = f*[opposite(dir)] (bounce-back)
    kIolet  ///< fNext[dir][self] = iolet rule (index = iolet id)
  };
  struct BoundaryOp {
    std::uint32_t index = 0;
    OpKind kind = OpKind::kSend;
    std::uint8_t dir = 0;
  };
  struct RecvDst {
    std::uint32_t dest = 0;  ///< internal site index
    std::uint16_t dir = 0;
  };

  /// Site reordering, halo plans, and the streaming tables of the selected
  /// kernel: the pull table for the reference oracle, the push tables and
  /// unit-stride runs for the production kernel (never both).
  void buildTables() {
    const auto& lat = domain_->lattice();
    const auto& set = Lattice::kSet;
    const std::size_t n = domain_->numOwned();
    const bool reference = params_.kernel == LbParams::Kernel::kReference;

    // --- classify owned sites: bulk (every pull is local) vs frontier ----
    std::vector<std::uint8_t> isFrontier(n, 0);
    for (std::size_t e = 0; e < n; ++e) {
      const std::uint64_t g = domain_->globalOf(static_cast<std::uint32_t>(e));
      for (int i = 1; i < kQ; ++i) {
        const int gd = set.geoDir[static_cast<std::size_t>(i)];
        const auto upstream = lat.neighborId(g, geometry::oppositeDirection(gd));
        if (upstream < 0 ||
            domain_->ownerOf(static_cast<std::uint64_t>(upstream)) !=
                domain_->rank()) {
          isFrontier[e] = 1;
          break;
        }
      }
    }

    // --- internal ordering: frontier first (stable), bulk row-major -----
    reorder_.externalOf.clear();
    reorder_.externalOf.reserve(n);
    for (std::size_t e = 0; e < n; ++e) {
      if (isFrontier[e]) {
        reorder_.externalOf.push_back(static_cast<std::uint32_t>(e));
      }
    }
    reorder_.numFrontier = static_cast<std::uint32_t>(reorder_.externalOf.size());
    // Row-major (x fastest): consecutive internal indices are x-consecutive
    // sites, so the per-direction push destinations decompose into long
    // unit-stride runs the store pass can retire as whole vectors (the
    // propagation-optimised layout).
    const auto rowMajorKey = [](const Vec3i& p) -> std::uint64_t {
      return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(p.z))
              << 42) |
             (static_cast<std::uint64_t>(static_cast<std::uint32_t>(p.y))
              << 21) |
             static_cast<std::uint64_t>(static_cast<std::uint32_t>(p.x));
    };
    std::vector<std::pair<std::uint64_t, std::uint32_t>> bulk;
    bulk.reserve(n - reorder_.numFrontier);
    for (std::size_t e = 0; e < n; ++e) {
      if (!isFrontier[e]) {
        bulk.emplace_back(
            rowMajorKey(lat.sitePosition(
                domain_->globalOf(static_cast<std::uint32_t>(e)))),
            static_cast<std::uint32_t>(e));
      }
    }
    std::sort(bulk.begin(), bulk.end());
    for (const auto& [key, e] : bulk) reorder_.externalOf.push_back(e);
    reorder_.internalOf.assign(n, 0);
    for (std::size_t l = 0; l < n; ++l) {
      reorder_.internalOf[reorder_.externalOf[l]] =
          static_cast<std::uint32_t>(l);
    }

    // --- halo needs (+ the reference pull table), internal order --------
    if (reference) {
      for (int i = 1; i < kQ; ++i) {
        pull_[static_cast<std::size_t>(i)].assign(n, PullSrc{});
      }
    }
    // needs[r] = packed (globalUpstream * 32 + i) values this rank pulls
    // from rank r, in deterministic internal (site, velocity) order.
    std::vector<std::vector<std::uint64_t>> needs(
        static_cast<std::size_t>(comm_->size()));
    struct RecvRef {
      std::uint32_t site;  ///< internal index
      std::uint16_t dir;
      std::uint16_t owner;
      std::uint32_t pos;  ///< position within needs[owner]
    };
    std::vector<RecvRef> recvRefs;
    for (std::size_t l = 0; l < n; ++l) {
      const std::uint64_t g =
          domain_->globalOf(reorder_.externalOf[l]);
      for (int i = 1; i < kQ; ++i) {
        const int gd = set.geoDir[static_cast<std::size_t>(i)];
        const int upDir = geometry::oppositeDirection(gd);
        const auto upstream = lat.neighborId(g, upDir);
        PullSrc src;
        if (upstream >= 0) {
          const int owner =
              domain_->ownerOf(static_cast<std::uint64_t>(upstream));
          if (owner == domain_->rank()) {
            src.kind = PullKind::kLocal;
            if (reference) {
              src.index = reorder_.internalOf[static_cast<std::size_t>(
                  domain_->localOf(static_cast<std::uint64_t>(upstream)))];
            }
          } else {
            src.kind = PullKind::kRecv;
            auto& need = needs[static_cast<std::size_t>(owner)];
            recvRefs.push_back({static_cast<std::uint32_t>(l),
                                static_cast<std::uint16_t>(i),
                                static_cast<std::uint16_t>(owner),
                                static_cast<std::uint32_t>(need.size())});
            need.push_back(static_cast<std::uint64_t>(upstream) * 32 +
                           static_cast<std::uint64_t>(i));
          }
        } else {
          const auto& link =
              lat.site(g).links[static_cast<std::size_t>(upDir)];
          HEMO_CHECK_MSG(link.kind != geometry::LinkKind::kBulk,
                         "voxelizer/link inconsistency at site " << g);
          if (link.kind == geometry::LinkKind::kWall) {
            src.kind = PullKind::kWall;
          } else {
            src.kind = PullKind::kIolet;
            src.index = link.ioletId;
          }
        }
        if (reference) pull_[static_cast<std::size_t>(i)][l] = src;
      }
    }

    // Flat receive offsets per source rank; fix up slots; scatter targets.
    recvOffset_.assign(static_cast<std::size_t>(comm_->size()) + 1, 0);
    for (int r = 0; r < comm_->size(); ++r) {
      recvOffset_[static_cast<std::size_t>(r) + 1] =
          recvOffset_[static_cast<std::size_t>(r)] +
          static_cast<std::uint32_t>(needs[static_cast<std::size_t>(r)].size());
    }
    recvFlat_.assign(recvOffset_.back(), 0.0);
    recvDst_.assign(recvOffset_.back(), RecvDst{});
    for (const auto& ref : recvRefs) {
      const std::uint32_t slot =
          recvOffset_[static_cast<std::size_t>(ref.owner)] + ref.pos;
      if (reference) {
        pull_[static_cast<std::size_t>(ref.dir)][ref.site].index = slot;
      }
      recvDst_[slot] = {ref.site, ref.dir};
    }
    for (int r = 0; r < comm_->size(); ++r) {
      if (!needs[static_cast<std::size_t>(r)].empty()) {
        recvRanks_.push_back(r);
      }
    }

    // Tell the owners what to send: they answer my needs in my order.
    {
      comm::Communicator::TrafficScope scope(*comm_, comm::Traffic::kHalo);
      const auto requests = comm_->alltoallVec(needs);
      for (int r = 0; r < comm_->size(); ++r) {
        const auto& reqs = requests[static_cast<std::size_t>(r)];
        if (reqs.empty()) continue;
        SendPlan plan;
        plan.dest = r;
        plan.entries.reserve(reqs.size());
        for (const auto packed : reqs) {
          const std::uint64_t g = packed / 32;
          const int i = static_cast<int>(packed % 32);
          const auto local = domain_->localOf(g);
          HEMO_CHECK_MSG(local >= 0, "halo request for non-owned site " << g);
          plan.entries.push_back(
              {reorder_.internalOf[static_cast<std::size_t>(local)],
               static_cast<std::uint16_t>(i)});
        }
        sendPlans_.push_back(std::move(plan));
      }
    }
    // Persistent flat send storage: per-plan contiguous slices, so a slice
    // can be handed to sendBytes directly (no per-step heap churn).
    sendFlatOffset_.clear();
    std::size_t sendTotal = 0;
    for (const auto& plan : sendPlans_) {
      sendFlatOffset_.push_back(sendTotal);
      sendTotal += plan.entries.size();
    }
    sendFlat_.assign(sendTotal, 0.0);

    if (!reference) buildPushTables();
  }

  /// Push tables of the production kernel, derived from the same geometry/
  /// ownership facts as the halo plans: every (site, direction) value
  /// either pushes to a local downstream slot, fills a send slot, or folds
  /// back into the site itself through a wall/iolet rule. Bulk sites keep
  /// one destination per direction (push_). Frontier local pushes become
  /// per-direction destination tables, the halfway-bounce-back wall folds
  /// of the vectorised frontier range become per-direction wall flags
  /// (dst plane = the incoming direction, dst index = the site itself, src
  /// plane = the outgoing one: unit stride on both sides), and only the
  /// iolet/halo-send actions — plus the walls of the scalar frontier tail
  /// [nfVec, nf), which the strips never touch — stay in the short
  /// boundary-only CSR.
  void buildPushTables() {
    const auto& lat = domain_->lattice();
    const auto& set = Lattice::kSet;
    const std::size_t n = domain_->numOwned();
    const std::uint32_t nf = reorder_.numFrontier;
    const std::uint32_t nfVec =
        nf - nf % static_cast<std::uint32_t>(simd::kWidth);

    // (internal site * 32 + dir) -> flat send slot.
    std::unordered_map<std::uint64_t, std::uint32_t> sendSlotOf;
    for (std::size_t p = 0; p < sendPlans_.size(); ++p) {
      const auto& plan = sendPlans_[p];
      for (std::size_t k = 0; k < plan.entries.size(); ++k) {
        const auto& e = plan.entries[k];
        sendSlotOf.emplace(
            static_cast<std::uint64_t>(e.local) * 32 + e.velocity,
            static_cast<std::uint32_t>(sendFlatOffset_[p] + k));
      }
    }

    std::array<std::vector<std::uint8_t>, kQ> wallAt;
    for (int i = 1; i < kQ; ++i) {
      push_[static_cast<std::size_t>(i)].assign(n - nf, 0);
      frontierLocalDst_[static_cast<std::size_t>(i)].assign(nf, kNoDst);
      wallAt[static_cast<std::size_t>(i)].assign(nfVec, 0);
    }
    frontierBoundaryStart_.assign(static_cast<std::size_t>(nf) + 1, 0);
    frontierBoundaryOps_.clear();

    for (std::size_t l = 0; l < n; ++l) {
      const std::uint64_t g = domain_->globalOf(reorder_.externalOf[l]);
      for (int i = 1; i < kQ; ++i) {
        const int gd = set.geoDir[static_cast<std::size_t>(i)];
        const auto down = lat.neighborId(g, gd);
        if (down >= 0 &&
            domain_->ownerOf(static_cast<std::uint64_t>(down)) ==
                domain_->rank()) {
          const std::uint32_t dest =
              reorder_.internalOf[static_cast<std::size_t>(
                  domain_->localOf(static_cast<std::uint64_t>(down)))];
          if (l < nf) {
            frontierLocalDst_[static_cast<std::size_t>(i)][l] = dest;
          } else {
            push_[static_cast<std::size_t>(i)][l - nf] = dest;
          }
          continue;
        }
        HEMO_CHECK_MSG(l < nf, "bulk site with non-local downstream " << g);
        if (down >= 0) {
          const auto it = sendSlotOf.find(static_cast<std::uint64_t>(l) * 32 +
                                          static_cast<std::uint64_t>(i));
          HEMO_CHECK_MSG(it != sendSlotOf.end(),
                         "missing halo send slot for site " << g);
          frontierBoundaryOps_.push_back(
              {it->second, OpKind::kSend, static_cast<std::uint8_t>(i)});
          continue;
        }
        // The outgoing population hits a wall/iolet and folds back into
        // this site along the opposite (incoming) direction — the push
        // form of the pull table's kWall/kIolet rules.
        const auto& link = lat.site(g).links[static_cast<std::size_t>(gd)];
        const auto in = static_cast<std::uint8_t>(
            set.opposite[static_cast<std::size_t>(i)]);
        if (link.kind != geometry::LinkKind::kWall) {
          frontierBoundaryOps_.push_back({link.ioletId, OpKind::kIolet, in});
        } else if (l < nfVec) {
          wallAt[static_cast<std::size_t>(in)][l] = 1;
        } else {
          frontierBoundaryOps_.push_back({0, OpKind::kWall, in});
        }
      }
      if (l < nf) {
        frontierBoundaryStart_[l + 1] =
            static_cast<std::uint32_t>(frontierBoundaryOps_.size());
      }
    }
    buildSimdRuns(wallAt);
  }

  /// Decompose the push targets into unit-stride runs. For row-major
  /// bulk ordering almost every destination advances in lockstep with the
  /// source (dst[k+1] == dst[k]+1 whenever two x-consecutive sites stream
  /// to two x-consecutive sites), so the streamed writes of the SIMD store
  /// pass become a handful of contiguous vector copies per strip instead
  /// of kQ scatter loops. Runs never cross strip boundaries — the store
  /// pass drains them strip by strip with one cursor per direction.
  void buildSimdRuns(const std::array<std::vector<std::uint8_t>, kQ>& wallAt) {
    const std::uint32_t nf = reorder_.numFrontier;
    const auto n = static_cast<std::uint32_t>(domain_->numOwned());
    constexpr auto kW = static_cast<std::uint32_t>(simd::kWidth);
    // Start the vector groups at the first kW-aligned bulk site: the SoA
    // planes are 64-byte aligned with a pitch that is a multiple of kW
    // doubles, so an aligned group index makes every per-plane group load
    // a full aligned vector (an odd frontier count would otherwise split
    // all 19 loads of every group across two cache lines). The few bulk
    // sites before the aligned start take the scalar path.
    simdVecStart_ = nf;
    if (simdVecStart_ % kW != 0) simdVecStart_ += kW - simdVecStart_ % kW;
    if (simdVecStart_ > n) simdVecStart_ = n;
    const std::uint32_t nb = n - simdVecStart_;
    simdVecSites_ = nb - nb % kW;
    for (int i = 1; i < kQ; ++i) {
      auto& runs = simdRuns_[static_cast<std::size_t>(i)];
      runs.clear();
      const std::uint32_t* dst =
          push_[static_cast<std::size_t>(i)].data() + (simdVecStart_ - nf);
      for (std::uint32_t k = 0; k < simdVecSites_; ++k) {
        if (k % kBulkStrip == 0 || dst[k] != dst[k - 1] + 1) {
          runs.push_back({k, dst[k], 1});
        } else {
          ++runs.back().len;
        }
      }
    }
    bulkStrip_.assign(
        static_cast<std::size_t>(kStripPlanes) * kBulkStrip, 0.0);

    // Unit-stride runs over the external indices of the two vectorised
    // ranges: the reorder preserves relative order, so extOf is strictly
    // increasing with gaps where the other class' sites sit — the macro
    // fields (external order) drain from the strip's moment planes as
    // sequential bursts instead of a per-lane scatter.
    const auto buildExtRuns = [&](std::vector<StreamRun>& runs,
                                  std::uint32_t first, std::uint32_t count) {
      runs.clear();
      const std::uint32_t* ext = reorder_.externalOf.data() + first;
      for (std::uint32_t k = 0; k < count; ++k) {
        if (!runs.empty() && runs.back().srcK + runs.back().len == k &&
            runs.back().dst + runs.back().len == ext[k] &&
            k % kBulkStrip != 0) {
          ++runs.back().len;
        } else {
          runs.push_back({k, ext[k], 1});
        }
      }
    };
    buildExtRuns(macroRunsBulk_, simdVecStart_, simdVecSites_);
    const std::uint32_t nfVec = nf - nf % kW;
    buildExtRuns(macroRunsFrontier_, 0, nfVec);

    for (int i = 1; i < kQ; ++i) {
      auto& runs = frontierWallRuns_[static_cast<std::size_t>(i)];
      runs.clear();
      const std::uint8_t* at = wallAt[static_cast<std::size_t>(i)].data();
      for (std::uint32_t k = 0; k < nfVec; ++k) {
        if (!at[k]) continue;
        if (!runs.empty() && runs.back().srcK + runs.back().len == k &&
            k % kBulkStrip != 0) {
          ++runs.back().len;
        } else {
          runs.push_back({k, k, 1});
        }
      }
    }

    // Unit-stride runs over the frontier dst tables, exactly like the
    // bulk runs: consecutive frontier sites usually push to consecutive
    // slots of the same plane, so the strips can retire them as
    // sequential bursts instead of 18 interleaved element stores per
    // site. kNoDst lanes (boundary ops) break runs, as do strip edges.
    for (int i = 1; i < kQ; ++i) {
      auto& runs = frontierRuns_[static_cast<std::size_t>(i)];
      runs.clear();
      const std::uint32_t* dst =
          frontierLocalDst_[static_cast<std::size_t>(i)].data();
      for (std::uint32_t k = 0; k < nfVec; ++k) {
        if (dst[k] == kNoDst) continue;
        if (!runs.empty() && runs.back().srcK + runs.back().len == k &&
            runs.back().dst + runs.back().len == dst[k] &&
            k % kBulkStrip != 0) {
          ++runs.back().len;
        } else {
          runs.push_back({k, dst[k], 1});
        }
      }
    }
  }

  /// Loop-invariant collision constants plus raw output pointers, hoisted
  /// once per sweep so the hot loops never re-load vector data pointers
  /// the compiler cannot prove alias-free.
  struct CollisionCtx {
    double omega = 0.0;
    double omegaMinus = 0.0;
    bool trt = false;
    Vec3d F{0, 0, 0};
    bool forced = false;
    bool stress = false;
    double stressPrefactor = 0.0;
    double* rhoOut = nullptr;
    Vec3d* uOut = nullptr;
    SymTensor3* stressOut = nullptr;
  };

  CollisionCtx collisionCtx() {
    CollisionCtx ctx;
    const double tau = params_.tau;
    ctx.omega = 1.0 / tau;
    ctx.trt = params_.collision == LbParams::Collision::kTrt;
    const double tauMinus = params_.trtMagic / (tau - 0.5) + 0.5;
    ctx.omegaMinus = 1.0 / tauMinus;
    ctx.F = params_.bodyForce;
    ctx.forced = ctx.F.norm2() > 0.0;
    ctx.stress = params_.computeStress;
    ctx.stressPrefactor = -(1.0 - 0.5 * ctx.omega);
    ctx.rhoOut = macro_.rho.data();
    ctx.uOut = macro_.u.data();
    ctx.stressOut = ctx.stress ? macro_.stress.data() : nullptr;
    return ctx;
  }

  /// Per-direction constants as flat doubles: keeps the hot loops free of
  /// the int->double casts and Vec3 temporaries the generic VelocitySet
  /// accessors would cost per site.
  struct DirConsts {
    alignas(64) std::array<double, kQ> cx{};
    alignas(64) std::array<double, kQ> cy{};
    alignas(64) std::array<double, kQ> cz{};
    alignas(64) std::array<double, kQ> w{};
  };

  static DirConsts makeDirConsts() {
    DirConsts d;
    for (int i = 0; i < kQ; ++i) {
      const auto& c = Lattice::kSet.c[static_cast<std::size_t>(i)];
      d.cx[static_cast<std::size_t>(i)] = static_cast<double>(c.x);
      d.cy[static_cast<std::size_t>(i)] = static_cast<double>(c.y);
      d.cz[static_cast<std::size_t>(i)] = static_cast<double>(c.z);
      d.w[static_cast<std::size_t>(i)] = Lattice::kSet.w[static_cast<std::size_t>(i)];
    }
    return d;
  }

  /// Moments + collision (+ forcing/stress) of one site, in place: `fl`
  /// holds the pre-collision populations on entry, post-collision on
  /// return. `ext` is the external index the macroscopic fields are
  /// written to. This is the optimised form (flat direction constants, one
  /// reciprocal, fused equilibrium polynomial); relaxSiteReference() keeps
  /// the pre-fusion arithmetic — same update to round-off, so the paired
  /// kernels agree to ~1e-12 over hundreds of steps.
  void relaxSite(const CollisionCtx& ctx, double* fl, std::size_t ext) {
    const auto& d = dir_;
    double rho = 0.0, mx = 0.0, my = 0.0, mz = 0.0;
    for (int i = 0; i < kQ; ++i) {
      const double fi = fl[i];
      rho += fi;
      mx += d.cx[static_cast<std::size_t>(i)] * fi;
      my += d.cy[static_cast<std::size_t>(i)] * fi;
      mz += d.cz[static_cast<std::size_t>(i)] * fi;
    }
    const double invRho = 1.0 / rho;
    // Guo: physical velocity includes half the force impulse.
    double ux = mx * invRho, uy = my * invRho, uz = mz * invRho;
    if (ctx.forced) {
      const double h = 0.5 * invRho;
      ux += ctx.F.x * h;
      uy += ctx.F.y * h;
      uz += ctx.F.z * h;
    }
    ctx.rhoOut[ext] = rho;
    ctx.uOut[ext] = Vec3d{ux, uy, uz};

    const double base = 1.0 - 1.5 * (ux * ux + uy * uy + uz * uz);
    double feq[kQ], cus[kQ];
    for (int i = 0; i < kQ; ++i) {
      const double cu = d.cx[static_cast<std::size_t>(i)] * ux +
                        d.cy[static_cast<std::size_t>(i)] * uy +
                        d.cz[static_cast<std::size_t>(i)] * uz;
      cus[i] = cu;
      feq[i] = d.w[static_cast<std::size_t>(i)] * rho *
               (base + cu * (3.0 + 4.5 * cu));
    }

    if (ctx.stress) {
      SymTensor3 pi{};
      for (int i = 0; i < kQ; ++i) {
        const double fneq = fl[i] - feq[i];
        const double cx = d.cx[static_cast<std::size_t>(i)];
        const double cy = d.cy[static_cast<std::size_t>(i)];
        const double cz = d.cz[static_cast<std::size_t>(i)];
        pi.xx() += fneq * cx * cx;
        pi.yy() += fneq * cy * cy;
        pi.zz() += fneq * cz * cz;
        pi.xy() += fneq * cx * cy;
        pi.xz() += fneq * cx * cz;
        pi.yz() += fneq * cy * cz;
      }
      // Deviatoric part of the relaxed non-equilibrium momentum flux.
      SymTensor3 sigma = pi * ctx.stressPrefactor;
      const double trace3 = (sigma.xx() + sigma.yy() + sigma.zz()) / 3.0;
      sigma.xx() -= trace3;
      sigma.yy() -= trace3;
      sigma.zz() -= trace3;
      ctx.stressOut[ext] = sigma;
    }

    if (!ctx.trt) {
      for (int i = 0; i < kQ; ++i) {
        fl[i] += ctx.omega * (feq[i] - fl[i]);
      }
    } else {
      const auto& set = Lattice::kSet;
      for (int i = 0; i < kQ; ++i) {
        const int j = set.opposite[static_cast<std::size_t>(i)];
        if (j < i) continue;
        const double fPlus = 0.5 * (fl[i] + fl[j]);
        const double fMinus = 0.5 * (fl[i] - fl[j]);
        const double eqPlus = 0.5 * (feq[i] + feq[j]);
        const double eqMinus = 0.5 * (feq[i] - feq[j]);
        const double dPlus = ctx.omega * (eqPlus - fPlus);
        const double dMinus = ctx.omegaMinus * (eqMinus - fMinus);
        fl[i] += dPlus + dMinus;
        if (j != i) fl[j] += dPlus - dMinus;
      }
    }

    if (ctx.forced) {
      const double pref = 1.0 - 0.5 * ctx.omega;
      for (int i = 0; i < kQ; ++i) {
        const double cx = d.cx[static_cast<std::size_t>(i)];
        const double cy = d.cy[static_cast<std::size_t>(i)];
        const double cz = d.cz[static_cast<std::size_t>(i)];
        const double nineCu = 9.0 * cus[i];
        const double termF = (3.0 * (cx - ux) + cx * nineCu) * ctx.F.x +
                             (3.0 * (cy - uy) + cy * nineCu) * ctx.F.y +
                             (3.0 * (cz - uz) + cz * nineCu) * ctx.F.z;
        fl[i] += pref * d.w[static_cast<std::size_t>(i)] * termF;
      }
    }
  }

  // --- production kernel -------------------------------------------------

  /// Raw hot-loop pointers, hoisted once per step: direction i of
  /// internal site l is fsrc[i][l]; pdst[i] holds the push destinations of
  /// the bulk sites, indexed from the first bulk site.
  struct SweepPtrs {
    const double* fsrc[kQ];
    double* fdst[kQ];
    const std::uint32_t* pdst[kQ];
    const std::uint32_t* extOf;
    double* sendFlat;
  };

  SweepPtrs sweepPtrs() {
    SweepPtrs p;
    for (int i = 0; i < kQ; ++i) {
      p.fsrc[i] = f_.dirBase(i);
      p.fdst[i] = fNext_.dirBase(i);
      p.pdst[i] = push_[static_cast<std::size_t>(i)].data();
    }
    p.extOf = reorder_.externalOf.data();
    p.sendFlat = sendFlat_.data();
    return p;
  }

  /// Boundary actions (wall/iolet/halo-send) of frontier site l — the
  /// local pushes are retired separately (direction-major from the strip,
  /// or through frontierLocalDst_ on the scalar tail), so this walks the
  /// short boundary-only CSR. `fl` holds the post-collision populations
  /// at stride flStride (1, or the direction-major strip buffer's).
  void scatterBoundaryOps(const CollisionCtx& ctx, const SweepPtrs& ptrs,
                          std::uint32_t l, const double* fl,
                          std::size_t flStride) {
    const std::uint32_t begin = frontierBoundaryStart_[l];
    const std::uint32_t end = frontierBoundaryStart_[l + 1];
    if (begin == end) return;
    const auto& set = Lattice::kSet;
    const auto ext = static_cast<std::size_t>(ptrs.extOf[l]);
    for (std::uint32_t k = begin; k < end; ++k) {
      const BoundaryOp op = frontierBoundaryOps_[k];
      const auto dir = static_cast<std::size_t>(op.dir);
      switch (op.kind) {
        case OpKind::kSend:
          ptrs.sendFlat[static_cast<std::size_t>(op.index)] =
              fl[dir * flStride];
          break;
        case OpKind::kWall:
          // Halfway bounce-back off the vessel wall.
          ptrs.fdst[dir][static_cast<std::size_t>(l)] =
              fl[static_cast<std::size_t>(set.opposite[dir]) * flStride];
          break;
        case OpKind::kIolet: {
          const auto id = static_cast<std::size_t>(op.index);
          const Vec3d c = set.c[dir].template cast<double>();
          const double w = set.w[dir];
          const double bounce =
              fl[static_cast<std::size_t>(set.opposite[dir]) * flStride];
          if (ioletIsVelocityBc_[id]) {
            // Ladd bounce-back off a "wall" moving at the prescribed
            // iolet velocity: injects the target momentum flux.
            const double rho = ctx.rhoOut[ext];
            ptrs.fdst[dir][static_cast<std::size_t>(l)] =
                bounce + 6.0 * w * rho * c.dot(ioletVelocity_[id]);
          } else {
            // Anti-bounce-back pressure boundary at the prescribed
            // density, using the site's own velocity as the boundary
            // value.
            const double rhoIo = ioletDensity_[id];
            const Vec3d u = ctx.uOut[ext];
            const double cu = c.dot(u);
            ptrs.fdst[dir][static_cast<std::size_t>(l)] =
                -bounce + 2.0 * w * rhoIo *
                              (1.0 + 4.5 * cu * cu - 1.5 * u.dot(u));
          }
          break;
        }
      }
    }
  }

  /// A maximal unit-stride stretch of strip writes: `len` consecutive
  /// source slots landing in `len` consecutive destination slots.
  struct StreamRun {
    std::uint32_t srcK;  ///< first vector-relative source index of the run
    std::uint32_t dst;   ///< destination index of that first site
    std::uint32_t len;
  };

  /// Retire this strip's share of one direction's runs: `src` is the
  /// strip plane indexed by run-relative srcK, and each run is a single
  /// sequential copy into `dst` (non-temporal when `nt` and the run spans
  /// at least two vectors).
  static void drainRuns(const std::vector<StreamRun>& runs, std::size_t& cur,
                        double* dst, const double* src, std::uint32_t stripEnd,
                        bool nt) {
    while (cur < runs.size() && runs[cur].srcK < stripEnd) {
      const StreamRun r = runs[cur++];
      simd::copyDoubles(dst + r.dst, src + r.srcK, r.len,
                        nt && r.len >= 2 * simd::kWidth);
    }
  }

  /// Retire this strip's share of the macro-field runs: rho as straight
  /// copies, u re-interleaved to Vec3d — per run a single sequential
  /// destination stream each.
  void drainMacroRuns(const CollisionCtx& ctx,
                      const std::vector<StreamRun>& runs, std::size_t& cur,
                      const double* strip, std::uint32_t base,
                      std::uint32_t stripEnd) {
    const double* rhoS =
        strip + static_cast<std::size_t>(kQ) * kBulkStrip - base;
    const double* uxS =
        strip + static_cast<std::size_t>(kQ + 1) * kBulkStrip - base;
    const double* uyS =
        strip + static_cast<std::size_t>(kQ + 2) * kBulkStrip - base;
    const double* uzS =
        strip + static_cast<std::size_t>(kQ + 3) * kBulkStrip - base;
    while (cur < runs.size() && runs[cur].srcK < stripEnd) {
      const StreamRun r = runs[cur];
      simd::copyDoubles(ctx.rhoOut + r.dst, rhoS + r.srcK, r.len, false);
      Vec3d* u = ctx.uOut + r.dst;
      for (std::uint32_t k = 0; k < r.len; ++k) {
        u[k] = Vec3d{uxS[r.srcK + k], uyS[r.srcK + k], uzS[r.srcK + k]};
      }
      ++cur;
    }
  }

  /// The production step. Both sweeps run as SIMD strips: collision runs
  /// kBulkStrip sites at a time into a direction-major L2 buffer and the
  /// streamed writes retire as unit-stride runs, one direction at a time.
  /// Frontier boundary actions (iolets/halo sends) and the sub-group
  /// tails keep the scalar path (branchy minority).
  void stepSimd() {
    const CollisionCtx ctx = collisionCtx();
    const SweepPtrs ptrs = sweepPtrs();
    const auto n = static_cast<std::uint32_t>(domain_->numOwned());
    const std::uint32_t nf = reorder_.numFrontier;

    constexpr auto kW = static_cast<std::uint32_t>(simd::kWidth);
    // Frontier pass: collision is uniform, so it vectorises exactly like
    // the bulk (frontier sites are contiguous at the front of every
    // plane). Local pushes retire direction-major through the dst tables;
    // only the boundary-only CSR (walls/iolets/halo sends) needs per-op
    // dispatch.
    {
      ScopedPhase phase(collideTimer_);
      HEMO_TSPAN(kCollide, "collide.frontier");
      const std::uint32_t nfVec = nf - nf % kW;
      double* strip = bulkStrip_.data();
      runCursor_.fill(0);
      wallCursor_.fill(0);
      macroCursor_ = 0;
      for (std::uint32_t base = 0; base < nfVec; base += kBulkStrip) {
        const std::uint32_t cnt = std::min(kBulkStrip, nfVec - base);
        collideStripSimd(ctx, ptrs, base, cnt, strip, kBulkStrip);
        // Macro fields first: the iolet boundary ops below read them.
        drainMacroRuns(ctx, macroRunsFrontier_, macroCursor_, strip, base,
                       base + cnt);
        // Rest population: destination is the site itself.
        simd::copyDoubles(ptrs.fdst[0] + base, strip, cnt, false);
        // Local pushes: drain each direction's unit-stride runs (kNoDst
        // lanes — the boundary ops — sit in the gaps between runs).
        const std::uint32_t stripEnd = base + cnt;
        for (int i = 1; i < kQ; ++i) {
          const auto d = static_cast<std::size_t>(i);
          drainRuns(frontierRuns_[d], runCursor_[d], ptrs.fdst[i],
                    strip + d * kBulkStrip - base, stripEnd, false);
        }
        // Wall folds: fdst[i][l] = post-collision opposite(i) population
        // of site l — unit stride on both sides, drained the same way.
        for (int i = 1; i < kQ; ++i) {
          const auto d = static_cast<std::size_t>(i);
          const auto opp = static_cast<std::size_t>(Lattice::kSet.opposite[d]);
          drainRuns(frontierWallRuns_[d], wallCursor_[d], ptrs.fdst[i],
                    strip + opp * kBulkStrip - base, stripEnd, false);
        }
        // Boundary CSR (iolets/halo sends only): most strips of a large
        // domain have an empty range — the offsets are monotone, so one
        // compare skips the whole per-site walk.
        if (frontierBoundaryStart_[base] != frontierBoundaryStart_[stripEnd]) {
          for (std::uint32_t k = 0; k < cnt; ++k) {
            scatterBoundaryOps(ctx, ptrs, base + k, strip + k, kBulkStrip);
          }
        }
      }
      // Sub-group tail: scalar collide, local pushes through the dst
      // tables, everything else through the boundary-only CSR.
      for (std::uint32_t l = nfVec; l < nf; ++l) {
        double fl[kQ];
        for (int i = 0; i < kQ; ++i) fl[i] = ptrs.fsrc[i][l];
        relaxSite(ctx, fl, static_cast<std::size_t>(ptrs.extOf[l]));
        ptrs.fdst[0][l] = fl[0];
        for (int i = 1; i < kQ; ++i) {
          const std::uint32_t d =
              frontierLocalDst_[static_cast<std::size_t>(i)][l];
          if (d != kNoDst) ptrs.fdst[i][d] = fl[i];
        }
        scatterBoundaryOps(ctx, ptrs, l, fl, 1);
      }
    }
    {
      ScopedPhase phase(commTimer_);
      HEMO_TSPAN(kHaloSend, "halo.send");
      comm::Communicator::TrafficScope scope(*comm_, comm::Traffic::kHalo);
      for (std::size_t p = 0; p < sendPlans_.size(); ++p) {
        comm_->sendBytes(sendPlans_[p].dest, kHaloTag,
                         sendFlat_.data() + sendFlatOffset_[p],
                         sendPlans_[p].entries.size() * sizeof(double));
      }
    }
    {
      ScopedPhase phase(collideTimer_);
      ScopedWallPhase overlap(overlapTimer_);
      HEMO_TSPAN(kCollide, "collide.simd");
      // Bulk sites outside the vector groups: scalar collide + push.
      const auto pushBulkSite = [&](std::uint32_t l) {
        double fl[kQ];
        for (int i = 0; i < kQ; ++i) fl[i] = ptrs.fsrc[i][l];
        relaxSite(ctx, fl, static_cast<std::size_t>(ptrs.extOf[l]));
        ptrs.fdst[0][l] = fl[0];
        for (int i = 1; i < kQ; ++i) {
          ptrs.fdst[i][ptrs.pdst[i][l - nf]] = fl[i];
        }
      };
      // Head: bulk sites before the aligned vector start.
      for (std::uint32_t l = nf; l < simdVecStart_; ++l) pushBulkSite(l);
      // Aligned bulk: collide whole strips into the direction-major
      // buffer, then retire each direction's unit-stride runs one stream
      // at a time. Interleaving the 19 write streams store-by-store
      // defeats the core's full-line write combining (measured ~9x lower
      // write bandwidth), so the drain keeps exactly one destination
      // stream hot; with useNt_ the copies stream past the cache instead.
      runCursor_.fill(0);
      macroCursor_ = 0;
      double* strip = bulkStrip_.data();
      for (std::uint32_t base = 0; base < simdVecSites_; base += kBulkStrip) {
        const std::uint32_t cnt = std::min(kBulkStrip, simdVecSites_ - base);
        collideStripSimd(ctx, ptrs, simdVecStart_ + base, cnt, strip,
                         kBulkStrip);
        drainMacroRuns(ctx, macroRunsBulk_, macroCursor_, strip, base,
                       base + cnt);
        // Rest population: destination is the site itself — one
        // contiguous copy per strip.
        simd::copyDoubles(ptrs.fdst[0] + simdVecStart_ + base, strip, cnt,
                          useNt_);
        // Moving populations: drain this strip's unit-stride runs.
        const std::uint32_t stripEnd = base + cnt;
        for (int i = 1; i < kQ; ++i) {
          const auto d = static_cast<std::size_t>(i);
          drainRuns(simdRuns_[d], runCursor_[d], ptrs.fdst[i],
                    strip + d * kBulkStrip - base, stripEnd, useNt_);
        }
      }
      // Sub-group tail.
      for (std::uint32_t l = simdVecStart_ + simdVecSites_; l < n; ++l) {
        pushBulkSite(l);
      }
      if (useNt_) simd::storeFence();
    }
    {
      comm::Communicator::TrafficScope scope(*comm_, comm::Traffic::kHalo);
      for (const int r : recvRanks_) {
        const auto off = recvOffset_[static_cast<std::size_t>(r)];
        const auto count =
            recvOffset_[static_cast<std::size_t>(r) + 1] - off;
        {
          ScopedPhase cphase(commTimer_);
          ScopedWallPhase wait(recvWaitTimer_);
          HEMO_TSPAN(kHaloRecvWait, "halo.recv");
          comm_->recvInto(r, kHaloTag, recvFlat_.data() + off, count);
        }
        ScopedPhase sphase(streamTimer_);
        HEMO_TSPAN(kStream, "stream.scatter");
        for (std::uint32_t k = off; k < off + count; ++k) {
          const RecvDst d = recvDst_[k];
          ptrs.fdst[d.dir][static_cast<std::size_t>(d.dest)] = recvFlat_[k];
        }
      }
    }
  }

  /// One vector group of post-collision populations (lane w = site s0+w).
  struct VecGroup {
    simd::VecD f[kQ];
    /// Macroscopic moments of the group, staged for the strip's run
    /// drain instead of lane-scattered through extOf.
    simd::VecD rho, ux, uy, uz;
  };
  /// Strip planes: kQ post-collision populations, then rho/ux/uy/uz.
  static constexpr int kStripPlanes = kQ + 4;

  /// Collide simd::kWidth consecutive sites starting at s0 (SoA planes,
  /// unit stride, s0 a multiple of simd::kWidth so every plane load is an
  /// aligned full vector) into g. Per lane the arithmetic replicates
  /// relaxSite() operation for operation, so vector and scalar sites agree
  /// to round-off (FMA contraction is the only difference) and the kernel
  /// tracks the reference oracle to 1e-12 over 100 steps. Stress/forcing are hoisted to template
  /// parameters — with 19 live population vectors the register file is
  /// full, and per-direction runtime branches are measurable.
  void collideGroupSimd(const CollisionCtx& ctx, const SweepPtrs& ptrs,
                        std::size_t s0, VecGroup& g) {
    if (ctx.stress) {
      if (ctx.forced) {
        collideGroupSimdImpl<true, true>(ctx, ptrs, s0, g);
      } else {
        collideGroupSimdImpl<true, false>(ctx, ptrs, s0, g);
      }
    } else {
      if (ctx.forced) {
        collideGroupSimdImpl<false, true>(ctx, ptrs, s0, g);
      } else {
        collideGroupSimdImpl<false, false>(ctx, ptrs, s0, g);
      }
    }
  }

  template <bool Stress, bool Forced>
  void collideGroupSimdImpl(const CollisionCtx& ctx, const SweepPtrs& ptrs,
                            std::size_t s0, VecGroup& g) {
    using simd::VecD;
    using simd::broadcast;
    using simd::fmadd;
    constexpr int W = simd::kWidth;
    const auto& d = dir_;
    const auto& set = Lattice::kSet;
    const VecD one = broadcast(1.0);
    const VecD half = broadcast(0.5);
    const VecD three = broadcast(3.0);
    const VecD fourHalf = broadcast(4.5);
    const VecD mThreeHalf = broadcast(-1.5);
    const VecD omega = broadcast(ctx.omega);

    VecD* fv = g.f;
    VecD rho = simd::zero();
    VecD mx = simd::zero(), my = simd::zero(), mz = simd::zero();
    for (int i = 0; i < kQ; ++i) {
      fv[i] = simd::load(ptrs.fsrc[i] + s0);
      rho += fv[i];
      // c components are -1/0/1; zero terms change no bit of the sums.
      const double cx = d.cx[static_cast<std::size_t>(i)];
      const double cy = d.cy[static_cast<std::size_t>(i)];
      const double cz = d.cz[static_cast<std::size_t>(i)];
      if (cx != 0.0) mx = fmadd(broadcast(cx), fv[i], mx);
      if (cy != 0.0) my = fmadd(broadcast(cy), fv[i], my);
      if (cz != 0.0) mz = fmadd(broadcast(cz), fv[i], mz);
    }
    const VecD invRho = one / rho;
    VecD ux = mx * invRho, uy = my * invRho, uz = mz * invRho;
    if constexpr (Forced) {
      const VecD h = half * invRho;
      ux = fmadd(broadcast(ctx.F.x), h, ux);
      uy = fmadd(broadcast(ctx.F.y), h, uy);
      uz = fmadd(broadcast(ctx.F.z), h, uz);
    }
    // Macroscopic moments are not scattered here: they ride along in the
    // group and the strip drains them as unit-stride external-index runs
    // (the per-lane extOf scatter was a measured ~10% of the step).
    g.rho = rho;
    g.ux = ux;
    g.uy = uy;
    g.uz = uz;

    VecD u2 = ux * ux;
    u2 = fmadd(uy, uy, u2);
    u2 = fmadd(uz, uz, u2);
    const VecD eqBase = fmadd(mThreeHalf, u2, one);

    [[maybe_unused]] VecD pxx, pyy, pzz, pxy, pxz, pyz;
    if constexpr (Stress) {
      pxx = pyy = pzz = pxy = pxz = pyz = simd::zero();
    }

    // Split loops with per-direction spill arrays on purpose: a single
    // fused pass was measured ~45% slower here — with 19 live population
    // vectors the register allocator handles several small loops better
    // than one big body.
    VecD feq[kQ], cus[kQ];
    for (int i = 0; i < kQ; ++i) {
      const double cx = d.cx[static_cast<std::size_t>(i)];
      const double cy = d.cy[static_cast<std::size_t>(i)];
      const double cz = d.cz[static_cast<std::size_t>(i)];
      VecD cu = simd::zero();
      if (cx != 0.0) cu = fmadd(broadcast(cx), ux, cu);
      if (cy != 0.0) cu = fmadd(broadcast(cy), uy, cu);
      if (cz != 0.0) cu = fmadd(broadcast(cz), uz, cu);
      cus[i] = cu;
      const VecD poly = fmadd(cu, fmadd(fourHalf, cu, three), eqBase);
      feq[i] = broadcast(d.w[static_cast<std::size_t>(i)]) * rho * poly;
    }

    if constexpr (Stress) {
      for (int i = 0; i < kQ; ++i) {
        const VecD fneq = fv[i] - feq[i];
        const double cx = d.cx[static_cast<std::size_t>(i)];
        const double cy = d.cy[static_cast<std::size_t>(i)];
        const double cz = d.cz[static_cast<std::size_t>(i)];
        if (cx != 0.0) pxx += fneq;
        if (cy != 0.0) pyy += fneq;
        if (cz != 0.0) pzz += fneq;
        if (cx * cy != 0.0) pxy = fmadd(broadcast(cx * cy), fneq, pxy);
        if (cx * cz != 0.0) pxz = fmadd(broadcast(cx * cz), fneq, pxz);
        if (cy * cz != 0.0) pyz = fmadd(broadcast(cy * cz), fneq, pyz);
      }
    }

    if (!ctx.trt) {
      for (int i = 0; i < kQ; ++i) {
        fv[i] = fmadd(omega, feq[i] - fv[i], fv[i]);
      }
    } else {
      const VecD omegaMinus = broadcast(ctx.omegaMinus);
      for (int i = 0; i < kQ; ++i) {
        const int j = set.opposite[static_cast<std::size_t>(i)];
        if (j < i) continue;
        const VecD fPlus = half * (fv[i] + fv[j]);
        const VecD fMinus = half * (fv[i] - fv[j]);
        const VecD eqPlus = half * (feq[i] + feq[j]);
        const VecD eqMinus = half * (feq[i] - feq[j]);
        const VecD dPlus = omega * (eqPlus - fPlus);
        const VecD dMinus = omegaMinus * (eqMinus - fMinus);
        fv[i] += dPlus + dMinus;
        if (j != i) fv[j] += dPlus - dMinus;
      }
    }

    if constexpr (Forced) {
      const VecD fPref = broadcast(1.0 - 0.5 * ctx.omega);
      const VecD nine = broadcast(9.0);
      // A zero force component contributes only a ±0 addend to termF, so
      // its whole chain is skipped: a third of the force math per absent
      // axis (body forces are typically single-axis), with a result that
      // can differ from the full sum in at most the sign of an exact
      // zero.
      const bool hasFx = ctx.F.x != 0.0;
      const bool hasFy = ctx.F.y != 0.0;
      const bool hasFz = ctx.F.z != 0.0;
      for (int i = 0; i < kQ; ++i) {
        const VecD nineCu = nine * cus[i];
        VecD termF = simd::zero();
        bool first = true;
        if (hasFx) {
          const VecD vcx = broadcast(d.cx[static_cast<std::size_t>(i)]);
          const VecD t = three * (vcx - ux) + vcx * nineCu;
          termF = t * broadcast(ctx.F.x);
          first = false;
        }
        if (hasFy) {
          const VecD vcy = broadcast(d.cy[static_cast<std::size_t>(i)]);
          const VecD t = three * (vcy - uy) + vcy * nineCu;
          const VecD vF = broadcast(ctx.F.y);
          termF = first ? t * vF : fmadd(t, vF, termF);
          first = false;
        }
        if (hasFz) {
          const VecD vcz = broadcast(d.cz[static_cast<std::size_t>(i)]);
          const VecD t = three * (vcz - uz) + vcz * nineCu;
          const VecD vF = broadcast(ctx.F.z);
          termF = first ? t * vF : fmadd(t, vF, termF);
        }
        fv[i] = fmadd(
            fPref * broadcast(d.w[static_cast<std::size_t>(i)]), termF,
            fv[i]);
      }
    }

    if constexpr (Stress) {
      const VecD pref = broadcast(ctx.stressPrefactor);
      VecD sxx = pxx * pref, syy = pyy * pref, szz = pzz * pref;
      const VecD sxy = pxy * pref, sxz = pxz * pref, syz = pyz * pref;
      const VecD trace3 = (sxx + syy + szz) / three;
      sxx = sxx - trace3;
      syy = syy - trace3;
      szz = szz - trace3;
      alignas(64) double t[6][W];
      simd::store(t[0], sxx);
      simd::store(t[1], syy);
      simd::store(t[2], szz);
      simd::store(t[3], sxy);
      simd::store(t[4], sxz);
      simd::store(t[5], syz);
      for (int w = 0; w < W; ++w) {
        const auto ext = static_cast<std::size_t>(
            ptrs.extOf[s0 + static_cast<std::size_t>(w)]);
        ctx.stressOut[ext].m = {t[0][w], t[1][w], t[2][w],
                                t[3][w], t[4][w], t[5][w]};
      }
    }
  }

  /// Collide `count` sites (a multiple of simd::kWidth, at most `stride`;
  /// site0 itself a multiple of simd::kWidth) from site0 into the
  /// direction-major buffer strip[i*stride + k].
  void collideStripSimd(const CollisionCtx& ctx, const SweepPtrs& ptrs,
                        std::uint32_t site0, std::uint32_t count,
                        double* strip, std::uint32_t stride) {
    VecGroup g;
    for (std::uint32_t k = 0; k < count;
         k += static_cast<std::uint32_t>(simd::kWidth)) {
      collideGroupSimd(ctx, ptrs, site0 + k, g);
      for (int i = 0; i < kQ; ++i) {
        simd::store(strip + static_cast<std::size_t>(i) * stride + k,
                    g.f[i]);
      }
      simd::store(strip + static_cast<std::size_t>(kQ) * stride + k, g.rho);
      simd::store(strip + static_cast<std::size_t>(kQ + 1) * stride + k,
                  g.ux);
      simd::store(strip + static_cast<std::size_t>(kQ + 2) * stride + k,
                  g.uy);
      simd::store(strip + static_cast<std::size_t>(kQ + 3) * stride + k,
                  g.uz);
    }
  }

  // --- reference three-phase kernel --------------------------------------
  // The test oracle: Vec3-based collision arithmetic, blocking halo
  // exchange, then a pull-stream over the pull table.

  void relaxSiteReference(const CollisionCtx& ctx, double* fl,
                          std::size_t ext) {
    const auto& set = Lattice::kSet;
    double rho = 0.0;
    Vec3d mom{0, 0, 0};
    for (int i = 0; i < kQ; ++i) {
      rho += fl[i];
      mom += set.c[static_cast<std::size_t>(i)].template cast<double>() *
             fl[i];
    }
    // Guo: physical velocity includes half the force impulse.
    Vec3d u = mom / rho;
    if (ctx.forced) u += ctx.F * (0.5 / rho);
    macro_.rho[ext] = rho;
    macro_.u[ext] = u;

    double feq[kQ];
    for (int i = 0; i < kQ; ++i) feq[i] = equilibrium<Lattice>(i, rho, u);

    if (ctx.stress) {
      SymTensor3 pi{};
      for (int i = 0; i < kQ; ++i) {
        const double fneq = fl[i] - feq[i];
        const Vec3d c =
            set.c[static_cast<std::size_t>(i)].template cast<double>();
        pi.xx() += fneq * c.x * c.x;
        pi.yy() += fneq * c.y * c.y;
        pi.zz() += fneq * c.z * c.z;
        pi.xy() += fneq * c.x * c.y;
        pi.xz() += fneq * c.x * c.z;
        pi.yz() += fneq * c.y * c.z;
      }
      // Deviatoric part of the relaxed non-equilibrium momentum flux.
      SymTensor3 sigma = pi * ctx.stressPrefactor;
      const double trace3 = (sigma.xx() + sigma.yy() + sigma.zz()) / 3.0;
      sigma.xx() -= trace3;
      sigma.yy() -= trace3;
      sigma.zz() -= trace3;
      macro_.stress[ext] = sigma;
    }

    if (!ctx.trt) {
      for (int i = 0; i < kQ; ++i) {
        fl[i] += ctx.omega * (feq[i] - fl[i]);
      }
    } else {
      for (int i = 0; i < kQ; ++i) {
        const int j = set.opposite[static_cast<std::size_t>(i)];
        if (j < i) continue;
        const double fPlus = 0.5 * (fl[i] + fl[j]);
        const double fMinus = 0.5 * (fl[i] - fl[j]);
        const double eqPlus = 0.5 * (feq[i] + feq[j]);
        const double eqMinus = 0.5 * (feq[i] - feq[j]);
        const double dPlus = ctx.omega * (eqPlus - fPlus);
        const double dMinus = ctx.omegaMinus * (eqMinus - fMinus);
        fl[i] += dPlus + dMinus;
        if (j != i) fl[j] += dPlus - dMinus;
      }
    }

    if (ctx.forced) {
      const double pref = 1.0 - 0.5 * ctx.omega;
      for (int i = 0; i < kQ; ++i) {
        const Vec3d c =
            set.c[static_cast<std::size_t>(i)].template cast<double>();
        const double cu = c.dot(u);
        const Vec3d term = (c - u) * 3.0 + c * (9.0 * cu);
        fl[i] += pref * set.w[static_cast<std::size_t>(i)] * term.dot(ctx.F);
      }
    }
  }

  void collide() {
    ScopedPhase phase(collideTimer_);
    HEMO_TSPAN(kCollide, "collide");
    const CollisionCtx ctx = collisionCtx();
    const std::size_t n = domain_->numOwned();
    double* base[kQ];
    for (int i = 0; i < kQ; ++i) base[i] = f_.dirBase(i);
    for (std::size_t l = 0; l < n; ++l) {
      double fl[kQ];
      for (int i = 0; i < kQ; ++i) fl[i] = base[i][l];
      relaxSiteReference(ctx, fl,
                         static_cast<std::size_t>(reorder_.externalOf[l]));
      for (int i = 0; i < kQ; ++i) base[i][l] = fl[i];
    }
  }

  void exchange() {
    ScopedPhase phase(commTimer_);
    HEMO_TSPAN(kHaloSend, "halo.exchange");
    comm::Communicator::TrafficScope scope(*comm_, comm::Traffic::kHalo);
    for (std::size_t p = 0; p < sendPlans_.size(); ++p) {
      const auto& plan = sendPlans_[p];
      double* buf = sendFlat_.data() + sendFlatOffset_[p];
      for (std::size_t k = 0; k < plan.entries.size(); ++k) {
        const auto& e = plan.entries[k];
        buf[k] = f_.dirBase(e.velocity)[e.local];
      }
      comm_->sendBytes(plan.dest, kHaloTag, buf,
                       plan.entries.size() * sizeof(double));
    }
    for (const int r : recvRanks_) {
      const auto off = recvOffset_[static_cast<std::size_t>(r)];
      const auto count = recvOffset_[static_cast<std::size_t>(r) + 1] - off;
      comm_->recvInto(r, kHaloTag, recvFlat_.data() + off, count);
    }
  }

  void stream() {
    ScopedPhase phase(streamTimer_);
    HEMO_TSPAN(kStream, "stream");
    const std::size_t n = domain_->numOwned();
    const auto& set = Lattice::kSet;
    // Rest population never moves.
    {
      const double* src = f_.dirBase(0);
      double* out = fNext_.dirBase(0);
      for (std::size_t l = 0; l < n; ++l) out[l] = src[l];
    }
    for (int i = 1; i < kQ; ++i) {
      const int opp = set.opposite[static_cast<std::size_t>(i)];
      const auto& srcs = pull_[static_cast<std::size_t>(i)];
      double* out = fNext_.dirBase(i);
      const double* bounce = f_.dirBase(opp);
      const double* local = f_.dirBase(i);
      for (std::size_t l = 0; l < n; ++l) {
        const PullSrc s = srcs[l];
        switch (s.kind) {
          case PullKind::kLocal:
            out[l] = local[s.index];
            break;
          case PullKind::kRecv:
            out[l] = recvFlat_[static_cast<std::size_t>(s.index)];
            break;
          case PullKind::kWall:
            // Halfway bounce-back off the vessel wall.
            out[l] = bounce[l];
            break;
          case PullKind::kIolet: {
            const auto id = static_cast<std::size_t>(s.index);
            const auto ext = static_cast<std::size_t>(reorder_.externalOf[l]);
            const Vec3d c =
                set.c[static_cast<std::size_t>(i)].template cast<double>();
            const double w = set.w[static_cast<std::size_t>(i)];
            if (ioletIsVelocityBc_[id]) {
              // Ladd bounce-back off a "wall" moving at the prescribed
              // iolet velocity: injects the target momentum flux.
              const double rho = macro_.rho[ext];
              out[l] = bounce[l] + 6.0 * w * rho * c.dot(ioletVelocity_[id]);
            } else {
              // Anti-bounce-back pressure boundary at the prescribed
              // density, using the site's own velocity as the boundary
              // value.
              const double rhoIo = ioletDensity_[id];
              const Vec3d u = macro_.u[ext];
              const double cu = c.dot(u);
              out[l] = -bounce[l] + 2.0 * w * rhoIo *
                                        (1.0 + 4.5 * cu * cu - 1.5 * u.dot(u));
            }
            break;
          }
        }
      }
    }
  }

  /// Recompute cached moments from the current distributions (used after
  /// external writes such as checkpoint restore).
  void refreshMacros() {
    const std::size_t n = domain_->numOwned();
    const auto& set = Lattice::kSet;
    for (std::size_t l = 0; l < n; ++l) {
      double rho = 0.0;
      Vec3d mom{0, 0, 0};
      for (int i = 0; i < kQ; ++i) {
        const double fi = f_.at(i, l);
        rho += fi;
        mom += set.c[static_cast<std::size_t>(i)].template cast<double>() * fi;
      }
      const auto ext = static_cast<std::size_t>(reorder_.externalOf[l]);
      macro_.rho[ext] = rho;
      macro_.u[ext] = mom / rho;
    }
  }

  struct SendEntry {
    std::uint32_t local;  ///< internal site index
    std::uint16_t velocity;
  };
  struct SendPlan {
    int dest = 0;
    std::vector<SendEntry> entries;
  };

  const DomainMap* domain_;
  comm::Communicator* comm_;
  LbParams params_;
  DirConsts dir_ = makeDirConsts();
  std::vector<double> ioletDensity_;
  std::vector<Vec3d> ioletVelocity_;
  std::vector<std::uint8_t> ioletIsVelocityBc_;

  SiteReordering reorder_;

  /// Distributions in internal (frontier-first) site order, SoA planes.
  DistField<kQ> f_;
  DistField<kQ> fNext_;
  /// Unit-stride push-destination runs of the SIMD bulk sweep: within each
  /// kBulkStrip strip, consecutive bulk sites of direction i stream to
  /// consecutive fNext slots (row-major bulk order makes these runs long).
  std::array<std::vector<StreamRun>, kQ> simdRuns_;
  std::array<std::size_t, kQ> runCursor_{};
  std::uint32_t simdVecStart_ = 0;  ///< first (kWidth-aligned) vector site
  std::uint32_t simdVecSites_ = 0;  ///< bulk sites covered by vector groups
  simd::AVector<double> bulkStrip_;  ///< direction-major bulk store strip
  bool useNt_ = false;  ///< streamed writes use non-temporal stores
  /// SIMD frontier split: per direction, the local push destination of
  /// each frontier site (kNoDst when that lane is a boundary op), plus
  /// the boundary-only CSR the per-op dispatch shrinks to.
  static constexpr std::uint32_t kNoDst = 0xFFFFFFFFu;
  std::array<std::vector<std::uint32_t>, kQ> frontierLocalDst_;
  std::vector<std::uint32_t> frontierBoundaryStart_;
  std::vector<BoundaryOp> frontierBoundaryOps_;
  /// Unit-stride runs over frontierLocalDst_ (same shape as simdRuns_),
  /// plus the wall-fold runs (srcK == dst: the site folds into itself)
  /// and their per-direction drain cursors.
  std::array<std::vector<StreamRun>, kQ> frontierRuns_;
  std::array<std::vector<StreamRun>, kQ> frontierWallRuns_;
  std::array<std::size_t, kQ> wallCursor_{};
  /// Unit-stride macro-field runs (srcK internal-relative, dst external).
  std::vector<StreamRun> macroRunsFrontier_;
  std::vector<StreamRun> macroRunsBulk_;
  std::size_t macroCursor_ = 0;
  /// Pull table, internal order (built only for the reference kernel).
  std::array<std::vector<PullSrc>, kQ> pull_;
  /// Local push targets per direction of the bulk sites, indexed from the
  /// first bulk site (production kernel).
  std::array<std::vector<std::uint32_t>, kQ> push_;

  std::vector<SendPlan> sendPlans_;
  /// Persistent flat send storage; plan p owns [sendFlatOffset_[p], ...).
  std::vector<double> sendFlat_;
  std::vector<std::size_t> sendFlatOffset_;
  std::vector<int> recvRanks_;
  std::vector<std::uint32_t> recvOffset_;
  std::vector<double> recvFlat_;
  /// fNext destination of each flat receive slot (production kernel).
  std::vector<RecvDst> recvDst_;

  /// Macroscopic fields in external (DomainMap) site order.
  MacroFields macro_;
  std::uint64_t stepsDone_ = 0;
  PhaseTimer collideTimer_, streamTimer_, commTimer_;
  WallPhaseTimer overlapTimer_, recvWaitTimer_;
};

using SolverD3Q19 = Solver<D3Q19>;
using SolverD3Q15 = Solver<D3Q15>;
using SolverD3Q27 = Solver<D3Q27>;

}  // namespace hemo::lb
