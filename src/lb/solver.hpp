#pragma once
/// \file solver.hpp
/// \brief Distributed sparse-geometry lattice-Boltzmann solver.
///
/// The method matches HemeLB's core: indirect addressing over fluid sites
/// only, BGK or TRT collision, halfway bounce-back walls, anti-bounce-back
/// pressure inlets/outlets, Guo forcing, and per-step halo exchange of the
/// distribution values that stream across rank boundaries.
///
/// Distributions live in one slab of structure-of-arrays planes
/// (lb/layout.hpp), one aligned, padded plane per velocity direction.
/// Every public surface (checkpointing, observables, vis extraction) goes
/// through gather/scatter accessors in external (DomainMap) site order.
///
/// One production kernel drives the hot path, plus a test oracle
/// (LbParams::kernel):
///
/// * **kSimd** (default): AA-pattern in-place streaming (Bailey et al.;
///   Wittmann, Zeiser, Hager & Wellein) over the single slab, so a step
///   reads and writes each population once and never touches a second
///   slab. Steps alternate between two types, selected by a solver-owned
///   parity flag:
///   - *even* steps collide every site purely locally: aligned full-vector
///     loads from plane i, post-collision direction i stored into plane
///     opp(i) of the same site;
///   - *odd* steps gather each site's populations from its neighbours'
///     slots (plane opp(i) at the upstream site), collide, and scatter the
///     results back to the very slots they came from (plane i at the
///     downstream site), which leaves the slab in canonical f_i(x) order.
///   Owned sites are internally reordered frontier-first (SiteReordering).
///   Every step is self-contained: the frontier (sites touching a rank
///   boundary, wall or iolet) is swept first, its outgoing halo values are
///   packed and sent, the bulk is swept *while the messages are in
///   flight*, and the receives land in the slab before step() returns.
///   Walls, iolets and remote neighbours all use the site's own slot
///   (plane opp(i) of the site for outgoing direction i), so boundary
///   handling is the same at both parities. The odd sweep runs as
///   cache-blocked SIMD strips: per-direction unit-stride runs (row-major
///   bulk order, the propagation-optimised layout) are copied into an L2
///   strip, collided there, and copied back (util/simd.hpp: AVX-512/AVX2
///   intrinsics with a scalar fallback). Every site goes through the same
///   vector collide, so the per-site arithmetic does not depend on parity
///   or position.
/// * **kReference**: the textbook three-phase collide -> blocking exchange
///   -> pull-stream over two slabs, kept only as the oracle of the
///   equivalence tests.
///
/// Macroscopic fields (rho, u, stress) are stored as internal-order SoA
/// planes written straight from the collide registers; macro() gathers an
/// external-order view the first time it is read after a step.
///
/// Streaming uses f_i(x, t+1) = f*_i(x - c_i, t). The per-site arithmetic
/// of both kernels is the same update to round-off, so the trajectories
/// agree to ~1e-12 over hundreds of steps.

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

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
  /// Hot-path kernel: kSimd is the production AA-pattern sweep,
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
  /// Sites per SIMD strip of the odd sweep. Sized so the per-direction
  /// gathers and drains are long sequential bursts (the buffer, ~150 KB
  /// for D3Q19, spills to L2 — collision is compute-bound enough that the
  /// extra L1 misses are noise).
  static constexpr std::uint32_t kBulkStrip = 1024;
  static_assert(kBulkStrip % simd::kWidth == 0);

  Solver(const DomainMap& domain, comm::Communicator& comm,
         const LbParams& params)
      : domain_(&domain), comm_(&comm), params_(params) {
    HEMO_CHECK_MSG(params.tau > 0.5, "tau must exceed 0.5 for stability");
    const std::size_t n = domain.numOwned();
    f_.init(n);
    if (params_.kernel == LbParams::Kernel::kReference) fNext_.init(n);
    for (const auto& io : domain.lattice().iolets()) {
      ioletDensity_.push_back(io.density);
      ioletVelocity_.push_back(io.normal.normalized() * io.speed);
      ioletIsVelocityBc_.push_back(io.bc == geometry::Iolet::Bc::kVelocity);
    }
    buildTables();
    // One vector group of overhang: the last group of a sweep writes its
    // moments as whole vectors.
    constexpr auto kW = static_cast<std::size_t>(simd::kWidth);
    macroPitch_ = (n + kW - 1) / kW * kW + kW;
    macroPlanes_.assign(
        macroPitch_ * static_cast<std::size_t>(params_.computeStress
                                                    ? kMacroPlanesStress
                                                    : kMacroPlanes),
        0.0);
    // Strip lanes past the end of a sweep are collided too (their results
    // are dropped): seed them with the rest state so they stay finite.
    strip_.assign(static_cast<std::size_t>(kQ) * kBulkStrip, 0.0);
    for (int i = 0; i < kQ; ++i) {
      std::fill_n(strip_.data() + static_cast<std::size_t>(i) * kBulkStrip,
                  kBulkStrip, Lattice::kSet.w[static_cast<std::size_t>(i)]);
    }
    initEquilibrium(1.0, Vec3d{0, 0, 0});
  }

  const DomainMap& domain() const { return *domain_; }
  const LbParams& params() const { return params_; }
  std::uint64_t stepsDone() const { return stepsDone_; }

  /// Vector lanes of the SIMD backend this binary was built with (the
  /// kernels see it via util/simd.hpp; reported in benches/telemetry).
  static constexpr int simdWidth() { return simd::kWidth; }

  /// True when the slab holds the AA layout left by an even step, i.e. the
  /// next step() is an odd step. Always false on the reference kernel.
  /// Independent of stepsDone(): a restore resets it to even.
  bool oddParity() const { return odd_; }

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
    for (int i = 0; i < kQ; ++i) f_.fill(i, equilibrium<Lattice>(i, rho, u));
    odd_ = false;
    std::fill_n(macroPlane(kRho), macroPitch_, rho);
    std::fill_n(macroPlane(kUx), macroPitch_, u.x);
    std::fill_n(macroPlane(kUy), macroPitch_, u.y);
    std::fill_n(macroPlane(kUz), macroPitch_, u.z);
    if (params_.computeStress) {
      for (int c = 0; c < 6; ++c) {
        std::fill_n(macroPlane(kStress + c), macroPitch_, 0.0);
      }
    }
    macroViewStale_ = true;
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
      macroPlane(kRho)[l] = rho;
      macroPlane(kUx)[l] = u.x;
      macroPlane(kUy)[l] = u.y;
      macroPlane(kUz)[l] = u.z;
    }
    odd_ = false;
    macroViewStale_ = true;
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
      f_.swapWith(fNext_);
    } else {
      stepAA();
      odd_ = !odd_;
    }
    macroViewStale_ = true;
    ++stepsDone_;
  }

  void run(int steps) {
    for (int s = 0; s < steps; ++s) step();
  }

  /// Macroscopic moments at time of the last collide (pre-collision),
  /// in external (DomainMap) site order. The view is gathered from the
  /// internal-order planes on the first read after a step, so a reference
  /// held across step() must be re-fetched through macro(), and (like
  /// step()) it is called from the owning rank's thread only.
  const MacroFields& macro() const {
    if (macroViewStale_) gatherMacroView();
    return macroView_;
  }

  /// Mass on this rank (sum of cached densities).
  double localMass() const {
    double m = 0.0;
    for (const double r : macro().rho) m += r;
    return m;
  }

  /// Momentum on this rank.
  Vec3d localMomentum() const {
    const MacroFields& m = macro();
    Vec3d p{0, 0, 0};
    for (std::size_t l = 0; l < m.u.size(); ++l) p += m.u[l] * m.rho[l];
    return p;
  }

  /// Per-phase CPU time accumulated on this rank. In the production kernel
  /// collide covers the frontier and bulk passes (iolet rules included),
  /// stream the receive scatter.
  const PhaseTimer& collideTimer() const { return collideTimer_; }
  const PhaseTimer& streamTimer() const { return streamTimer_; }
  const PhaseTimer& commTimer() const { return commTimer_; }
  /// Wall time of the bulk sweep while halo messages were in flight.
  const WallPhaseTimer& overlapTimer() const { return overlapTimer_; }
  /// Wall time blocked waiting for halo receives after the bulk sweep.
  const WallPhaseTimer& recvWaitTimer() const { return recvWaitTimer_; }
  /// Production-kernel sweep wall times per step parity (0: even steps,
  /// 1: odd steps): the frontier pass (iolet rules included) and the bulk
  /// pass; and the halo pack of both parities. bench_kernels reports them
  /// per site.
  const WallPhaseTimer& frontierTimer(int parity) const {
    return frontierTimer_[static_cast<std::size_t>(parity)];
  }
  const WallPhaseTimer& bulkTimer(int parity) const {
    return bulkTimer_[static_cast<std::size_t>(parity)];
  }
  const WallPhaseTimer& packTimer() const { return packTimer_; }

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
    for (auto& t : frontierTimer_) t.reset();
    for (auto& t : bulkTimer_) t.reset();
    packTimer_.reset();
  }

  /// Distribution i over the owned sites in external (DomainMap) order.
  std::vector<double> distribution(int i) const {
    std::vector<double> out(domain_->numOwned());
    gatherDistribution(i, out);
    return out;
  }

  /// As distribution(), but into caller-owned storage (checkpointing).
  /// Reads the canonical f_i(x) at either parity: after an even step the
  /// value sits in its upstream neighbour's slot, and the odd step's run
  /// tables say where.
  void gatherDistribution(int i, std::vector<double>& out) const {
    const std::size_t n = domain_->numOwned();
    out.resize(n);
    const std::uint32_t* ext = reorder_.externalOf.data();
    if (!odd_ || i == 0) {
      const double* fi = f_.dirBase(i);
      for (std::size_t l = 0; l < n; ++l) out[ext[l]] = fi[l];
      return;
    }
    // f_i(x) sits where the odd step's gather looks: the frontier slot
    // table, or plane opp(i) at the upstream site for the bulk runs.
    const std::uint32_t nf = reorder_.numFrontier;
    const double* slab = f_.dirBase(0);
    const std::uint32_t* slot =
        frontierSlots_.data() + static_cast<std::size_t>(i) * nf;
    for (std::uint32_t k = 0; k < nf; ++k) out[ext[k]] = slab[slot[k]];
    const int o = Lattice::kSet.opposite[static_cast<std::size_t>(i)];
    const double* plane = f_.dirBase(o);
    for (const StreamRun& r : bulkRuns_[static_cast<std::size_t>(o)]) {
      for (std::uint32_t k = 0; k < r.len; ++k) {
        out[ext[nf + r.srcK + k]] = plane[r.dst + k];
      }
    }
  }

  /// Overwrite all kQ distributions from external-order columns (restore,
  /// migration, tests). Resets the parity to even and recomputes the
  /// cached moments exactly as the next collide will.
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
    odd_ = false;
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

  struct RecvDst {
    std::uint32_t dest = 0;  ///< internal site index
    std::uint16_t dir = 0;
  };
  /// An iolet link: after the collide, slot (dir, site) holds the
  /// post-collision population that left through the iolet, and the iolet
  /// rule turns it into the incoming population of direction dir.
  struct IoletOp {
    std::uint32_t site = 0;
    std::uint32_t id = 0;
    std::uint8_t dir = 0;
  };
  /// A maximal unit-stride stretch of slots: `len` consecutive bulk sites
  /// (from srcK, relative to the first bulk site) whose slots in one plane
  /// are consecutive too (from dst).
  struct StreamRun {
    std::uint32_t srcK;
    std::uint32_t dst;
    std::uint32_t len;
  };

  /// Macro planes: rho, u (three components), then the six deviatoric
  /// stress components (xx yy zz xy xz yz) when computeStress is on.
  enum MacroPlane { kRho = 0, kUx, kUy, kUz, kStress };
  static constexpr int kMacroPlanes = 4;
  static constexpr int kMacroPlanesStress = 10;

  double* macroPlane(int p) {
    return macroPlanes_.data() + static_cast<std::size_t>(p) * macroPitch_;
  }
  const double* macroPlane(int p) const {
    return macroPlanes_.data() + static_cast<std::size_t>(p) * macroPitch_;
  }

  /// Site reordering, halo plans, and the streaming tables of the selected
  /// kernel: the pull table for the reference oracle, the run tables for
  /// the production kernel (never both).
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
    // sites, so the per-direction neighbour slots decompose into long
    // unit-stride runs (the propagation-optimised layout).
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
          const auto link = lat.link(g, upDir);
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

    if (!reference) buildRunTables();
  }

  /// Streaming tables of the production kernel, derived from the same
  /// geometry/ownership facts as the halo plans. At an odd step site x
  /// reads f_j from one slab slot and writes f*_opp(j) back to that same
  /// slot: plane opp(j) at the upstream site x - c_j when that is a local
  /// fluid site, else the site's own slot of plane j. The own slot serves
  /// walls (it *is* halfway bounce-back), iolets (their rule is applied to
  /// it after the frontier pass, ioletOps_) and halo links (the value is
  /// packed from it, and the received one lands in it). Bulk sites have
  /// only local neighbours, and row-major order turns their slots into
  /// long unit-stride runs (bulkRuns_); frontier sites keep one flat slot
  /// index per direction (frontierSlots_), since their neighbours are
  /// scattered and runs would be a handful of sites long.
  void buildRunTables() {
    const auto& lat = domain_->lattice();
    const auto& set = Lattice::kSet;
    const auto n = static_cast<std::uint32_t>(domain_->numOwned());
    const std::uint32_t nf = reorder_.numFrontier;
    const auto slotOf = [&](int plane, std::uint32_t site) {
      return static_cast<std::uint32_t>(
          static_cast<std::size_t>(f_.dirBase(plane) - f_.dirBase(0)) + site);
    };
    const std::size_t slabSlots =
        static_cast<std::size_t>(f_.dirBase(kQ - 1) - f_.dirBase(0)) + n;
    HEMO_CHECK_MSG(slabSlots <= 0xFFFFFFFFu,
                   "distribution slab too large for 32-bit slot indices");

    // Per outgoing direction i, the local downstream slot of each bulk
    // site (the slot direction i streams into, plane i).
    std::array<std::vector<std::uint32_t>, kQ> dst;
    for (int i = 1; i < kQ; ++i) {
      dst[static_cast<std::size_t>(i)].resize(n - nf);
    }
    frontierSlots_.assign(static_cast<std::size_t>(kQ) * nf, 0);
    for (std::uint32_t l = 0; l < nf; ++l) frontierSlots_[l] = slotOf(0, l);
    ioletOps_.clear();
    for (std::uint32_t l = 0; l < n; ++l) {
      const std::uint64_t g = domain_->globalOf(reorder_.externalOf[l]);
      for (int i = 1; i < kQ; ++i) {
        const int gd = set.geoDir[static_cast<std::size_t>(i)];
        const int in = set.opposite[static_cast<std::size_t>(i)];
        const auto down = lat.neighborId(g, gd);
        const bool local =
            down >= 0 && domain_->ownerOf(static_cast<std::uint64_t>(down)) ==
                             domain_->rank();
        const std::uint32_t to =
            local ? reorder_.internalOf[static_cast<std::size_t>(
                        domain_->localOf(static_cast<std::uint64_t>(down)))]
                  : 0;
        if (l >= nf) {
          HEMO_CHECK_MSG(local, "bulk site with non-local downstream " << g);
          dst[static_cast<std::size_t>(i)][l - nf] = to;
          continue;
        }
        // The slot site l reads f_in from (and writes f*_i to).
        frontierSlots_[static_cast<std::size_t>(in) * nf + l] =
            local ? slotOf(i, to) : slotOf(in, l);
        if (down < 0) {
          const auto link = lat.link(g, gd);
          if (link.kind != geometry::LinkKind::kWall) {
            ioletOps_.push_back(
                {l, link.ioletId, static_cast<std::uint8_t>(in)});
          }
        }
      }
    }
    for (int i = 1; i < kQ; ++i) {
      bulkRuns_[static_cast<std::size_t>(i)] =
          buildRuns(dst[static_cast<std::size_t>(i)].data(), n - nf);
    }
  }

  /// Decompose the bulk sites' slot indices into unit-stride runs. For
  /// row-major bulk ordering almost every slot advances in lockstep with
  /// the site (dst[k+1] == dst[k]+1 whenever two x-consecutive sites
  /// stream to two x-consecutive sites), so each direction of a strip is a
  /// handful of contiguous copies. Runs never cross strip boundaries: the
  /// odd sweep walks them strip by strip with one cursor per direction.
  static std::vector<StreamRun> buildRuns(const std::uint32_t* dst,
                                          std::uint32_t count) {
    std::vector<StreamRun> runs;
    for (std::uint32_t k = 0; k < count; ++k) {
      if (!runs.empty() && runs.back().dst + runs.back().len == dst[k] &&
          k % kBulkStrip != 0) {
        ++runs.back().len;
      } else {
        runs.push_back({k, dst[k], 1});
      }
    }
    return runs;
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
    /// Internal-order macro planes: rho, ux, uy, uz, stress components.
    double* macro[kMacroPlanesStress] = {};
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
    const int planes = ctx.stress ? kMacroPlanesStress : kMacroPlanes;
    for (int p = 0; p < planes; ++p) ctx.macro[p] = macroPlane(p);
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

  // --- production kernel -------------------------------------------------

  /// Plane pointers of one step: the slab (slab[i] = plane i), the even
  /// step's store targets (even[i] = plane opp(i)) and the strip planes.
  struct SweepPlanes {
    double* slab[kQ];
    double* even[kQ];
    double* strip[kQ];
  };

  SweepPlanes sweepPlanes() {
    SweepPlanes p;
    for (int i = 0; i < kQ; ++i) {
      p.slab[i] = f_.dirBase(i);
      p.even[i] =
          f_.dirBase(Lattice::kSet.opposite[static_cast<std::size_t>(i)]);
      p.strip[i] = strip_.data() + static_cast<std::size_t>(i) * kBulkStrip;
    }
    return p;
  }

  /// The production step: frontier pass, iolet rules, halo pack + send,
  /// bulk pass while the messages are in flight, receive scatter. Only the
  /// two passes depend on the parity.
  void stepAA() {
    const CollisionCtx ctx = collisionCtx();
    const SweepPlanes planes = sweepPlanes();
    const auto n = static_cast<std::uint32_t>(domain_->numOwned());
    const std::uint32_t nf = reorder_.numFrontier;
    const std::size_t parity = odd_ ? 1 : 0;
    // The even frontier pass rounds up to a whole vector group (a few bulk
    // sites collide early, which is harmless: even steps are site-local).
    constexpr auto kW = static_cast<std::uint32_t>(simd::kWidth);
    const std::uint32_t split = std::min(n, (nf + kW - 1) / kW * kW);
    {
      ScopedPhase phase(collideTimer_);
      ScopedWallPhase wall(frontierTimer_[parity]);
      HEMO_TSPAN(kCollide, "collide.frontier");
      if (odd_) {
        sweepOddFrontier(ctx, planes);
      } else {
        collideSlab(ctx, planes, 0, split, true);
      }
      applyIoletRules(ctx);
    }
    {
      ScopedPhase phase(commTimer_);
      HEMO_TSPAN(kHaloSend, "halo.send");
      comm::Communicator::TrafficScope scope(*comm_, comm::Traffic::kHalo);
      {
        // At both parities post-collision f*_i of a halo link sits in the
        // site's own slot (opp(i), site).
        ScopedWallPhase pack(packTimer_);
        const auto& opp = Lattice::kSet.opposite;
        for (std::size_t p = 0; p < sendPlans_.size(); ++p) {
          double* buf = sendFlat_.data() + sendFlatOffset_[p];
          const auto& entries = sendPlans_[p].entries;
          for (std::size_t k = 0; k < entries.size(); ++k) {
            buf[k] = planes.slab[opp[entries[k].velocity]][entries[k].local];
          }
        }
      }
      for (std::size_t p = 0; p < sendPlans_.size(); ++p) {
        comm_->sendBytes(sendPlans_[p].dest, kHaloTag,
                         sendFlat_.data() + sendFlatOffset_[p],
                         sendPlans_[p].entries.size() * sizeof(double));
      }
    }
    {
      ScopedPhase phase(collideTimer_);
      ScopedWallPhase overlap(overlapTimer_);
      ScopedWallPhase wall(bulkTimer_[parity]);
      HEMO_TSPAN(kCollide, "collide.bulk");
      if (odd_) {
        sweepOddBulk(ctx, planes);
      } else {
        collideSlab(ctx, planes, split, n, true);
      }
    }
    {
      // Each received value lands in its site's own slot of the incoming
      // direction: canonical after an odd step, and where the next odd
      // step's frontier gather reads it after an even one.
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
          planes.slab[d.dir][static_cast<std::size_t>(d.dest)] = recvFlat_[k];
        }
      }
    }
  }

  /// Collide slab sites [first, last) (first a multiple of simd::kWidth)
  /// as aligned vector groups read from plane i. With `store`, direction i
  /// lands in plane opp(i) of the same site (the even step); without,
  /// only the moments are kept (refreshMacros).
  void collideSlab(const CollisionCtx& ctx, const SweepPlanes& p,
                   std::uint32_t first, std::uint32_t last, bool store) {
    constexpr auto kW = static_cast<std::uint32_t>(simd::kWidth);
    std::uint32_t s = first;
    for (; s + kW <= last; s += kW) {
      collideGroup(ctx, p.slab, s, store ? p.even : p.strip, store ? s : 0,
                   s);
    }
    if (s == last) return;
    // Partial last group: stage through the strip's first vector lanes
    // (the lanes past cnt hold earlier, finite populations).
    const std::uint32_t cnt = last - s;
    for (int i = 0; i < kQ; ++i) {
      simd::copyDoubles(p.strip[i], p.slab[i] + s, cnt);
    }
    collideGroup(ctx, p.strip, 0, p.strip, 0, s);
    if (!store) return;
    for (int i = 0; i < kQ; ++i) {
      simd::copyDoubles(p.even[i] + s, p.strip[i], cnt);
    }
  }

  /// The odd sweep works strip by strip: gather every site's kQ
  /// populations into the direction-major strip, collide the strip in
  /// place one vector group at a time, and write each direction back to
  /// the slot it was read from (direction i goes where opp(i) came from).
  /// Stale strip lanes past the last site collide too; their populations
  /// are never written back, and their moments land past the sweep's end:
  /// in the first bulk sites' macro slots, which the bulk sweep then
  /// overwrites, or in the planes' one-group overhang.
  void collideStrip(const CollisionCtx& ctx, const SweepPlanes& p,
                    std::uint32_t site0, std::uint32_t cnt) {
    for (std::uint32_t k = 0; k < cnt;
         k += static_cast<std::uint32_t>(simd::kWidth)) {
      collideGroup(ctx, p.strip, k, p.strip, k, site0 + k);
    }
  }

  /// Odd sweep over the frontier, through the per-direction slot table.
  void sweepOddFrontier(const CollisionCtx& ctx, const SweepPlanes& p) {
    const auto& opp = Lattice::kSet.opposite;
    const std::uint32_t nf = reorder_.numFrontier;
    double* slab = p.slab[0];
    for (std::uint32_t base = 0; base < nf; base += kBulkStrip) {
      const std::uint32_t cnt = std::min(kBulkStrip, nf - base);
      for (int j = 0; j < kQ; ++j) {
        const std::uint32_t* slot =
            frontierSlots_.data() + static_cast<std::size_t>(j) * nf + base;
        double* strip = p.strip[j];
        for (std::uint32_t k = 0; k < cnt; ++k) strip[k] = slab[slot[k]];
      }
      collideStrip(ctx, p, base, cnt);
      for (int j = 0; j < kQ; ++j) {
        const std::uint32_t* slot =
            frontierSlots_.data() + static_cast<std::size_t>(j) * nf + base;
        const double* strip = p.strip[opp[static_cast<std::size_t>(j)]];
        for (std::uint32_t k = 0; k < cnt; ++k) slab[slot[k]] = strip[k];
      }
    }
  }

  /// Copy this strip's share of one direction's runs between the slab
  /// plane and the strip plane (gather: slab -> strip, else strip -> slab).
  /// `base` is the strip's first bulk-relative site.
  template <bool Gather>
  static void copyRuns(const std::vector<StreamRun>& runs, std::size_t& cur,
                       double* strip, double* plane, std::uint32_t base,
                       std::uint32_t stripEnd) {
    while (cur < runs.size() && runs[cur].srcK < stripEnd) {
      const StreamRun r = runs[cur++];
      double* s = strip + (r.srcK - base);
      double* f = plane + r.dst;
      if constexpr (Gather) {
        simd::copyDoubles(s, f, r.len);
      } else {
        simd::copyDoubles(f, s, r.len);
      }
    }
  }

  /// Odd sweep over the bulk, through the unit-stride runs: direction j is
  /// gathered from plane opp(j) via the runs of opp(j), direction i drained
  /// to plane i via its own runs — the same slots.
  void sweepOddBulk(const CollisionCtx& ctx, const SweepPlanes& p) {
    const auto& opp = Lattice::kSet.opposite;
    const std::uint32_t nf = reorder_.numFrontier;
    const std::uint32_t count =
        static_cast<std::uint32_t>(domain_->numOwned()) - nf;
    std::array<std::size_t, kQ> gather{}, drain{};
    for (std::uint32_t base = 0; base < count; base += kBulkStrip) {
      const std::uint32_t cnt = std::min(kBulkStrip, count - base);
      const std::uint32_t end = base + cnt;
      simd::copyDoubles(p.strip[0], p.slab[0] + nf + base, cnt);
      for (int j = 1; j < kQ; ++j) {
        const auto o =
            static_cast<std::size_t>(opp[static_cast<std::size_t>(j)]);
        copyRuns<true>(bulkRuns_[o], gather[o], p.strip[j], p.slab[o], base,
                       end);
      }
      collideStrip(ctx, p, nf + base, cnt);
      simd::copyDoubles(p.slab[0] + nf + base, p.strip[0], cnt);
      for (int i = 1; i < kQ; ++i) {
        const auto d = static_cast<std::size_t>(i);
        copyRuns<false>(bulkRuns_[d], drain[d], p.strip[i], p.slab[i], base,
                        end);
      }
    }
  }

  /// Iolet rules of the frontier, the same at both parities: slot (dir,
  /// site) holds the post-collision population that left through the
  /// iolet, and becomes the incoming population of direction dir.
  void applyIoletRules(const CollisionCtx& ctx) {
    const auto& set = Lattice::kSet;
    for (const IoletOp& op : ioletOps_) {
      const auto l = static_cast<std::size_t>(op.site);
      const auto dir = static_cast<std::size_t>(op.dir);
      const auto id = static_cast<std::size_t>(op.id);
      double& slot = f_.dirBase(op.dir)[l];
      const Vec3d c = set.c[dir].template cast<double>();
      const double w = set.w[dir];
      const double bounce = slot;
      if (ioletIsVelocityBc_[id]) {
        // Ladd bounce-back off a "wall" moving at the prescribed iolet
        // velocity: injects the target momentum flux.
        const double rho = ctx.macro[kRho][l];
        slot = bounce + 6.0 * w * rho * c.dot(ioletVelocity_[id]);
      } else {
        // Anti-bounce-back pressure boundary at the prescribed density,
        // using the site's own velocity as the boundary value.
        const double rhoIo = ioletDensity_[id];
        const Vec3d u{ctx.macro[kUx][l], ctx.macro[kUy][l], ctx.macro[kUz][l]};
        const double cu = c.dot(u);
        slot = -bounce +
               2.0 * w * rhoIo * (1.0 + 4.5 * cu * cu - 1.5 * u.dot(u));
      }
    }
  }

  /// Collide one vector group: lanes [inOff, inOff + kWidth) of the `in`
  /// planes (aligned) into the same lanes from outOff of the `out` planes,
  /// moments into the macro planes from site m. Every site of the
  /// production kernel goes through this one routine, so its results do
  /// not depend on parity or on where the site sits. Stress/forcing are
  /// hoisted to template parameters — with 19 live population vectors the
  /// register file is full, and per-direction runtime branches are
  /// measurable.
  void collideGroup(const CollisionCtx& ctx, const double* const* in,
                    std::size_t inOff, double* const* out, std::size_t outOff,
                    std::size_t m) {
    if (ctx.stress) {
      if (ctx.forced) {
        collideGroupImpl<true, true>(ctx, in, inOff, out, outOff, m);
      } else {
        collideGroupImpl<true, false>(ctx, in, inOff, out, outOff, m);
      }
    } else {
      if (ctx.forced) {
        collideGroupImpl<false, true>(ctx, in, inOff, out, outOff, m);
      } else {
        collideGroupImpl<false, false>(ctx, in, inOff, out, outOff, m);
      }
    }
  }

  /// Per lane the arithmetic is relaxSiteReference()'s update with the
  /// optimised equilibrium polynomial and FMA contraction, so the kernel
  /// tracks the reference oracle to 1e-12 over 100 steps.
  template <bool Stress, bool Forced>
  void collideGroupImpl(const CollisionCtx& ctx, const double* const* in,
                        std::size_t inOff, double* const* out,
                        std::size_t outOff, std::size_t m) {
    using simd::VecD;
    using simd::broadcast;
    using simd::fmadd;
    const auto& d = dir_;
    const auto& set = Lattice::kSet;
    const VecD one = broadcast(1.0);
    const VecD half = broadcast(0.5);
    const VecD three = broadcast(3.0);
    const VecD fourHalf = broadcast(4.5);
    const VecD mThreeHalf = broadcast(-1.5);
    const VecD omega = broadcast(ctx.omega);

    VecD fv[kQ];
    VecD rho = simd::zero();
    VecD mx = simd::zero(), my = simd::zero(), mz = simd::zero();
    for (int i = 0; i < kQ; ++i) {
      fv[i] = simd::load(in[i] + inOff);
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
      // Guo: physical velocity includes half the force impulse.
      const VecD h = half * invRho;
      ux = fmadd(broadcast(ctx.F.x), h, ux);
      uy = fmadd(broadcast(ctx.F.y), h, uy);
      uz = fmadd(broadcast(ctx.F.z), h, uz);
    }
    simd::storeu(ctx.macro[kRho] + m, rho);
    simd::storeu(ctx.macro[kUx] + m, ux);
    simd::storeu(ctx.macro[kUy] + m, uy);
    simd::storeu(ctx.macro[kUz] + m, uz);

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
      simd::storeu(ctx.macro[kStress + 0] + m, sxx - trace3);
      simd::storeu(ctx.macro[kStress + 1] + m, syy - trace3);
      simd::storeu(ctx.macro[kStress + 2] + m, szz - trace3);
      simd::storeu(ctx.macro[kStress + 3] + m, sxy);
      simd::storeu(ctx.macro[kStress + 4] + m, sxz);
      simd::storeu(ctx.macro[kStress + 5] + m, syz);
    }

    for (int i = 0; i < kQ; ++i) simd::store(out[i] + outOff, fv[i]);
  }

  // --- reference three-phase kernel --------------------------------------
  // The test oracle: Vec3-based collision arithmetic, blocking halo
  // exchange, then a pull-stream over the pull table.

  void relaxSiteReference(const CollisionCtx& ctx, double* fl, std::size_t l) {
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
    ctx.macro[kRho][l] = rho;
    ctx.macro[kUx][l] = u.x;
    ctx.macro[kUy][l] = u.y;
    ctx.macro[kUz][l] = u.z;

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
      for (int c = 0; c < 6; ++c) {
        ctx.macro[kStress + c][l] = sigma.m[static_cast<std::size_t>(c)];
      }
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
      relaxSiteReference(ctx, fl, l);
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
    const double* rhoM = macroPlane(kRho);
    const double* uxM = macroPlane(kUx);
    const double* uyM = macroPlane(kUy);
    const double* uzM = macroPlane(kUz);
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
            const Vec3d c =
                set.c[static_cast<std::size_t>(i)].template cast<double>();
            const double w = set.w[static_cast<std::size_t>(i)];
            if (ioletIsVelocityBc_[id]) {
              // Ladd bounce-back off a "wall" moving at the prescribed
              // iolet velocity: injects the target momentum flux.
              const double rho = rhoM[l];
              out[l] = bounce[l] + 6.0 * w * rho * c.dot(ioletVelocity_[id]);
            } else {
              // Anti-bounce-back pressure boundary at the prescribed
              // density, using the site's own velocity as the boundary
              // value.
              const double rhoIo = ioletDensity_[id];
              const Vec3d u{uxM[l], uyM[l], uzM[l]};
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

  /// Recompute the cached moments from the (canonical, even-parity)
  /// distributions after an external write such as a restore. Runs the
  /// production collide itself with the populations dropped, so the
  /// moments — Guo half-force shift and stress included — are bit for bit
  /// what the next step's collide writes.
  void refreshMacros() {
    collideSlab(collisionCtx(), sweepPlanes(), 0,
                static_cast<std::uint32_t>(domain_->numOwned()), false);
    macroViewStale_ = true;
  }

  /// Rebuild the external-order macro view from the internal planes.
  void gatherMacroView() const {
    const std::size_t n = domain_->numOwned();
    const std::uint32_t* ext = reorder_.externalOf.data();
    macroView_.rho.resize(n);
    macroView_.u.resize(n);
    const double* rho = macroPlane(kRho);
    const double* ux = macroPlane(kUx);
    const double* uy = macroPlane(kUy);
    const double* uz = macroPlane(kUz);
    for (std::size_t l = 0; l < n; ++l) {
      macroView_.rho[ext[l]] = rho[l];
      macroView_.u[ext[l]] = Vec3d{ux[l], uy[l], uz[l]};
    }
    if (params_.computeStress) {
      macroView_.stress.resize(n);
      const double* s[6];
      for (int c = 0; c < 6; ++c) s[c] = macroPlane(kStress + c);
      for (std::size_t l = 0; l < n; ++l) {
        macroView_.stress[ext[l]].m = {s[0][l], s[1][l], s[2][l],
                                       s[3][l], s[4][l], s[5][l]};
      }
    }
    macroViewStale_ = false;
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

  /// Distributions in internal (frontier-first) site order, SoA planes:
  /// canonical f_i(x) at even parity, the AA layout after an even step.
  DistField<kQ> f_;
  /// Second slab of the reference kernel's pull-stream (empty otherwise).
  DistField<kQ> fNext_;
  /// Next step is odd (production kernel).
  bool odd_ = false;
  /// Odd-step slots of the frontier: [j * numFrontier + k] is the flat
  /// slab index (from plane 0) where frontier site k reads f_j and writes
  /// f*_opp(j).
  std::vector<std::uint32_t> frontierSlots_;
  /// Unit-stride runs of the bulk sites' slots per outgoing direction i:
  /// the slots of plane i that direction i streams into.
  std::array<std::vector<StreamRun>, kQ> bulkRuns_;
  std::vector<IoletOp> ioletOps_;
  /// Direction-major strip of the odd sweep (kQ planes of kBulkStrip).
  simd::AVector<double> strip_;
  /// Pull table, internal order (built only for the reference kernel).
  std::array<std::vector<PullSrc>, kQ> pull_;

  std::vector<SendPlan> sendPlans_;
  /// Persistent flat send storage; plan p owns [sendFlatOffset_[p], ...).
  std::vector<double> sendFlat_;
  std::vector<std::size_t> sendFlatOffset_;
  std::vector<int> recvRanks_;
  std::vector<std::uint32_t> recvOffset_;
  std::vector<double> recvFlat_;
  /// Slab slot (site, incoming direction) of each flat receive slot.
  std::vector<RecvDst> recvDst_;

  /// Macroscopic fields in internal order, one plane each (macroPlane()).
  simd::AVector<double> macroPlanes_;
  std::size_t macroPitch_ = 0;
  /// External-order view of the planes, gathered by macro() on demand.
  mutable MacroFields macroView_;
  mutable bool macroViewStale_ = true;
  std::uint64_t stepsDone_ = 0;
  PhaseTimer collideTimer_, streamTimer_, commTimer_;
  WallPhaseTimer overlapTimer_, recvWaitTimer_;
  std::array<WallPhaseTimer, 2> frontierTimer_, bulkTimer_;
  WallPhaseTimer packTimer_;
};

using SolverD3Q19 = Solver<D3Q19>;
using SolverD3Q15 = Solver<D3Q15>;
using SolverD3Q27 = Solver<D3Q27>;

}  // namespace hemo::lb
