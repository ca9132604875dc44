#include "comm/runtime.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <numeric>
#include <thread>

#include "telemetry/flightrec.hpp"
#include "util/check.hpp"
#include "util/faultinject.hpp"
#include "util/heap.hpp"
#include "util/log.hpp"

namespace hemo::comm {

namespace {

/// The heap policy has to be in place before any rank thread allocates, so
/// every program that links the runtime applies it at load time.
[[maybe_unused]] const bool kHeapPolicyPinned = [] {
  util::pinHeapPolicy();
  return true;
}();

/// Flow-arrow id tying one halo send to its receive: both sides derive it
/// from (sender world rank, receiver world rank, step epoch). Collisions
/// only smudge a viewer arrow, so a 64-bit mix is plenty.
std::uint64_t haloFlowId(int srcWorld, int dstWorld, std::uint64_t epoch) {
  return detail::mix64(epoch + 1,
                       (static_cast<std::uint64_t>(srcWorld) << 20) |
                           static_cast<std::uint64_t>(dstWorld));
}

}  // namespace

// --- Communicator methods needing Runtime ---------------------------------

void Communicator::sendBytes(int dest, int tag, const void* data,
                             std::size_t n) {
  HEMO_CHECK_MSG(dest >= 0 && dest < size(), "bad dest rank " << dest);
  {
    // Fault hook: rank-addressable send failures and simulated rank death.
    // A thrown fault unwinds this rank's stack into Runtime::run, whose
    // abort propagation wakes every blocked peer — the same path a real
    // crash takes.
    auto& fi = util::FaultInjector::instance();
    if (fi.armed()) {
      util::FaultRule rule;
      switch (fi.decide(util::FaultSite::kCommSend, worldRank(), &rule)) {
        case util::FaultAction::kDrop:
          return;  // message lost in flight
        case util::FaultAction::kDelay:
          util::FaultInjector::sleepFor(rule.delayMillis);
          break;
        case util::FaultAction::kFail:
          throw util::InjectedFaultError("injected send failure on rank " +
                                         std::to_string(worldRank()));
        case util::FaultAction::kKill:
          throw util::RankKilledError("injected rank death on rank " +
                                      std::to_string(worldRank()));
        case util::FaultAction::kHang:
          // Block at the fault site until the survivors declare this rank
          // dead (exercises the timeout/agreement detection path), then
          // die for real so the thread can be joined.
          fi.hangUntilReleased(worldRank());
        default:
          break;
      }
    }
  }
  noteAlive();
  Envelope env;
  env.context = context_;
  env.source = rank_;
  env.tag = tag;
  env.shrinkEpoch = bornEpoch_;
  env.payload.resize(n);
  if (n > 0) std::memcpy(env.payload.data(), data, n);
#ifndef HEMO_TELEMETRY_DISABLED
  // Piggyback the wait-state header (post time + step epoch) so the
  // receiver can classify its blocked time; halo sends also drop the
  // sender half of a Chrome-trace flow arrow.
  if (auto* t = telemetry::threadTelemetry()) {
    env.epoch = t->waitState().epoch();
    env.postTsNs = telemetry::traceNowNs();
    if (traffic_ == Traffic::kHalo && t->tracer().enabled()) {
      t->tracer().flow(
          telemetry::Category::kHaloSend, "halo.flow",
          telemetry::SpanPhase::kFlowStart,
          haloFlowId(worldRank(), groupToWorld_[static_cast<std::size_t>(dest)],
                     env.epoch),
          env.postTsNs);
    }
  }
#endif
  auto& c = counters().of(traffic_);
  ++c.messagesSent;
  c.bytesSent += n;
  rt_->mailbox(groupToWorld_[static_cast<std::size_t>(dest)])
      .push(std::move(env));
}

void Communicator::noteAlive() {
  if (rt_->liveness().enabled) rt_->deathBoard().noteAlive(worldRank());
}

Envelope Communicator::popBounded(int source, int tag) {
  Mailbox& mb = rt_->mailbox(worldRank());
  const LivenessConfig& cfg = rt_->liveness();
  if (!cfg.enabled) return mb.pop(context_, source, tag);

  DeathBoard& board = rt_->deathBoard();
  const int me = worldRank();
  const int srcWorld =
      source == kAnySource ? -1 : groupToWorld_[static_cast<std::size_t>(source)];
  const std::int64_t waitStartNs = DeathBoard::nowNs();
  const std::int64_t timeoutNs =
      static_cast<std::int64_t>(cfg.timeoutMs) * 1'000'000;
  const auto slice = std::chrono::milliseconds(cfg.pollMs > 0 ? cfg.pollMs : 1);
  Envelope env;
  for (;;) {
    if (mb.popFor(context_, source, tag, slice, env)) {
      // Discard stale pre-shrink traffic (context separation makes this a
      // belt-and-braces check; the purge at shrink() does the bulk).
      if (env.shrinkEpoch < bornEpoch_) continue;
      return env;
    }
    // Each empty slice doubles as this rank's own heartbeat: a rank
    // blocked on one peer must not look dead to a third.
    board.noteAlive(me);
    if (srcWorld >= 0 && board.dead(srcWorld)) {
      throw PeerDeadError(srcWorld, "rank " + std::to_string(me) +
                                        " blocked on declared-dead rank " +
                                        std::to_string(srcWorld) +
                                        " (tag=" + std::to_string(tag) + ")");
    }
    if (board.epoch() != bornEpoch_) {
      // A death anywhere invalidates this communicator generation: every
      // survivor must unwind to the recovery layer, not just the ranks
      // that were talking to the dead peer.
      int culprit = -1;
      for (const int w : groupToWorld_) {
        if (w != me && board.dead(w)) {
          culprit = w;
          break;
        }
      }
      const auto ds = board.deadSet();
      if (culprit < 0 && !ds.empty()) culprit = ds.front();
      throw PeerDeadError(
          culprit, "rank " + std::to_string(me) +
                       " abandoning communicator epoch " +
                       std::to_string(bornEpoch_) + ": " +
                       std::to_string(ds.size()) + " rank(s) declared dead");
    }
    if (srcWorld >= 0) {
      if (board.exited(srcWorld)) {
        board.declareDead(srcWorld);
        throw PeerDeadError(
            srcWorld,
            "rank " + std::to_string(me) + " waiting on rank " +
                std::to_string(srcWorld) +
                (board.finished(srcWorld) ? " which already finished"
                                          : " which crashed") +
                " (tag=" + std::to_string(tag) + ")");
      }
      const std::int64_t seen =
          std::max(board.lastSeenNs(srcWorld), waitStartNs);
      if (DeathBoard::nowNs() - seen > timeoutNs) {
        board.declareDead(srcWorld);
        throw PeerDeadError(srcWorld,
                            "rank " + std::to_string(me) + " accuses rank " +
                                std::to_string(srcWorld) + ": silent for " +
                                std::to_string(cfg.timeoutMs) +
                                " ms (tag=" + std::to_string(tag) + ")");
      }
    } else if (DeathBoard::nowNs() - waitStartNs >
               std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Mailbox::kDeadlockTimeout)
                   .count()) {
      // kAnySource: nobody specific to accuse; keep the legacy backstop.
      throw AbortError("receive timed out (likely deadlock): tag=" +
                       std::to_string(tag));
    }
  }
}

Envelope Communicator::popClassified(int source, int tag) {
#ifndef HEMO_TELEMETRY_DISABLED
  auto* t = telemetry::threadTelemetry();
  if (t != nullptr && t->waitState().enabled()) {
    const std::int64_t waitBegin = telemetry::traceNowNs();
    Envelope env = popBounded(source, tag);
    const std::int64_t waitEnd = telemetry::traceNowNs();
    const int srcWorld =
        groupToWorld_[static_cast<std::size_t>(env.source)];
    t->waitState().recordRecv(static_cast<int>(traffic_),
                              traffic_ == Traffic::kCollective, srcWorld,
                              waitBegin, waitEnd, env.postTsNs);
    if (traffic_ == Traffic::kHalo && t->tracer().enabled()) {
      t->tracer().flow(telemetry::Category::kHaloRecvWait, "halo.flow",
                       telemetry::SpanPhase::kFlowEnd,
                       haloFlowId(srcWorld, worldRank(), env.epoch), waitEnd);
    }
    return env;
  }
#endif
  return popBounded(source, tag);
}

std::vector<std::byte> Communicator::recvBytes(int source, int tag,
                                               int* sourceOut) {
  Envelope env = popClassified(source, tag);
  auto& c = counters().of(traffic_);
  ++c.messagesReceived;
  c.bytesReceived += env.payload.size();
  if (sourceOut != nullptr) *sourceOut = env.source;
  return std::move(env.payload);
}

void Communicator::recvBytesInto(int source, int tag, void* dst,
                                 std::size_t n) {
  Envelope env = popClassified(source, tag);
  HEMO_CHECK_MSG(env.payload.size() == n,
                 "recvBytesInto size mismatch: got " << env.payload.size()
                                                     << " want " << n);
  auto& c = counters().of(traffic_);
  ++c.messagesReceived;
  c.bytesReceived += n;
  if (n > 0) std::memcpy(dst, env.payload.data(), n);
}

bool Communicator::tryRecvBytes(int source, int tag,
                                std::vector<std::byte>& payload,
                                int* sourceOut) {
  Envelope env;
  if (!rt_->mailbox(worldRank()).tryPop(context_, source, tag, env)) {
    return false;
  }
  auto& c = counters().of(traffic_);
  ++c.messagesReceived;
  c.bytesReceived += env.payload.size();
  if (sourceOut != nullptr) *sourceOut = env.source;
  payload = std::move(env.payload);
  return true;
}

bool Communicator::probe(int source, int tag) const {
  return rt_->mailbox(groupToWorld_[static_cast<std::size_t>(rank_)])
      .probe(context_, source, tag);
}

void Communicator::barrier() {
  // Internal collective traffic defaults to kCollective but inherits a more
  // specific class the caller set (e.g. steering fan-out counts as kSteer).
  TrafficScope scope(*this, traffic_ == Traffic::kOther
                                ? Traffic::kCollective
                                : traffic_);
  const int n = size();
  const int tag = nextCollectiveTag();
  const std::byte token{0};
  for (int k = 1; k < n; k <<= 1) {
    sendBytes((rank_ + k) % n, tag, &token, 1);
    recvBytes((rank_ - k + n) % n, tag);
  }
}

void Communicator::bcastBytes(std::vector<std::byte>& buffer, int root) {
  TrafficScope scope(*this, traffic_ == Traffic::kOther
                                ? Traffic::kCollective
                                : traffic_);
  const int n = size();
  HEMO_CHECK(root >= 0 && root < n);
  if (n == 1) return;
  const int tag = nextCollectiveTag();
  const int vrank = (rank_ - root + n) % n;
  // Receive from the parent (clear the vrank's lowest set bit).
  int highestMask = 1;
  while (highestMask < n) highestMask <<= 1;
  if (vrank != 0) {
    int mask = 1;
    while (!(vrank & mask)) mask <<= 1;
    const int parent = ((vrank & ~mask) + root) % n;
    buffer = recvBytes(parent, tag);
  }
  // Forward to children: vrank + m for each m below our lowest set bit
  // (root forwards for every m < n), highest first.
  int lowBit = highestMask;
  if (vrank != 0) {
    lowBit = 1;
    while (!(vrank & lowBit)) lowBit <<= 1;
  }
  for (int m = lowBit >> 1; m >= 1; m >>= 1) {
    const int childV = vrank + m;
    if (childV < n) {
      sendBytes((childV + root) % n, tag, buffer.data(), buffer.size());
    }
  }
}

Communicator Communicator::split(int color, int key) {
  struct Triple {
    int color, key, groupRank;
  };
  std::uint64_t seq;
  std::vector<Triple> all;
  {
    TrafficScope scope(*this, Traffic::kCollective);
    seq = collectiveSeq_;
    all = allgather(Triple{color, key, rank_});
  }
  std::vector<Triple> mine;
  for (const auto& t : all) {
    if (t.color == color) mine.push_back(t);
  }
  std::stable_sort(mine.begin(), mine.end(), [](const Triple& a,
                                                const Triple& b) {
    return a.key != b.key ? a.key < b.key : a.groupRank < b.groupRank;
  });
  std::vector<int> newGroupToWorld;
  int newRank = -1;
  for (const auto& t : mine) {
    if (t.groupRank == rank_) newRank = static_cast<int>(newGroupToWorld.size());
    newGroupToWorld.push_back(
        groupToWorld_[static_cast<std::size_t>(t.groupRank)]);
  }
  HEMO_CHECK(newRank >= 0);
  // All members derive the identical context id; disjoint colors (and
  // successive splits) get distinct ids.
  const std::uint64_t ctx = detail::mix64(
      detail::mix64(context_, seq), static_cast<std::uint64_t>(color) + 1);
  Communicator out(rt_, ctx, newRank, std::move(newGroupToWorld));
  // A child of a shrunken communicator belongs to the same generation: born
  // at epoch 0, its first wait longer than a poll slice would read the
  // recovery that made its parent as a fresh death.
  out.bornEpoch_ = bornEpoch_;
  return out;
}

Communicator Communicator::shrink(const std::vector<int>& deadWorldRanks) const {
  const auto isDead = [&](int w) {
    return std::find(deadWorldRanks.begin(), deadWorldRanks.end(), w) !=
           deadWorldRanks.end();
  };
  std::vector<int> survivors;
  survivors.reserve(groupToWorld_.size());
  int newRank = -1;
  for (int gr = 0; gr < size(); ++gr) {
    const int w = groupToWorld_[static_cast<std::size_t>(gr)];
    if (isDead(w)) continue;
    if (gr == rank_) newRank = static_cast<int>(survivors.size());
    survivors.push_back(w);
  }
  HEMO_CHECK_MSG(newRank >= 0, "shrink: calling rank is in the dead set");
  HEMO_CHECK_MSG(!survivors.empty(), "shrink: no survivors");
  // Context derived from (old context, dead set, recovery epoch). The epoch
  // is the dead-set size — identical to the board's epoch for a consistent
  // snapshot (it counts declared deaths), but, crucially, a pure function of
  // the agreed argument: reading the live board here would race with a
  // *concurrent* new death and let survivors derive different contexts. If
  // the board has already moved past this epoch, the first bounded wait on
  // the new communicator notices and triggers the next recovery round.
  const auto epoch = static_cast<std::uint32_t>(deadWorldRanks.size());
  std::uint64_t key = detail::mix64(0x73687269'6e6b0000ULL, epoch);
  for (const int w : deadWorldRanks) {
    key = detail::mix64(key, static_cast<std::uint64_t>(w) + 1);
  }
  Communicator out(rt_, detail::mix64(context_, key), newRank,
                   std::move(survivors));
  out.bornEpoch_ = epoch;
  out.traffic_ = traffic_;
  // Drop traffic queued for the abandoned generation: anything the dead
  // rank (or a pre-shrink survivor) sent on the old context must never
  // match a post-recovery receive.
  rt_->mailbox(worldRank()).purgeContext(context_);
  rt_->mailbox(worldRank()).purgeStaleEpochs(epoch);
  return out;
}

TrafficCounters& Communicator::counters() { return rt_->counters(worldRank()); }

const TrafficCounters& Communicator::counters() const {
  return rt_->counters(groupToWorld_[static_cast<std::size_t>(rank_)]);
}

// --- Runtime ----------------------------------------------------------------

Runtime::Runtime(int size) : size_(size), board_(size) {
  HEMO_CHECK_MSG(size >= 1, "runtime needs at least one rank");
  mailboxes_.reserve(static_cast<std::size_t>(size));
  telemetry_.reserve(static_cast<std::size_t>(size));
  for (int i = 0; i < size; ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
    telemetry_.push_back(std::make_unique<telemetry::RankTelemetry>(i));
    // Make every rank's flight recorder reachable from the crash paths
    // (signal/terminate handlers, flush-on-rank-exception). Flushing stays
    // a no-op until a driver arms the registry with a bundle directory.
    telemetry::FlightRegistry::instance().registerRank(
        &telemetry_.back()->flightRecorder(), &telemetry_.back()->tracer());
  }
  counters_.resize(static_cast<std::size_t>(size));
}

Runtime::~Runtime() {
  for (auto& t : telemetry_) {
    telemetry::FlightRegistry::instance().unregisterRank(&t->flightRecorder());
  }
}

void Runtime::run(const std::function<void(Communicator&)>& rankMain,
                  const RunOptions& options) {
  for (auto& mb : mailboxes_) mb->resetAbort();
  board_.reset();
  tolerated_.clear();

  std::vector<int> worldGroup(static_cast<std::size_t>(size_));
  std::iota(worldGroup.begin(), worldGroup.end(), 0);

  // All teardown state shares one mutex: first error, per-rank done flags,
  // and the completion count the bounded join waits on.
  std::mutex doneMutex;
  std::condition_variable doneCv;
  std::exception_ptr firstError;
  std::vector<char> done(static_cast<std::size_t>(size_), 0);
  int doneCount = 0;

  // A rank hung at a kHang fault site is released (throws RankKilledError)
  // the moment the group declares it dead — by liveness accusation, or by
  // the bounded join below when recovery is off.
  util::FaultInjector::instance().setHangRelease(
      [this](int r) { return board_.dead(r); });

  auto threadMain = [&](int rank) {
    setThreadLogRank(rank);
    telemetry::ThreadTelemetryScope tscope(
        telemetry_[static_cast<std::size_t>(rank)].get());
    Communicator comm(this, /*context=*/1, rank, worldGroup);
    std::exception_ptr err;
    bool toleratedDeath = false;
    try {
      rankMain(comm);
      board_.markFinished(rank);
    } catch (const util::RankKilledError& e) {
      board_.markCrashed(rank);
      if (options.tolerateRankDeath) {
        // Tolerated death: mark the rank dead (waking every bounded wait
        // blocked on it) and let the survivors shrink and continue.
        toleratedDeath = true;
        board_.declareDead(rank);
        HEMO_LOG_WARN() << "rank " << rank
                        << " died (tolerated, survivors continue): "
                        << e.what();
      } else {
        err = std::current_exception();
      }
    } catch (...) {
      board_.markCrashed(rank);
      err = std::current_exception();
    }
    if (err) {
      bool isFirst = false;
      {
        std::lock_guard<std::mutex> lock(doneMutex);
        if (!firstError) {
          firstError = err;
          isFirst = true;
        }
      }
      // Wake every blocked receive so the group can unwind.
      for (auto& mb : mailboxes_) mb->abort();
      // The first failing rank writes the postmortem bundle (if a driver
      // armed the registry) while the rest of the group is still
      // unwinding — the recorders' mutexes keep that safe.
      if (isFirst) {
        std::string detail = "unknown exception";
        try {
          std::rethrow_exception(err);
        } catch (const std::exception& e) {
          detail = e.what();
        } catch (...) {
        }
        auto& registry = telemetry::FlightRegistry::instance();
        if (registry.armed()) registry.flush("rank-exception", detail);
      }
    }
    {
      std::lock_guard<std::mutex> lock(doneMutex);
      done[static_cast<std::size_t>(rank)] = 1;
      ++doneCount;
      if (toleratedDeath) tolerated_.push_back(rank);
    }
    doneCv.notify_all();
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(size_));
  for (int r = 0; r < size_; ++r) {
    threads.emplace_back(threadMain, r);
  }

  // Bounded join. While the group is healthy there is no deadline — a
  // long simulation is not a hang. Once a rank has aborted the group
  // (firstError set), the rest must unwind within joinTimeout: blocked
  // receives were woken by abort(), so a straggler is either hung at a
  // fault site or spinning without communicating. First expiry: declare
  // the stragglers dead (releases kHang loops, surfaces PeerDeadError to
  // anything still waiting on them) and re-abort. Second expiry: flush the
  // flight recorder, log the stuck ranks and abort the process — an
  // unjoinable thread leaves no honest alternative.
  const auto joinTimeout = std::chrono::milliseconds(
      static_cast<std::int64_t>(options.joinTimeoutSeconds * 1000.0));
  {
    std::unique_lock<std::mutex> lock(doneMutex);
    bool armed = false;
    std::chrono::steady_clock::time_point deadline{};
    int escalation = 0;
    while (doneCount < size_) {
      if (!armed) {
        doneCv.wait_for(lock, std::chrono::milliseconds(50));
        if (firstError) {
          armed = true;
          deadline = std::chrono::steady_clock::now() + joinTimeout;
        }
        continue;
      }
      if (doneCv.wait_until(lock, deadline) != std::cv_status::timeout ||
          doneCount >= size_) {
        continue;
      }
      std::string stuck;
      for (int r = 0; r < size_; ++r) {
        if (done[static_cast<std::size_t>(r)] == 0) {
          stuck += (stuck.empty() ? "" : ", ") + std::to_string(r);
        }
      }
      ++escalation;
      if (escalation == 1) {
        HEMO_LOG_ERROR() << "teardown stuck: rank(s) " << stuck
                         << " did not exit within "
                         << options.joinTimeoutSeconds
                         << " s of group abort; declaring dead and "
                            "re-aborting";
        lock.unlock();
        for (int r = 0; r < size_; ++r) {
          bool wasDone;
          {
            std::lock_guard<std::mutex> relock(doneMutex);
            wasDone = done[static_cast<std::size_t>(r)] != 0;
          }
          if (!wasDone) board_.declareDead(r);
        }
        for (auto& mb : mailboxes_) mb->abort();
        lock.lock();
        deadline = std::chrono::steady_clock::now() + joinTimeout;
      } else {
        HEMO_LOG_ERROR() << "teardown still stuck: rank(s) " << stuck
                         << " are unjoinable (hung outside the comm layer); "
                            "flushing flight recorder and aborting process";
        auto& registry = telemetry::FlightRegistry::instance();
        if (registry.armed()) {
          registry.flush("teardown-stuck", "unjoinable rank(s) " + stuck);
        }
        std::abort();
      }
    }
  }
  for (auto& t : threads) t.join();
  util::FaultInjector::instance().clearHangRelease();

  if (firstError) std::rethrow_exception(firstError);
  if (options.tolerateRankDeath &&
      static_cast<int>(tolerated_.size()) == size_) {
    throw util::RankKilledError("all " + std::to_string(size_) +
                                " ranks died; nothing left to recover onto");
  }
}

const TrafficCounters& Runtime::counters(int worldRank) const {
  return counters_[static_cast<std::size_t>(worldRank)];
}

TrafficCounters& Runtime::counters(int worldRank) {
  return counters_[static_cast<std::size_t>(worldRank)];
}

TrafficCounters Runtime::totalCounters() const {
  TrafficCounters sum;
  for (const auto& c : counters_) sum += c;
  return sum;
}

void Runtime::resetCounters() {
  for (auto& c : counters_) c.reset();
}

std::vector<telemetry::RankTrace> Runtime::drainTraces() {
  std::vector<telemetry::RankTrace> out;
  out.reserve(telemetry_.size());
  for (auto& t : telemetry_) {
    telemetry::RankTrace rt;
    rt.rank = t->rank();
    // Retained flight-recorder tail first (older), then the pending ring
    // events — the recorder's mutex serialises all ring consumers.
    rt.events = t->flightRecorder().takeTrace(t->tracer());
    rt.dropped = t->tracer().dropped();
    out.push_back(std::move(rt));
  }
  return out;
}

bool Runtime::writeChromeTrace(const std::string& path) {
  return telemetry::writeChromeTrace(path, drainTraces());
}

void Runtime::resetTelemetry() {
  for (auto& t : telemetry_) {
    t->flightRecorder().takeTrace(t->tracer());
    t->metrics().reset();
    t->waitState().reset();
  }
}

}  // namespace hemo::comm
