#include "engine/engine.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <limits>
#include <memory>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "algo/exacts.h"
#include "algo/lower_bounds.h"
#include "data/snapshot.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace simsub::engine {

namespace {

// Max-heap under EntryBetter keeps the k best entries (worst on top).
struct WorseEntry {
  bool operator()(const TopKEntry& a, const TopKEntry& b) const {
    return EntryBetter(a, b);
  }
};
using TopKHeap =
    std::priority_queue<TopKEntry, std::vector<TopKEntry>, WorseEntry>;

void OfferEntry(TopKHeap& heap, int k, const TopKEntry& entry) {
  if (static_cast<int>(heap.size()) < k) {
    heap.push(entry);
  } else if (EntryBetter(entry, heap.top())) {
    heap.pop();
    heap.push(entry);
  }
}

std::vector<TopKEntry> ExtractAscending(TopKHeap& heap) {
  std::vector<TopKEntry> out(heap.size());
  for (size_t i = heap.size(); i-- > 0;) {
    out[i] = heap.top();
    heap.pop();
  }
  return out;
}

/// Window slots per participant: how far a participant may search ahead of
/// the oldest uncommitted candidate.
constexpr size_t kLookaheadPerParticipant = 8;

/// Cells per axis of the inverted grid over the database extent.
constexpr int kGridCells = 64;

/// Admission of pool helpers into one running scan. Heap-held and shared
/// with every helper task, so a helper that a busy pool dequeues after the
/// scan has returned finds the gate closed and touches nothing else.
class HelperGate {
 public:
  /// Counts a helper task about to be submitted.
  void Queue() { queued_.fetch_add(1, std::memory_order_relaxed); }
  /// Helper tasks submitted and not yet dequeued.
  int queued() const { return queued_.load(std::memory_order_relaxed); }

  /// Called by a dequeued helper: joins and returns true while the scan is
  /// open.
  bool Enter() SIMSUB_EXCLUDES(mu_) {
    queued_.fetch_sub(1, std::memory_order_relaxed);
    util::MutexLock lock(mu_);
    if (!open_) return false;
    ++joined_;
    return true;
  }
  void Leave() SIMSUB_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    if (--joined_ == 0) left_.notify_all();
  }
  /// Refuses every later helper and waits until the joined ones have left.
  void CloseAndWait() SIMSUB_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    open_ = false;
    while (joined_ > 0) left_.wait(mu_);
  }

 private:
  std::atomic<int> queued_{0};
  util::Mutex mu_;
  std::condition_variable_any left_;
  bool open_ SIMSUB_GUARDED_BY(mu_) = true;
  int joined_ SIMSUB_GUARDED_BY(mu_) = 0;
};

/// The participants' shared state of one scan: a cursor handing out the
/// visit order, and an in-order commit of the searched candidates. The
/// commit applies the best-first stop (the next bound above the committed
/// best-kth distance) and the top-k offers exactly as one thread does, so
/// the results and every counter but dp_abandoned are independent of who
/// searched what.
///
/// The committed heap is written only by whoever holds the commit head: the
/// participant that took the candidate next to commit (it searches straight
/// into the heap), or a participant committing finished candidates under
/// `mu_`. The two never overlap, since a finished candidate waits in its
/// window slot until the head is committed. A slot's heap is written by the
/// participant that took its candidate until it marks the slot ready.
class ScanCursor {
 public:
  /// One participant's state and its current candidate.
  struct Participant {
    bool helper = false;
    size_t index = 0;          // position of the candidate in visit order
    double threshold = 0.0;    // committed best-kth distance when taken
    TopKHeap* heap = nullptr;  // the committed heap or the candidate's slot
    bool at_head = false;      // `heap` is the committed heap
  };

  /// `window` slots bound the search-ahead; 0 allows only the head (one
  /// participant). An empty `order` is finished from the start.
  ScanCursor(std::span<const std::pair<double, int64_t>> order, int k,
             bool prune, size_t window)
      : order_(order), k_(k), prune_(prune), window_(window),
        end_(order.size()), finished_(order.empty()) {}

  /// Takes the next candidate in visit order. Returns false when `p` should
  /// leave: the scan is over, or `p` is a helper and `yield` is set, the
  /// window is full or nothing is left to take. The caller instead waits
  /// for the head to move.
  bool Take(Participant& p, bool yield) SIMSUB_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    for (;;) {
      if (finished_ || (p.helper && yield)) return false;
      const size_t i = next_;
      if (i < end_ && (i == committed_ || i - committed_ < window_.size())) {
        if (order_[i].first > threshold_) {
          // The threshold only falls, so the scan stops at i or before it.
          end_ = i;
          AdvanceLocked();
          continue;
        }
        ++next_;
        p.index = i;
        p.threshold = threshold_;
        p.at_head = i == committed_;
        p.heap = p.at_head ? &heap_ : &window_[i % window_.size()].heap;
        return true;
      }
      if (p.helper) return false;
      advanced_.wait(mu_);
    }
  }

  /// Hands in `p`'s searched candidate and commits every finished one at
  /// the head.
  void Publish(const Participant& p, int64_t abandoned) SIMSUB_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    if (p.at_head) {
      CommitLocked(abandoned);
    } else {
      Slot& slot = window_[p.index % window_.size()];
      slot.abandoned = abandoned;
      slot.ready = true;
    }
    AdvanceLocked();
  }

  /// Ends the scan early (cancellation, deadline, or `error` when set):
  /// nothing more is taken and the committed heap is kept.
  void Abort(std::exception_ptr error) SIMSUB_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    if (error_ == nullptr) error_ = std::move(error);
    finished_ = true;
    advanced_.notify_all();
  }

  /// Fills the report once every participant has left; rethrows the first
  /// participant's exception.
  void Finish(QueryReport* report) SIMSUB_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    if (error_ != nullptr) std::rethrow_exception(error_);
    report->trajectories_scanned = scanned_;
    report->lb_skipped = lb_skipped_;
    report->dp_abandoned = dp_abandoned_;
    report->results = ExtractAscending(heap_);
  }

 private:
  struct Slot {
    TopKHeap heap;
    int64_t abandoned = 0;
    bool ready = false;
  };

  /// Counts the head candidate, whose entries are in heap_, as searched.
  void CommitLocked(int64_t abandoned) SIMSUB_REQUIRES(mu_) {
    ++scanned_;
    dp_abandoned_ += abandoned;
    if (prune_ && static_cast<int>(heap_.size()) == k_) {
      threshold_ = heap_.top().distance;
    }
    ++committed_;
  }

  /// Commits the finished candidates at the head in visit order, applying
  /// the best-first stop to each, and finishes the scan once the head
  /// reaches end_: a stop counts every candidate from there on as scanned
  /// and skipped, so a completed scan scans every non-empty candidate.
  void AdvanceLocked() SIMSUB_REQUIRES(mu_) {
    while (!finished_ && committed_ < end_ && !window_.empty()) {
      Slot& slot = window_[committed_ % window_.size()];
      if (!slot.ready) break;
      slot.ready = false;
      if (order_[committed_].first > threshold_) {
        end_ = committed_;
        break;
      }
      for (; !slot.heap.empty(); slot.heap.pop()) {
        OfferEntry(heap_, k_, slot.heap.top());
      }
      CommitLocked(slot.abandoned);
    }
    if (!finished_ && committed_ == end_) {
      const auto rest = static_cast<int64_t>(order_.size() - end_);
      scanned_ += rest;
      lb_skipped_ += rest;
      finished_ = true;
    }
    advanced_.notify_all();
  }

  const std::span<const std::pair<double, int64_t>> order_;
  const int k_;
  const bool prune_;
  TopKHeap heap_;              // see the class comment
  std::vector<Slot> window_;   // candidate i in slot i % size()

  util::Mutex mu_;
  std::condition_variable_any advanced_;  // head moved or scan finished
  size_t next_ SIMSUB_GUARDED_BY(mu_) = 0;       // next index to take
  size_t committed_ SIMSUB_GUARDED_BY(mu_) = 0;  // the head
  size_t end_ SIMSUB_GUARDED_BY(mu_);            // nothing at or past it is taken
  double threshold_ SIMSUB_GUARDED_BY(mu_) =
      std::numeric_limits<double>::infinity();
  bool finished_ SIMSUB_GUARDED_BY(mu_);
  int64_t scanned_ SIMSUB_GUARDED_BY(mu_) = 0;
  int64_t lb_skipped_ SIMSUB_GUARDED_BY(mu_) = 0;
  int64_t dp_abandoned_ SIMSUB_GUARDED_BY(mu_) = 0;
  std::exception_ptr error_ SIMSUB_GUARDED_BY(mu_);
};

}  // namespace

const char* PruningFilterName(PruningFilter filter) {
  switch (filter) {
    case PruningFilter::kNone:
      return "none";
    case PruningFilter::kRTree:
      return "rtree";
    case PruningFilter::kInvertedGrid:
      return "grid";
  }
  return "?";
}

bool EntryBetter(const TopKEntry& a, const TopKEntry& b) {
  if (a.distance != b.distance) return a.distance < b.distance;
  if (a.trajectory_id != b.trajectory_id) {
    return a.trajectory_id < b.trajectory_id;
  }
  if (a.range.start != b.range.start) return a.range.start < b.range.start;
  return a.range.end < b.range.end;
}

SimSubEngine::SimSubEngine(std::vector<geo::Trajectory> database)
    : database_(std::move(database)) {
  SIMSUB_CHECK(!database_.empty());
  mbrs_.reserve(database_.size());
  for (const auto& t : database_) {
    mbrs_.push_back(geo::ComputeMbr(t.View()));
  }
  corpus_stats_ = geo::ComputeCorpusStats(mbrs_);
}

SimSubEngine::SimSubEngine(const data::CorpusSnapshot& snapshot)
    : database_(snapshot.MaterializeTrajectories()),
      mbrs_(snapshot.mbrs()),
      corpus_stats_(snapshot.stats()),
      store_(snapshot.store()) {
  SIMSUB_CHECK(!database_.empty());
}

const geo::PointsStore& SimSubEngine::Soa() const {
  if (store_ != nullptr) return *store_;
  return derived_->soa.Get(
      [&] { return geo::PointsStore::FromTrajectories(database_); });
}

int64_t SimSubEngine::TotalPoints() const {
  int64_t total = 0;
  for (const auto& t : database_) total += t.size();
  return total;
}

std::vector<int64_t> SimSubEngine::CandidateOrdinals(
    std::span<const geo::Point> query, PruningFilter filter) const {
  switch (filter) {
    case PruningFilter::kRTree: {
      const index::RTree& rtree = derived_->rtree.Get([&] {
        std::vector<index::RTreeEntry> entries;
        entries.reserve(mbrs_.size());
        for (size_t i = 0; i < mbrs_.size(); ++i) {
          entries.push_back({mbrs_[i], static_cast<int64_t>(i)});
        }
        return index::RTree::BulkLoad(std::move(entries));
      });
      std::vector<int64_t> out = rtree.QueryIntersects(geo::ComputeMbr(query));
      std::sort(out.begin(), out.end());
      return out;
    }
    case PruningFilter::kInvertedGrid: {
      // The extent comes from the construction-time statistics (persisted
      // ones when the engine sits on a snapshot).
      const index::InvertedGridIndex& grid = derived_->grid.Get([&] {
        return index::InvertedGridIndex::Build(database_, corpus_stats_.extent,
                                               kGridCells, kGridCells);
      });
      return grid.QueryCandidates(query);
    }
    case PruningFilter::kNone:
      break;
  }
  std::vector<int64_t> all(database_.size());
  for (size_t i = 0; i < database_.size(); ++i) {
    all[i] = static_cast<int64_t>(i);
  }
  return all;
}

template <typename Step>
QueryReport SimSubEngine::Scan(std::span<const geo::Point> query,
                               const similarity::SimilarityMeasure* measure,
                               const QueryOptions& options,
                               const Step& step) const {
  SIMSUB_CHECK(!query.empty());
  SIMSUB_CHECK_GT(options.k, 0);
  SIMSUB_CHECK_GE(options.threads, 1);
  util::Stopwatch timer;
  QueryReport report;
  report.filter_used = options.filter;

  std::vector<int64_t> candidates = CandidateOrdinals(query, options.filter);
  report.trajectories_pruned = static_cast<int64_t>(database_.size()) -
                               static_cast<int64_t>(candidates.size());

  constexpr double kInf = std::numeric_limits<double>::infinity();
  const similarity::DistanceAggregation agg =
      options.prune && measure != nullptr
          ? measure->aggregation()
          : similarity::DistanceAggregation::kOther;
  const bool best_first = agg != similarity::DistanceAggregation::kOther;

  // Visit order, one (lower bound, ordinal) per non-empty candidate. Best-
  // first sorts by the nearest-endpoint bound, which bounds dist(sub, query)
  // for every subtrajectory, so the scan can stop at its first bound above
  // the kth best (Seidl & Kriegel's optimal multi-step k-NN). Other scans
  // keep ordinal order; their bound of -inf never stops them.
  std::vector<std::pair<double, int64_t>> order;
  order.reserve(candidates.size());
  const geo::PointsStore* soa = best_first ? &Soa() : nullptr;
  for (int64_t ordinal : candidates) {
    const auto i = static_cast<size_t>(ordinal);
    if (database_[i].empty()) continue;
    double bound = -kInf;
    if (soa != nullptr) {
      bound = algo::NearestEndpointLowerBound(agg, soa->TrajectoryView(i),
                                              query);
      // A NaN coordinate gives no bound; 0 keeps the sort order strict.
      if (!(bound >= 0.0)) bound = 0.0;
    }
    order.emplace_back(bound, ordinal);
  }
  if (best_first) std::sort(order.begin(), order.end());

  const size_t cap = std::min(static_cast<size_t>(options.threads),
                              order.size());
  const size_t helpers = cap > 1 ? cap - 1 : 0;
  ScanCursor cursor(order, options.k, options.prune,
                    helpers == 0 ? 0 : kLookaheadPerParticipant * cap);
  // Deadline bookkeeping: `expired` is set by whichever participant first
  // observes the clock past options.deadline. The clock is only read when
  // a deadline was actually set — a steady_clock::now() per candidate is
  // cheap next to a DP, but not free on deadline-less bulk scans.
  const bool has_deadline =
      options.deadline != std::chrono::steady_clock::time_point::max();
  std::atomic<bool> expired{false};
  auto interrupted = [&] {
    if (options.cancel != nullptr &&
        options.cancel->load(std::memory_order_relaxed)) {
      return true;
    }
    if (has_deadline && (expired.load(std::memory_order_relaxed) ||
                         std::chrono::steady_clock::now() >= options.deadline)) {
      expired.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  };

  // Helpers queue on the pool the caller works for, else the shared one.
  util::ThreadPool* pool = nullptr;
  std::shared_ptr<HelperGate> gate;
  if (helpers > 0) {
    pool = util::ThreadPool::Current();
    if (pool == nullptr) pool = &util::ThreadPool::Shared();
    gate = std::make_shared<HelperGate>();
  }

  // One participant: take candidates until the scan is over. Cancellation
  // and the deadline are checked before every candidate (a relaxed load is
  // noise next to even one DP row), which is what lets the serving layer's
  // load shedding bound work under overload. A helper also leaves when the
  // pool has tasks queued besides this scan's own helpers. `on_first_take`
  // runs once the participant holds its first candidate. Never throws: a
  // participant's exception ends the scan and is rethrown by Finish.
  auto participate = [&](bool helper, const auto& on_first_take) {
    try {
      similarity::EvaluatorCache own_scratch;
      similarity::EvaluatorCache& scratch =
          !helper && options.scratch != nullptr ? *options.scratch
                                                : own_scratch;
      ScanCursor::Participant self{helper};
      for (bool first = true;; first = false) {
        if (interrupted()) {
          cursor.Abort(nullptr);
          break;
        }
        const bool yield = helper && pool->queued() > gate->queued();
        if (!cursor.Take(self, yield)) break;
        if (first) on_first_take();
#if SIMSUB_FAILPOINTS_COMPILED
        // "engine.search": fault injection per searched candidate (`throw`
        // fails this participant's search, `delay:<ms>` slows it).
        (void)util::FailpointFire("engine.search");
#endif
        const int64_t ordinal = order[self.index].second;
        cursor.Publish(self, step(database_[static_cast<size_t>(ordinal)],
                                  self.threshold, scratch, *self.heap));
      }
    } catch (...) {
      cursor.Abort(std::current_exception());
    }
  };

  {
    // However this block is left, later helpers are refused and the joined
    // ones finish before the frame they point into is unwound.
    struct CloseOnExit {
      HelperGate* gate;
      ~CloseOnExit() {
        if (gate != nullptr) gate->CloseAndWait();
      }
    } close_on_exit{gate.get()};
    // The caller holds the first candidate before it queues the helpers, so
    // the request's own thread always searches and a scan that ends before
    // its first candidate wakes no helper.
    participate(false, [&] {
      for (size_t h = 0; h < helpers; ++h) {
        gate->Queue();
        (void)pool->Submit([gate, run = &participate] {
          if (!gate->Enter()) return;  // the scan is over: touch nothing else
          (*run)(true, [] {});
          gate->Leave();
        });
      }
    });
  }
  cursor.Finish(&report);

  if (options.cancel != nullptr &&
      options.cancel->load(std::memory_order_relaxed)) {
    report.status = util::Status::Cancelled("query cancelled mid-scan");
  } else if (expired.load(std::memory_order_relaxed)) {
    report.status = util::Status::DeadlineExceeded(
        "deadline expired mid-scan (partial results)");
  }
  report.seconds = timer.ElapsedSeconds();
  return report;
}

QueryReport SimSubEngine::Query(std::span<const geo::Point> query,
                                const algo::SubtrajectorySearch& search,
                                const QueryOptions& options) const {
  return Scan(query, search.measure(), options,
              [&](const geo::Trajectory& traj, double threshold,
                  similarity::EvaluatorCache& scratch, TopKHeap& heap) {
                algo::SearchResult r =
                    options.prune
                        ? search.Search(traj.View(), query, &scratch, threshold)
                        : search.Search(traj.View(), query, &scratch);
                OfferEntry(heap, options.k,
                           TopKEntry{traj.id(), r.best, r.distance});
                return r.stats.abandoned;
              });
}

std::vector<QueryReport> SimSubEngine::QueryBatch(
    std::span<const BatchedQueryView> queries,
    const algo::SubtrajectorySearch& search,
    const BatchQueryOptions& options) const {
  QueryOptions qo;
  qo.threads = options.threads;
  qo.scratch = options.scratch;
  qo.prune = options.prune;
  std::vector<QueryReport> reports;
  reports.reserve(queries.size());
  for (const BatchedQueryView& view : queries) {
    qo.k = view.k;
    qo.filter = view.filter;
    qo.cancel = view.cancel;
    qo.deadline = view.deadline;
    reports.push_back(Query(view.points, search, qo));
  }
  return reports;
}

QueryReport SimSubEngine::QueryTopKSubtrajectories(
    std::span<const geo::Point> query,
    const similarity::SimilarityMeasure& measure, int min_size,
    const QueryOptions& options) const {
  SIMSUB_CHECK_GE(min_size, 1);
  return Scan(query, &measure, options,
              [&](const geo::Trajectory& traj, double threshold,
                  similarity::EvaluatorCache& scratch, TopKHeap& heap) {
                similarity::PrefixEvaluator& eval =
                    *scratch.Acquire(measure, query);
                // Every range goes straight into the given heap, whose kth
                // distance (below the threshold once full) is the cut-off.
                algo::SearchStats stats;
                algo::ScanWindows(
                    eval, traj.View(), min_size, traj.size(),
                    options.prune ? std::optional(threshold) : std::nullopt,
                    stats, [&](geo::SubRange range, double d) {
                      OfferEntry(heap, options.k,
                                 TopKEntry{traj.id(), range, d});
                      return static_cast<int>(heap.size()) == options.k
                                 ? heap.top().distance
                                 : std::numeric_limits<double>::infinity();
                    });
                return stats.abandoned;
              });
}

}  // namespace simsub::engine
