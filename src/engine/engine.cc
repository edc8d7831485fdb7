#include "engine/engine.h"

#include <algorithm>
#include <atomic>
#include <future>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include "algo/lower_bounds.h"
#include "data/snapshot.h"
#include "util/logging.h"
#include "util/stopwatch.h"
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
    : database_(std::move(database)), soa_(std::make_unique<SoaCache>()) {
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
      store_(snapshot.store()),
      soa_(std::make_unique<SoaCache>()) {
  SIMSUB_CHECK(!database_.empty());
}

const geo::PointsStore& SimSubEngine::EnsureSoa() const {
  if (store_ != nullptr) return *store_;
  if (!soa_->ready.load(std::memory_order_acquire)) {
    util::MutexLock lock(soa_->mu);
    if (!soa_->ready.load(std::memory_order_relaxed)) {
      soa_->store = geo::PointsStore::FromTrajectories(database_);
      soa_->ready.store(true, std::memory_order_release);
    }
  }
  return soa_->published();
}

int64_t SimSubEngine::TotalPoints() const {
  int64_t total = 0;
  for (const auto& t : database_) total += t.size();
  return total;
}

void SimSubEngine::BuildIndex() {
  if (index_.has_value()) return;
  std::vector<index::RTreeEntry> entries;
  entries.reserve(database_.size());
  for (size_t i = 0; i < database_.size(); ++i) {
    entries.push_back(index::RTreeEntry{mbrs_[i], static_cast<int64_t>(i)});
  }
  index_ = index::RTree::BulkLoad(std::move(entries));
}

void SimSubEngine::BuildInvertedIndex(int cols, int rows) {
  if (inverted_.has_value()) return;
  // The corpus extent hydrates from construction-time statistics — persisted
  // envelope stats when the engine sits on a snapshot — instead of being
  // re-folded from the MBR cache here.
  inverted_ = index::InvertedGridIndex::Build(database_, corpus_stats_.extent,
                                              cols, rows);
}

std::vector<int64_t> SimSubEngine::CandidateOrdinals(
    std::span<const geo::Point> query, PruningFilter filter) const {
  switch (filter) {
    case PruningFilter::kRTree: {
      SIMSUB_CHECK(index_.has_value()) << "BuildIndex() before R-tree query";
      std::vector<int64_t> out =
          index_->QueryIntersects(geo::ComputeMbr(query));
      std::sort(out.begin(), out.end());
      return out;
    }
    case PruningFilter::kInvertedGrid: {
      SIMSUB_CHECK(inverted_.has_value())
          << "BuildInvertedIndex() before grid query";
      return inverted_->QueryCandidates(query);
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

QueryReport SimSubEngine::Query(std::span<const geo::Point> query,
                                const algo::SubtrajectorySearch& search,
                                const QueryOptions& options) const {
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
  // Deadline bookkeeping: `expired` is set by whichever partition first
  // observes the clock past options.deadline; every partition then stops at
  // its next per-trajectory check. The clock is only read when a deadline
  // was actually set — a steady_clock::now() per candidate is cheap next to
  // a DP, but not free on deadline-less bulk scans.
  const bool has_deadline =
      options.deadline != std::chrono::steady_clock::time_point::max();
  std::atomic<bool> expired{false};
  // Best-kth-distance bound shared across scan partitions: monotonically
  // tightened (CAS-min) by any worker whose local heap fills. Any candidate
  // whose distance provably exceeds it is strictly worse than k already-
  // found entries and can never enter the merged top-k — not even through
  // the (distance, id, range) tie-break, which requires distance equality.
  std::atomic<double> shared_bound{kInf};
  const similarity::SimilarityMeasure* measure =
      options.prune ? search.measure() : nullptr;
  const similarity::DistanceAggregation agg =
      measure != nullptr ? measure->aggregation()
                         : similarity::DistanceAggregation::kOther;
  const bool best_first = agg != similarity::DistanceAggregation::kOther;

  // Visit order, one (lower bound, ordinal) per non-empty candidate. Best-
  // first sorts by the nearest-endpoint bound, which bounds dist(sub, query)
  // for every subtrajectory, so a partition can stop at its first bound
  // above the kth best (Seidl & Kriegel's optimal multi-step k-NN). Other
  // scans keep ordinal order; their bound of -inf never stops them.
  std::vector<std::pair<double, int64_t>> order;
  order.reserve(candidates.size());
  for (int64_t ordinal : candidates) {
    if (database_[static_cast<size_t>(ordinal)].empty()) continue;
    double bound = -kInf;
    if (best_first) {
      bound = algo::NearestEndpointLowerBound(agg, TrajectorySoa(ordinal),
                                              query);
      // A NaN coordinate gives no bound; 0 keeps the sort order strict.
      if (!(bound >= 0.0)) bound = 0.0;
    }
    order.emplace_back(bound, ordinal);
  }
  if (best_first) std::sort(order.begin(), order.end());

  // One scan partition: order[first], order[first + stride], ...
  auto scan = [&](size_t first, size_t stride, TopKHeap& heap,
                  int64_t& scanned, int64_t& lb_skipped,
                  int64_t& dp_abandoned, similarity::EvaluatorCache* scratch) {
    for (size_t i = first; i < order.size(); i += stride) {
      // Cooperative cancellation between per-trajectory searches: a relaxed
      // load per candidate is noise next to even one DP row.
      if (options.cancel != nullptr &&
          options.cancel->load(std::memory_order_relaxed)) {
        return;
      }
      // Execution-time deadline enforcement, same cadence as cancellation:
      // an expired query stops mid-scan instead of running to completion,
      // which is what lets the serving layer's load shedding actually bound
      // work under overload.
      if (has_deadline &&
          (expired.load(std::memory_order_relaxed) ||
           std::chrono::steady_clock::now() >= options.deadline)) {
        expired.store(true, std::memory_order_relaxed);
        return;
      }
      const auto [bound, ordinal] = order[i];

      double threshold = kInf;
      if (options.prune) {
        if (static_cast<int>(heap.size()) == options.k) {
          threshold = heap.top().distance;
        }
        threshold =
            std::min(threshold, shared_bound.load(std::memory_order_relaxed));
      }

      // Best-first stop: the rest of this partition has bounds at least this
      // one, and the threshold only falls, so a strict excess here rules
      // them all out. They count as scanned and skipped, so a completed
      // query scans every non-empty candidate at any thread count.
      if (bound > threshold) {
        const auto rest =
            static_cast<int64_t>((order.size() - i + stride - 1) / stride);
        scanned += rest;
        lb_skipped += rest;
        return;
      }
      ++scanned;

      const geo::Trajectory& traj = database_[static_cast<size_t>(ordinal)];
      algo::SearchResult r =
          options.prune ? search.Search(traj.View(), query, scratch, threshold)
                        : search.Search(traj.View(), query, scratch);
      dp_abandoned += r.stats.abandoned;
      OfferEntry(heap, options.k, TopKEntry{traj.id(), r.best, r.distance});

      if (options.prune && static_cast<int>(heap.size()) == options.k) {
        double kth = heap.top().distance;
        double cur = shared_bound.load(std::memory_order_relaxed);
        while (kth < cur && !shared_bound.compare_exchange_weak(
                                cur, kth, std::memory_order_relaxed)) {
        }
      }
    }
  };

  util::ThreadPool& pool = util::ThreadPool::Shared();
  // Run inline when parallelism cannot pay off — and always when already on
  // a worker of the target pool, where blocking on our own futures could
  // deadlock (every worker waiting on tasks stuck behind it in the queue).
  bool sequential = options.threads <= 1 ||
                    order.size() < 2 * static_cast<size_t>(options.threads) ||
                    pool.OnWorkerThread();

  TopKHeap heap;
  if (sequential) {
    similarity::EvaluatorCache local_scratch;
    similarity::EvaluatorCache* scratch =
        options.scratch != nullptr ? options.scratch : &local_scratch;
    scan(0, 1, heap, report.trajectories_scanned, report.lb_skipped,
         report.dp_abandoned, scratch);
  } else {
    // One task per requested thread, each taking every workers-th entry of
    // the visit order, so every partition starts on low-bound candidates.
    // Each task keeps a local top-k heap and evaluator scratch, merged
    // after the futures resolve. The per-trajectory search objects must be
    // thread-compatible — all algorithms except Random-S are (they share no
    // mutable state). The deterministic EntryBetter order makes the merged
    // top-k independent of the partitioning.
    size_t workers = static_cast<size_t>(options.threads);
    std::vector<TopKHeap> heaps(workers);
    std::vector<int64_t> scanned(workers, 0);
    std::vector<int64_t> lb_skipped(workers, 0);
    std::vector<int64_t> dp_abandoned(workers, 0);
    std::vector<std::future<void>> futures;
    for (size_t w = 0; w < workers; ++w) {
      futures.push_back(pool.Submit([&, w] {
        similarity::EvaluatorCache worker_scratch;
        scan(w, workers, heaps[w], scanned[w], lb_skipped[w],
             dp_abandoned[w], &worker_scratch);
      }));
    }
    // Drain every future before propagating any failure: rethrowing while
    // sibling tasks still run would unwind the stack frame their captured
    // references (heaps, scanned, order) point into.
    std::exception_ptr first_error;
    for (auto& f : futures) {
      try {
        f.get();
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
    for (size_t w = 0; w < workers; ++w) {
      report.trajectories_scanned += scanned[w];
      report.lb_skipped += lb_skipped[w];
      report.dp_abandoned += dp_abandoned[w];
      while (!heaps[w].empty()) {
        OfferEntry(heap, options.k, heaps[w].top());
        heaps[w].pop();
      }
    }
  }

  report.results = ExtractAscending(heap);
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
    const similarity::SimilarityMeasure& measure, int k, PruningFilter filter,
    int min_size, const std::atomic<bool>* cancel,
    std::chrono::steady_clock::time_point deadline) const {
  SIMSUB_CHECK(!query.empty());
  SIMSUB_CHECK_GT(k, 0);
  util::Stopwatch timer;
  QueryReport report;
  report.filter_used = filter;
  std::vector<int64_t> candidates = CandidateOrdinals(query, filter);
  report.trajectories_pruned = static_cast<int64_t>(database_.size()) -
                               static_cast<int64_t>(candidates.size());
  const bool has_deadline =
      deadline != std::chrono::steady_clock::time_point::max();
  TopKHeap heap;
  for (int64_t ordinal : candidates) {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      report.status = util::Status::Cancelled("query cancelled mid-scan");
      break;
    }
    if (has_deadline && std::chrono::steady_clock::now() >= deadline) {
      report.status = util::Status::DeadlineExceeded(
          "deadline expired mid-scan (partial results)");
      break;
    }
    const geo::Trajectory& traj = database_[static_cast<size_t>(ordinal)];
    if (traj.empty()) continue;
    ++report.trajectories_scanned;
    // Per-trajectory cap of k suffices: at most k global winners can come
    // from one trajectory.
    for (const algo::RankedCandidate& cand :
         algo::TopKExact(measure, traj.View(), query, k, min_size)) {
      OfferEntry(heap, k, TopKEntry{traj.id(), cand.range, cand.distance});
    }
  }
  report.results = ExtractAscending(heap);
  report.seconds = timer.ElapsedSeconds();
  return report;
}

}  // namespace simsub::engine
