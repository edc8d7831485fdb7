// The participant protocol of SimSubEngine's scan: pool helpers join a
// running scan, search ahead of the commit, and hand their results to an
// in-order commit. Whatever the participant count, results,
// trajectories_scanned and lb_skipped must equal the one-participant scan;
// a helper dequeued after its scan returned must touch nothing; an
// exception from any participant must reach the caller only after every
// joined participant has stopped; and a scan with no candidate must return.
// This file is part of the TSan CI job.
#include "engine/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "algo/exacts.h"
#include "algo/registry.h"
#include "data/generator.h"
#include "rl/trainer.h"
#include "similarity/dtw.h"
#include "similarity/registry.h"
#include "util/failpoint.h"
#include "util/thread_pool.h"

// Under AddressSanitizer, poison a returned stack frame so that a helper
// touching a finished scan's frame is reported (LateHelperTouchesNothing).
extern "C" __attribute__((used, visibility("default"))) const char*
__asan_default_options() {
  return "detect_stack_use_after_return=1";
}

namespace simsub::engine {
namespace {

std::vector<geo::Trajectory> Database() {
  data::Dataset d = data::GenerateDataset(data::DatasetKind::kPorto, 80, 2811);
  std::vector<geo::Trajectory> out;
  for (geo::Trajectory& t : d.trajectories) {
    if (t.size() > 40) {
      out.push_back(t.Slice(geo::SubRange(0, 39)));
      out.back().set_id(t.id());
    } else {
      out.push_back(std::move(t));
    }
  }
  return out;
}

rl::TrainedPolicy TinyPolicy(int skip_count) {
  similarity::DtwMeasure dtw;
  data::Dataset d = data::GenerateDataset(data::DatasetKind::kPorto, 10, 611);
  rl::RlsTrainOptions options;
  options.episodes = 5;
  options.env.skip_count = skip_count;
  options.seed = 612;
  rl::RlsTrainer trainer(&dtw, options);
  return trainer.Train(d.trajectories, d.trajectories);
}

void ExpectSameScan(const QueryReport& want, const QueryReport& got,
                    const std::string& label) {
  EXPECT_TRUE(got.status.ok()) << label << ": " << got.status.ToString();
  EXPECT_EQ(got.trajectories_scanned, want.trajectories_scanned) << label;
  EXPECT_EQ(got.lb_skipped, want.lb_skipped) << label;
  ASSERT_EQ(got.results.size(), want.results.size()) << label;
  for (size_t i = 0; i < want.results.size(); ++i) {
    EXPECT_EQ(got.results[i].trajectory_id, want.results[i].trajectory_id)
        << label << " #" << i;
    EXPECT_EQ(got.results[i].range, want.results[i].range)
        << label << " #" << i;
    EXPECT_EQ(got.results[i].distance, want.results[i].distance)
        << label << " #" << i;
  }
}

/// Evaluator acquisitions served by a caller's scratch. The caller's scratch
/// serves its own searches only, so a scan whose caller acquired a
/// different number than the one-participant scan's had a helper search
/// some candidate.
int64_t Acquired(const similarity::EvaluatorCache& scratch) {
  return scratch.reuse_count() + scratch.alloc_count();
}

/// Runs `scan` as a task on `pool`, so that its helpers queue there, and
/// returns its report or rethrows its exception.
QueryReport RunOn(util::ThreadPool& pool,
                  const std::function<QueryReport()>& scan) {
  QueryReport report;
  pool.Submit([&] { report = scan(); }).get();
  return report;
}

/// Runs `scan` on a thread of its own and waits at most 30 s for it, so
/// that a scan that never returns fails the test rather than hang the
/// suite. Null when it did not return.
std::optional<QueryReport> Within(std::function<QueryReport()> scan) {
  auto task =
      std::make_shared<std::packaged_task<QueryReport()>>(std::move(scan));
  std::future<QueryReport> done = task->get_future();
  std::thread([task] { (*task)(); }).detach();
  if (done.wait_for(std::chrono::seconds(30)) != std::future_status::ready) {
    return std::nullopt;
  }
  return done.get();
}

/// ExactS that sleeps in every search and tracks how many searches run at
/// once, so a test can see participants overlap and check that none is
/// still searching when the scan has returned.
class ObservedSearch : public algo::SubtrajectorySearch {
 public:
  explicit ObservedSearch(const similarity::SimilarityMeasure* measure)
      : exact_(measure) {}
  std::string name() const override { return "observed"; }
  const similarity::SimilarityMeasure* measure() const override {
    return exact_.measure();
  }
  int active() const { return active_.load(); }
  int most_active() const { return most_active_.load(); }

 protected:
  algo::SearchResult DoSearch(std::span<const geo::Point> data,
                              std::span<const geo::Point> query,
                              similarity::EvaluatorCache& scratch,
                              std::optional<double> bailout) const override {
    const int now = ++active_;
    for (int seen = most_active_.load();
         now > seen && !most_active_.compare_exchange_weak(seen, now);) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    algo::SearchResult r =
        bailout ? exact_.Search(data, query, &scratch, *bailout)
                : exact_.Search(data, query, &scratch);
    --active_;
    return r;
  }

 private:
  algo::ExactS exact_;
  mutable std::atomic<int> active_{0};
  mutable std::atomic<int> most_active_{0};
};

class EngineParticipantsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = Database();
    engine_.emplace(db_);
    query_ = db_[11].Slice(geo::SubRange(4, 15));
  }
  void TearDown() override {
    if (util::FailpointsCompiledIn()) util::ClearFailpoints();
  }

  QueryOptions Options(int k, bool prune, int threads) const {
    QueryOptions options;
    options.k = k;
    options.prune = prune;
    options.threads = threads;
    return options;
  }

  std::vector<geo::Trajectory> db_;
  std::optional<SimSubEngine> engine_;
  geo::Trajectory query_;
};

TEST_F(EngineParticipantsTest, EveryAlgorithmMatchesOneParticipant) {
  const rl::TrainedPolicy plain = TinyPolicy(/*skip_count=*/0);
  const rl::TrainedPolicy skip = TinyPolicy(/*skip_count=*/3);
  int helped = 0;
  for (const char* measure_name : {"dtw", "frechet"}) {
    auto measure = similarity::MakeMeasure(measure_name);
    ASSERT_TRUE(measure.ok());
    std::vector<std::string> names = algo::BuiltinSearchNames();
    names.push_back("topk-sub");
    for (const std::string& name : names) {
      std::unique_ptr<algo::SubtrajectorySearch> search;
      if (name != "topk-sub") {
        algo::SearchOptions so;
        so.rls_policy = name == "rls-skip" ? &skip : &plain;
        auto made = algo::MakeSearch(name, measure->get(), so);
        if (!made.ok()) {
          // Spring and UCR are DTW-only; nothing else may be refused.
          EXPECT_TRUE(name == "spring" || name == "ucr") << name;
          continue;
        }
        search = std::move(*made);
      }
      // Helpers queue on util::ThreadPool::Shared(): this thread is no
      // pool's worker.
      auto run = [&](QueryOptions options,
                     similarity::EvaluatorCache& scratch) {
        options.scratch = &scratch;
        return search != nullptr
                   ? engine_->Query(query_.View(), *search, options)
                   : engine_->QueryTopKSubtrajectories(
                         query_.View(), **measure, /*min_size=*/2, options);
      };
      for (bool prune : {true, false}) {
        for (int k : {1, 10}) {
          similarity::EvaluatorCache alone;
          const QueryReport want = run(Options(k, prune, 1), alone);
          ASSERT_TRUE(want.status.ok());
          for (int threads : {2, 3, 4}) {
            const std::string label =
                std::string(measure_name) + "/" + name + " prune=" +
                std::to_string(prune) + " k=" + std::to_string(k) +
                " threads=" + std::to_string(threads);
            similarity::EvaluatorCache caller;
            const QueryReport got = run(Options(k, prune, threads), caller);
            ExpectSameScan(want, got, label);
            if (Acquired(caller) != Acquired(alone)) ++helped;
          }
        }
      }
    }
  }
  // Helpers that never join would pass every comparison above.
  EXPECT_GT(helped, 0);
}

TEST_F(EngineParticipantsTest, HelpersTakePartAndOverlap) {
  // Every search sleeps, so the caller alone would take well over the time
  // an idle worker needs to pick a helper task up.
  similarity::DtwMeasure dtw;
  ObservedSearch observed(&dtw);
  util::ThreadPool pool(3);
  const QueryReport want = engine_->Query(query_.View(), observed,
                                          Options(5, /*prune=*/false, 1));
  EXPECT_EQ(observed.most_active(), 1);
  const QueryReport got = RunOn(pool, [&] {
    return engine_->Query(query_.View(), observed,
                          Options(5, /*prune=*/false, pool.size()));
  });
  ExpectSameScan(want, got, "observed");
  EXPECT_GE(observed.most_active(), 2);
  EXPECT_EQ(observed.active(), 0);
}

TEST_F(EngineParticipantsTest, LateHelperTouchesNothing) {
  similarity::DtwMeasure dtw;
  algo::ExactS exact(&dtw);
  const QueryReport want =
      engine_->Query(query_.View(), exact, Options(3, true, 1));

  // One worker is blocked and the other runs the scan, so the scan's helper
  // stays queued while the caller scans alone and returns; the worker then
  // dequeues the helper after the scan's frame is gone.
  util::ThreadPool pool(2);
  std::promise<void> started;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::future<void> blocker = pool.Submit([&started, released] {
    started.set_value();
    released.wait();
  });
  started.get_future().wait();

  int64_t queued_after_scan = -1;
  const QueryReport got = RunOn(pool, [&] {
    QueryReport report =
        engine_->Query(query_.View(), exact, Options(3, true, 2));
    queued_after_scan = pool.queued();
    // Reuse the returned scan's stack before the helper runs.
    ExpectSameScan(want,
                   engine_->Query(query_.View(), exact, Options(3, true, 1)),
                   "rerun");
    return report;
  });
  ExpectSameScan(want, got, "late helper");
  EXPECT_EQ(queued_after_scan, 1);

  release.set_value();
  blocker.get();
  pool.WaitAll();
  EXPECT_EQ(pool.queued(), 0);
}

TEST_F(EngineParticipantsTest, ExceptionArrivesAfterEveryParticipantStopped) {
  if (!util::FailpointsCompiledIn()) GTEST_SKIP() << "failpoints compiled out";
  similarity::DtwMeasure dtw;
  ObservedSearch observed(&dtw);
  util::ThreadPool pool(3);
  const QueryOptions options = Options(5, /*prune=*/false, pool.size());
  auto scan = [&] { return engine_->Query(query_.View(), observed, options); };
  const QueryReport want =
      engine_->Query(query_.View(), observed, Options(5, false, 1));
  for (int nth : {1, 2, 5, 9, 17}) {
    ASSERT_TRUE(util::SetFailpoint("engine.search",
                                   "throw@nth:" + std::to_string(nth))
                    .ok());
    EXPECT_THROW(RunOn(pool, scan), util::FailpointError) << "nth=" << nth;
    // Whichever participant threw, the others had finished their searches
    // before the exception left the scan.
    EXPECT_EQ(observed.active(), 0) << "nth=" << nth;
    util::ClearFailpoints();
    // The pool keeps serving.
    ExpectSameScan(want, RunOn(pool, scan),
                   "after nth=" + std::to_string(nth));
  }
  EXPECT_GE(observed.most_active(), 2);
}

TEST_F(EngineParticipantsTest, CancelAndDeadlineStopEveryParticipant) {
  similarity::DtwMeasure dtw;
  ObservedSearch observed(&dtw);
  util::ThreadPool pool(3);
  QueryOptions options = Options(5, /*prune=*/false, pool.size());
  auto scan = [&] { return engine_->Query(query_.View(), observed, options); };
  std::atomic<bool> cancel{true};
  options.cancel = &cancel;
  QueryReport cancelled = RunOn(pool, scan);
  EXPECT_EQ(cancelled.status.code(), util::StatusCode::kCancelled);
  EXPECT_EQ(cancelled.trajectories_scanned, 0);

  options.cancel = nullptr;
  options.deadline = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(5);
  QueryReport expired = RunOn(pool, scan);
  EXPECT_EQ(expired.status.code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_LT(expired.trajectories_scanned, static_cast<int64_t>(db_.size()));
  EXPECT_EQ(observed.active(), 0);
}

TEST_F(EngineParticipantsTest, ScansWithNoCandidateReturn) {
  // The query moved past the database's top-right corner: the R-tree finds
  // no intersecting box, and the grid clamps every point into the corner
  // cell, which no trajectory crosses.
  const geo::Mbr extent = engine_->corpus_stats().extent;
  std::vector<geo::Point> far;
  for (const geo::Point& p : query_.points()) {
    far.emplace_back(p.x + extent.max_x - extent.min_x + 1.0,
                     p.y + extent.max_y - extent.min_y + 1.0);
  }
  similarity::DtwMeasure dtw;
  algo::ExactS exact(&dtw);
  for (PruningFilter filter :
       {PruningFilter::kRTree, PruningFilter::kInvertedGrid}) {
    for (bool topk_sub : {false, true}) {
      for (int threads : {1, 3}) {
        const std::string label =
            std::string(PruningFilterName(filter)) +
            (topk_sub ? " topk-sub" : " exacts") +
            " threads=" + std::to_string(threads);
        QueryOptions options = Options(5, /*prune=*/true, threads);
        options.filter = filter;
        const std::optional<QueryReport> got = Within([&] {
          return topk_sub ? engine_->QueryTopKSubtrajectories(
                                far, dtw, /*min_size=*/2, options)
                          : engine_->Query(far, exact, options);
        });
        ASSERT_TRUE(got.has_value()) << label << ": the scan did not return";
        EXPECT_TRUE(got->status.ok()) << label;
        EXPECT_EQ(got->trajectories_pruned, static_cast<int64_t>(db_.size()))
            << label;
        EXPECT_EQ(got->trajectories_scanned, 0) << label;
        EXPECT_TRUE(got->results.empty()) << label;
      }
    }
  }

  // A database whose every trajectory is empty leaves no candidate either.
  std::vector<geo::Trajectory> empty;
  for (int64_t id = 0; id < 4; ++id) {
    empty.emplace_back(std::vector<geo::Point>{}, id);
  }
  const SimSubEngine hollow(std::move(empty));
  for (int threads : {1, 3}) {
    const std::optional<QueryReport> got = Within([&] {
      return hollow.Query(query_.View(), exact, Options(5, true, threads));
    });
    ASSERT_TRUE(got.has_value())
        << "empty trajectories threads=" << threads << ": no return";
    EXPECT_TRUE(got->status.ok());
    EXPECT_EQ(got->trajectories_scanned, 0);
    EXPECT_TRUE(got->results.empty());
  }
}

}  // namespace
}  // namespace simsub::engine
