// Cross-algorithm invariant suite: for randomized databases and queries and
// every registered similarity measure, the approximate SimSub algorithms
// (SizeS, PSS, RLS, UCR, Spring) can never beat ExactS's optimum, the two
// exact engine paths agree, and engine results do not depend on the scan
// thread count.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "algo/exacts.h"
#include "algo/rls.h"
#include "algo/sizes.h"
#include "algo/splitting.h"
#include "algo/spring.h"
#include "algo/ucr.h"
#include "data/dataset.h"
#include "data/generator.h"
#include "engine/engine.h"
#include "rl/trainer.h"
#include "similarity/dtw.h"
#include "similarity/registry.h"
#include "util/random.h"

namespace simsub {
namespace {

constexpr double kTol = 1e-9;

// Small randomized database: Porto-like trajectories truncated so the
// all-measure sweep stays fast.
std::vector<geo::Trajectory> MakeDatabase(uint64_t seed, int count,
                                          int max_points) {
  data::Dataset d = data::GenerateDataset(data::DatasetKind::kPorto, count,
                                          seed);
  std::vector<geo::Trajectory> out;
  for (auto& t : d.trajectories) {
    if (t.size() > max_points) {
      out.push_back(t.Slice(geo::SubRange(0, max_points - 1)));
      out.back().set_id(t.id());
    } else {
      out.push_back(std::move(t));
    }
  }
  return out;
}

// Random query slice of `points` points taken from one of the trajectories.
geo::Trajectory MakeQuery(const std::vector<geo::Trajectory>& db,
                          util::Rng& rng, int points) {
  const auto& src = db[static_cast<size_t>(
      rng.UniformInt(0, static_cast<int>(db.size()) - 1))];
  int start = static_cast<int>(rng.UniformInt(0, src.size() - points));
  return src.Slice(geo::SubRange(start, start + points - 1));
}

// True distance of the returned range (approximate algorithms may report a
// simplified estimate; the invariant is about the answer they return).
double Rescore(const similarity::SimilarityMeasure& measure,
               const geo::Trajectory& traj, const geo::Trajectory& query,
               const algo::SearchResult& r) {
  return measure.Distance(traj.View(r.best), query.View());
}

TEST(AlgoInvariantsTest, ApproximateAlgorithmsNeverBeatExactS) {
  for (uint64_t seed : {51u, 52u}) {
    std::vector<geo::Trajectory> db = MakeDatabase(seed, 10, 26);
    util::Rng rng(seed * 977);
    geo::Trajectory query = MakeQuery(db, rng, 10);

    for (const std::string& name : similarity::BuiltinMeasureNames()) {
      auto measure = similarity::MakeMeasure(name);
      ASSERT_TRUE(measure.ok()) << name;
      algo::ExactS exact(measure->get());

      std::vector<std::unique_ptr<algo::SubtrajectorySearch>> approx;
      approx.push_back(std::make_unique<algo::SizeS>(measure->get(), 5));
      approx.push_back(std::make_unique<algo::PssSearch>(measure->get()));
      approx.push_back(std::make_unique<algo::PosSearch>(measure->get()));
      approx.push_back(std::make_unique<algo::PosDSearch>(measure->get(), 5));
      if (name == "dtw") {
        // UCR and Spring are hard-wired to DTW (paper Appendix C / Sec 2).
        approx.push_back(std::make_unique<algo::UcrSearch>(1.0));
        approx.push_back(std::make_unique<algo::SpringSearch>(1.0));
      }

      for (const auto& traj : db) {
        algo::SearchResult best = exact.Search(traj, query);
        for (const auto& algo : approx) {
          algo::SearchResult r = algo->Search(traj, query);
          double true_distance = Rescore(*measure->get(), traj, query, r);
          EXPECT_GE(true_distance, best.distance - kTol)
              << algo->name() << "/" << name << " beat ExactS on trajectory "
              << traj.id();
          if (r.distance_exact) {
            EXPECT_GE(r.distance, best.distance - kTol)
                << algo->name() << "/" << name << " reported distance below "
                << "the optimum on trajectory " << traj.id();
          }
        }
      }
    }
  }
}

TEST(AlgoInvariantsTest, RlsPolicyNeverBeatsExactS) {
  std::vector<geo::Trajectory> db = MakeDatabase(61, 8, 24);
  util::Rng rng(6100);
  geo::Trajectory query = MakeQuery(db, rng, 10);
  similarity::DtwMeasure dtw;

  rl::RlsTrainOptions options;
  options.episodes = 120;  // quality is irrelevant to the bound
  options.seed = 61;
  rl::RlsTrainer trainer(&dtw, options);
  rl::TrainedPolicy policy = trainer.Train(db, db);
  algo::RlsSearch rls(&dtw, policy);

  algo::ExactS exact(&dtw);
  for (const auto& traj : db) {
    algo::SearchResult best = exact.Search(traj, query);
    algo::SearchResult r = rls.Search(traj, query);
    double true_distance = Rescore(dtw, traj, query, r);
    EXPECT_GE(true_distance, best.distance - kTol)
        << "RLS beat ExactS on trajectory " << traj.id();
  }
}

TEST(AlgoInvariantsTest, ExactSAgreesWithTopKSubtrajectoriesTop1) {
  for (uint64_t seed : {71u, 72u}) {
    std::vector<geo::Trajectory> db = MakeDatabase(seed, 10, 26);
    util::Rng rng(seed * 31);
    geo::Trajectory query = MakeQuery(db, rng, 9);

    for (const std::string& name : similarity::BuiltinMeasureNames()) {
      auto measure = similarity::MakeMeasure(name);
      ASSERT_TRUE(measure.ok()) << name;
      engine::SimSubEngine engine(db);
      algo::ExactS exact(measure->get());

      engine::QueryOptions top1;
      top1.k = 1;
      engine::QueryReport trajectory_level =
          engine.Query(query.View(), exact, top1);
      engine::QueryReport subtrajectory_level =
          engine.QueryTopKSubtrajectories(query.View(), *measure->get(), 1,
                                          top1);

      ASSERT_EQ(trajectory_level.results.size(), 1u) << name;
      ASSERT_EQ(subtrajectory_level.results.size(), 1u) << name;
      // Both enumerate every subtrajectory with the same incremental
      // evaluator, so the global optimum must agree exactly.
      EXPECT_DOUBLE_EQ(trajectory_level.results[0].distance,
                       subtrajectory_level.results[0].distance)
          << name;
    }
  }
}

TEST(AlgoInvariantsTest, EngineResultsInvariantUnderThreadCount) {
  for (uint64_t seed : {81u, 82u}) {
    std::vector<geo::Trajectory> db = MakeDatabase(seed, 12, 26);
    util::Rng rng(seed * 13);
    geo::Trajectory query = MakeQuery(db, rng, 10);

    for (const std::string& name : {std::string("dtw"),
                                    std::string("hausdorff")}) {
      auto measure = similarity::MakeMeasure(name);
      ASSERT_TRUE(measure.ok()) << name;
      algo::ExactS exact(measure->get());
      engine::SimSubEngine engine(db);

      engine::QueryOptions seq_options;
      seq_options.k = 5;
      seq_options.threads = 1;
      engine::QueryOptions par_options = seq_options;
      par_options.threads = 8;
      engine::QueryReport sequential =
          engine.Query(query.View(), exact, seq_options);
      engine::QueryReport parallel =
          engine.Query(query.View(), exact, par_options);

      ASSERT_EQ(sequential.results.size(), parallel.results.size()) << name;
      for (size_t i = 0; i < sequential.results.size(); ++i) {
        EXPECT_EQ(sequential.results[i].trajectory_id,
                  parallel.results[i].trajectory_id)
            << name << " entry " << i;
        EXPECT_EQ(sequential.results[i].range, parallel.results[i].range)
            << name << " entry " << i;
        // Bit-identical, not approximately equal: every participant
        // computes the same per-trajectory distances and the order is total.
        EXPECT_EQ(sequential.results[i].distance,
                  parallel.results[i].distance)
            << name << " entry " << i;
      }
      EXPECT_EQ(sequential.trajectories_scanned,
                parallel.trajectories_scanned)
          << name;
    }
  }
}

}  // namespace
}  // namespace simsub
