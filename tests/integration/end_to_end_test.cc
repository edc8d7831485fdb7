// End-to-end integration: generate a synthetic city, train the learned
// measure and RL policies, and run the full algorithm suite through the
// query engine — the complete pipeline every bench binary exercises.
#include <gtest/gtest.h>

#include <memory>

#include "algo/exacts.h"
#include "algo/rls.h"
#include "algo/splitting.h"
#include "data/generator.h"
#include "data/workload.h"
#include "engine/engine.h"
#include "eval/experiment.h"
#include "rl/trainer.h"
#include "similarity/dtw.h"
#include "t2vec/t2vec_measure.h"
#include "t2vec/trainer.h"

namespace simsub {
namespace {

TEST(EndToEndTest, DtwPipelineWithRls) {
  similarity::DtwMeasure dtw;
  data::Dataset dataset =
      data::GenerateDataset(data::DatasetKind::kPorto, 40, 777);

  // Train a small RLS policy.
  rl::RlsTrainOptions train_options;
  train_options.episodes = 150;
  train_options.seed = 3;
  rl::RlsTrainer trainer(&dtw, train_options);
  rl::TrainedPolicy policy =
      trainer.Train(dataset.trajectories, dataset.trajectories);

  // Evaluate the suite on a workload.
  algo::ExactS exact(&dtw);
  algo::PssSearch pss(&dtw);
  algo::RlsSearch rls(&dtw, policy);
  auto workload = data::SampleWorkload(dataset, 12, 9);
  auto rows =
      eval::EvaluateAlgorithms({&exact, &pss, &rls}, dtw, dataset, workload);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_DOUBLE_EQ(rows[0].mean_ar, 1.0);
  for (const auto& row : rows) {
    EXPECT_GE(row.mean_ar, 1.0 - 1e-12) << row.algorithm;
    EXPECT_GE(row.mean_rr, 0.0);
    EXPECT_LE(row.mean_rr, 1.0);
  }
}

TEST(EndToEndTest, LearnedMeasureDrivesWholeSuite) {
  data::Dataset dataset =
      data::GenerateDataset(data::DatasetKind::kPorto, 30, 778);
  auto grid = std::make_shared<t2vec::Grid>(dataset.Extent().Inflated(100.0),
                                            16, 16);
  t2vec::T2VecTrainOptions t2v_options;
  t2v_options.pairs = 200;
  t2v_options.embedding_dim = 6;
  t2v_options.hidden_dim = 12;
  t2vec::T2VecTrainer t2v_trainer(grid, t2v_options);
  auto encoder = t2v_trainer.Train(dataset.trajectories);
  t2vec::T2VecMeasure measure(encoder, grid);

  // The measure-agnostic algorithms run unchanged on the learned measure.
  algo::ExactS exact(&measure);
  algo::PssSearch pss(&measure);
  auto workload = data::SampleWorkload(dataset, 5, 10);
  for (const auto& pair : workload) {
    const auto& data =
        dataset.trajectories[static_cast<size_t>(pair.data_index)];
    auto re = exact.Search(data.View(), pair.query.View());
    auto rp = pss.Search(data.View(), pair.query.View());
    EXPECT_TRUE(std::isfinite(re.distance));
    // PSS suffix distances under t2vec are reversed-space approximations
    // (paper Section 4.3), so compare *re-scored* distances, not reported
    // ones — and expect PSS to flag inexact results.
    auto rank = eval::EvaluateRank(measure, data.View(), pair.query.View(),
                                   rp.best);
    EXPECT_GE(rank.returned_distance, re.distance - 1e-9)
        << "re-scored PSS answer must not beat ExactS under t2vec";
    if (rp.distance < re.distance - 1e-9) {
      EXPECT_FALSE(rp.distance_exact)
          << "a better-than-exact reported distance must be flagged approximate";
    }
  }
}

TEST(EndToEndTest, EngineTopKWithTrainedRlsSkip) {
  similarity::DtwMeasure dtw;
  data::Dataset dataset =
      data::GenerateDataset(data::DatasetKind::kPorto, 50, 779);
  rl::RlsTrainOptions train_options;
  train_options.episodes = 80;
  train_options.env.skip_count = 3;
  rl::RlsTrainer trainer(&dtw, train_options);
  rl::TrainedPolicy policy =
      trainer.Train(dataset.trajectories, dataset.trajectories);
  algo::RlsSearch rls_skip(&dtw, policy);

  engine::SimSubEngine engine(dataset.trajectories);
  auto query = dataset.trajectories[0];
  engine::QueryOptions query_options;
  query_options.k = 10;
  query_options.filter = engine::PruningFilter::kRTree;
  auto report = engine.Query(query.View(), rls_skip, query_options);
  ASSERT_LE(report.results.size(), 10u);
  ASSERT_FALSE(report.results.empty());
  for (size_t i = 1; i < report.results.size(); ++i) {
    EXPECT_LE(report.results[i - 1].distance, report.results[i].distance);
  }
  // The query trajectory itself is in the database; its own best match is
  // (close to) itself, so the top result must have a small distance.
  EXPECT_EQ(report.results[0].trajectory_id, 0);
}

}  // namespace
}  // namespace simsub
