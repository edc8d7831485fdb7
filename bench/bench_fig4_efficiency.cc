// Reproduces paper Figure 4: efficiency of top-50 SimSub queries on the
// Porto-like database, sweeping the database size (total number of points),
// without (a)-(c) and with (d)-(f) the bounding-box R-tree index.
//
// Expected shape (paper): ExactS is ~7-15x slower than the splitting-based
// algorithms and 20-30x slower than RLS-Skip; the R-tree cuts all times by
// roughly 20-30%; everything scales ~linearly in database size.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "algo/exacts.h"
#include "algo/rls.h"
#include "algo/sizes.h"
#include "algo/splitting.h"
#include "common.h"
#include "similarity/dtw.h"
#include "engine/engine.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/stopwatch.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace simsub;

  int queries = 5;
  int episodes = 1000;
  int topk = 50;
  std::string sizes_csv = "250,500,1000,2000";
  util::FlagSet flags("Figure 4: top-k efficiency vs database size (Porto)");
  flags.AddInt("queries", &queries, "queries per configuration");
  flags.AddInt("episodes", &episodes, "RLS training episodes");
  flags.AddInt("topk", &topk, "k for top-k queries");
  flags.AddString("db_sizes", &sizes_csv, "comma-separated trajectory counts");
  if (auto st = flags.Parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }

  bench::PrintBanner("bench_fig4_efficiency",
                     "Figure 4 (a)-(f): query time without/with R-tree",
                     "topk=" + std::to_string(topk) + " queries=" +
                         std::to_string(queries) + " db_sizes=" + sizes_csv);

  std::vector<int> db_sizes;
  for (const std::string& tok : util::SplitCsvLine(sizes_csv)) {
    db_sizes.push_back(std::stoi(tok));
  }

  // Train policies once on a small corpus; reuse across database sizes.
  data::Dataset train_corpus =
      data::GenerateDataset(data::DatasetKind::kPorto, 80, 11);
  similarity::DtwMeasure dtw;
  rl::TrainedPolicy rls_policy = bench::TrainPolicy(
      &dtw, train_corpus, episodes, bench::DefaultEnvOptions("dtw", 0), 21);
  rl::TrainedPolicy skip_policy = bench::TrainPolicy(
      &dtw, train_corpus, episodes, bench::DefaultEnvOptions("dtw", 3), 22);

  algo::ExactS exact(&dtw);
  algo::SizeS sizes(&dtw, 5);
  algo::PssSearch pss(&dtw);
  algo::PosSearch pos(&dtw);
  algo::PosDSearch posd(&dtw, 5);
  algo::RlsSearch rls(&dtw, rls_policy);
  algo::RlsSearch rls_skip(&dtw, skip_policy);
  std::vector<const algo::SubtrajectorySearch*> algorithms = {
      &exact, &sizes, &pss, &pos, &posd, &rls, &rls_skip};

  for (bool use_index : {false, true}) {
    std::printf("--- Porto (DTW), %s index ---\n",
                use_index ? "with R-tree" : "without");
    std::vector<std::string> header = {"DB points"};
    for (const auto* a : algorithms) header.push_back(a->name());
    util::TablePrinter table(header);
    for (int db_size : db_sizes) {
      data::Dataset db =
          data::GenerateDataset(data::DatasetKind::kPorto, db_size, 100);
      // The first with-index query includes the one-time R-tree build, as
      // the first pruned query includes the SoA build.
      engine::SimSubEngine engine(db.trajectories);
      auto workload = data::SampleWorkload(db, queries, 200);
      std::vector<std::string> row = {std::to_string(engine.TotalPoints())};
      engine::QueryOptions query_options;
      query_options.k = topk;
      query_options.filter = use_index ? engine::PruningFilter::kRTree
                                       : engine::PruningFilter::kNone;
      for (const auto* algorithm : algorithms) {
        util::Stopwatch timer;
        for (const auto& pair : workload) {
          engine.Query(pair.query.View(), *algorithm, query_options);
        }
        row.push_back(util::TablePrinter::Fmt(
            timer.ElapsedSeconds() / queries, 3));
      }
      table.AddRow(std::move(row));
    }
    table.Print();
    std::printf("(seconds per top-%d query, averaged over %d queries)\n\n",
                topk, queries);
  }
  return 0;
}
