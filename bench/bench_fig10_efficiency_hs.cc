// Reproduces paper Figure 10 (appendix): top-k query efficiency on the
// Harbin-like and Sports-like databases, without and with the R-tree index,
// sweeping database size — the companion of Figure 4 for the other two
// datasets.
#include <cstdio>
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

  int queries = 3;
  int episodes = 800;
  int topk = 50;
  std::string sizes_csv = "150,300,600";
  util::FlagSet flags("Figure 10: top-k efficiency on Harbin and Sports");
  flags.AddInt("queries", &queries, "queries per configuration");
  flags.AddInt("episodes", &episodes, "RLS training episodes");
  flags.AddInt("topk", &topk, "k for top-k queries");
  flags.AddString("db_sizes", &sizes_csv, "comma-separated trajectory counts");
  if (auto st = flags.Parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }

  bench::PrintBanner("bench_fig10_efficiency_hs",
                     "Figure 10 (a)-(l): Harbin/Sports query time",
                     "topk=" + std::to_string(topk) +
                         " queries=" + std::to_string(queries) +
                         " db_sizes=" + sizes_csv);

  std::vector<int> db_sizes;
  for (const std::string& tok : util::SplitCsvLine(sizes_csv)) {
    db_sizes.push_back(std::stoi(tok));
  }
  similarity::DtwMeasure dtw;

  for (auto kind : {data::DatasetKind::kHarbin, data::DatasetKind::kSports}) {
    data::Dataset train_corpus = data::GenerateDataset(kind, 50, 2100);
    rl::TrainedPolicy rls_policy = bench::TrainPolicy(
        &dtw, train_corpus, episodes, bench::DefaultEnvOptions("dtw", 0),
        2101);
    rl::TrainedPolicy skip_policy = bench::TrainPolicy(
        &dtw, train_corpus, episodes, bench::DefaultEnvOptions("dtw", 3),
        2102);
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
      std::printf("--- %s (DTW), %s index ---\n", data::DatasetKindName(kind),
                  use_index ? "with R-tree" : "without");
      std::vector<std::string> header = {"DB points"};
      for (const auto* a : algorithms) header.push_back(a->name());
      util::TablePrinter table(header);
      for (int db_size : db_sizes) {
        data::Dataset db = data::GenerateDataset(kind, db_size, 2200);
        // The first with-index query includes the one-time R-tree build,
        // as the first pruned query includes the SoA build.
        engine::SimSubEngine engine(db.trajectories);
        auto workload = data::SampleWorkload(db, queries, 2201);
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
          row.push_back(
              util::TablePrinter::Fmt(timer.ElapsedSeconds() / queries, 3));
        }
        table.AddRow(std::move(row));
      }
      table.Print();
      std::printf("(seconds per top-%d query)\n\n", topk);
    }
  }
  return 0;
}
