// Deterministic seed-corpus generator for the fuzz harnesses (fuzz/).
//
//   fuzz_corpus_gen <out_root>
//
// Writes one subdirectory per harness (wire/, snapshot/, csv/, failpoint/,
// resolve/, policy/) containing seeds built with the real encoders —
// EncodeQuery, EncodeReport, WriteSnapshot, SaveCsv, SavePolicy — plus
// near-valid corruptions of each, so coverage-guided fuzzing starts on the
// deep decode paths instead of spending its budget rediscovering the
// envelope formats. Output is a pure function of this source file (fixed
// values and seeds, no clocks): regenerating into a clean directory
// reproduces the corpus byte for byte. The trained policy seeds also
// depend on the platform's libm, as every trained weight does.
//
// The checked-in fuzz/corpus/ trees were produced by this tool and then
// extended with minimized regression inputs from fuzzing runs; regenerate
// with care (it will not delete regression files, but it will overwrite
// seed-* files it owns).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "data/generator.h"
#include "data/snapshot.h"
#include "engine/engine.h"
#include "geo/point.h"
#include "geo/trajectory.h"
#include "net/wire.h"
#include "rl/policy_io.h"
#include "rl/trainer.h"
#include "service/query_spec.h"
#include "similarity/dtw.h"
#include "util/io.h"
#include "util/status.h"

namespace {

namespace fs = std::filesystem;
using namespace simsub;

// Wire-harness mode prefixes (fuzz/harness_wire.cc): the first corpus byte
// routes the rest of the input to one decoder.
constexpr uint8_t kModeQuery = 0;
constexpr uint8_t kModeReport = 1;
constexpr uint8_t kModeError = 2;
constexpr uint8_t kModeFrame = 3;

bool WriteBytes(const fs::path& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

bool WriteText(const fs::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  return static_cast<bool>(out);
}

std::vector<uint8_t> Prefixed(uint8_t mode, std::vector<uint8_t> payload) {
  payload.insert(payload.begin(), mode);
  return payload;
}

void AppendU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(uint8_t(v >> (8 * i)));
}

void AppendF64(std::vector<uint8_t>* out, double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  __builtin_memcpy(&bits, &v, sizeof(bits));
  AppendU64(out, bits);
}

service::QuerySpec FullSpec(std::span<const geo::Point> points) {
  service::QuerySpec spec;
  spec.measure = "cdtw";
  spec.measure_options.cdtw_band_fraction = 0.25;
  spec.measure_options.edr_eps = 50.0;
  spec.measure_options.lcss_eps = 75.0;
  spec.measure_options.erp_gap = geo::Point(1.5, -2.5);
  spec.algorithm = "sizes";
  spec.algorithm_options.sizes_xi = 7;
  spec.algorithm_options.posd_delay = 3;
  spec.algorithm_options.random_s_samples = 64;
  spec.algorithm_options.random_s_seed = 99;
  spec.algorithm_options.band_fraction = 0.5;
  spec.k = 5;
  spec.min_size = 2;
  spec.filter = engine::PruningFilter::kRTree;
  spec.prune = true;
  spec.deadline_ms = 250.0;
  spec.points = points;
  return spec;
}

int GenWire(const fs::path& dir) {
  const std::vector<geo::Point> pts = {geo::Point(1.0, 2.0, 0.0),
                                       geo::Point(3.0, 4.0, 1.0),
                                       geo::Point(5.0, 6.0, 2.0)};
  auto full = net::EncodeQuery(FullSpec(pts), "corpus-client", 77);
  if (!full.ok()) return 1;
  service::QuerySpec minimal;
  minimal.points = std::span<const geo::Point>(pts.data(), 1);
  auto min_q = net::EncodeQuery(minimal, "", 0);
  if (!min_q.ok()) return 1;

  engine::QueryReport report;
  report.results.push_back({42, geo::SubRange(3, 9), 1.25});
  report.results.push_back({-7, geo::SubRange(0, 1), 2.5});
  report.trajectories_scanned = 100;
  report.trajectories_pruned = 40;
  report.lb_skipped = 10;
  report.dp_abandoned = 5;
  report.seconds = 0.125;
  report.queue_seconds = 0.0625;
  report.status = util::Status::OK();
  report.filter_used = engine::PruningFilter::kInvertedGrid;
  report.planned_selectivity = 0.75;
  report.plan_reason = "corpus seed";

  bool ok = true;
  ok &= WriteBytes(dir / "seed-query-full", Prefixed(kModeQuery, *full));
  ok &= WriteBytes(dir / "seed-query-min", Prefixed(kModeQuery, *min_q));
  // Near-valid corruption: wrong version byte, rejected on the first read.
  std::vector<uint8_t> bad_version = *full;
  bad_version[0] = uint8_t(net::kWireVersion + 1);
  ok &= WriteBytes(dir / "seed-query-badversion",
                   Prefixed(kModeQuery, bad_version));
  ok &= WriteBytes(dir / "seed-report-ok",
                   Prefixed(kModeReport, net::EncodeReport(report, 77)));
  engine::QueryReport failed;
  failed.status = util::Status::DeadlineExceeded("deadline of 250ms expired");
  ok &= WriteBytes(dir / "seed-report-error",
                   Prefixed(kModeReport, net::EncodeReport(failed, 1)));
  ok &= WriteBytes(
      dir / "seed-error",
      Prefixed(kModeError,
               net::EncodeError(util::Status::InvalidArgument("seed"))));

  // Frame mode: length prefix + type byte + payload, as WriteFrame lays it
  // out, followed by a second truncated frame.
  std::vector<uint8_t> stream;
  uint32_t len = static_cast<uint32_t>(min_q->size());
  for (int i = 0; i < 4; ++i) stream.push_back(uint8_t(len >> (8 * i)));
  stream.push_back(uint8_t(net::FrameType::kQuery));
  stream.insert(stream.end(), min_q->begin(), min_q->end());
  stream.insert(stream.end(), {0xff, 0xff, 0x00, 0x00, 0x01});  // huge claim
  ok &= WriteBytes(dir / "seed-frame-query", Prefixed(kModeFrame, stream));
  return ok ? 0 : 1;
}

int GenSnapshot(const fs::path& dir) {
  data::Dataset dataset;
  dataset.name = "corpus";
  dataset.kind = data::DatasetKind::kPorto;
  dataset.trajectories.emplace_back(
      std::vector<geo::Point>{geo::Point(0.0, 0.0, 0.0),
                              geo::Point(1.0, 1.0, 1.0),
                              geo::Point(2.0, 0.5, 2.0)},
      /*id=*/1);
  dataset.trajectories.emplace_back(
      std::vector<geo::Point>{geo::Point(5.0, 5.0, 0.0),
                              geo::Point(6.0, 5.5, 1.0)},
      /*id=*/2);
  const fs::path valid = dir / "seed-valid-small";
  if (!data::WriteSnapshot(dataset, valid.string()).ok()) return 1;
  auto bytes = util::io::ReadFileBytes(valid.string());
  if (!bytes.ok()) return 1;
  std::vector<uint8_t> flipped(bytes->begin(), bytes->end());
  flipped[flipped.size() / 2] ^= 0x40;  // payload bit flip: checksum seed
  bool ok = WriteBytes(dir / "seed-bitflip", flipped);
  std::vector<uint8_t> truncated(bytes->begin(),
                                 bytes->begin() + long(bytes->size() / 3));
  ok &= WriteBytes(dir / "seed-truncated", truncated);
  std::vector<uint8_t> header_only(bytes->begin(), bytes->begin() + 96);
  ok &= WriteBytes(dir / "seed-header-only", header_only);
  return ok ? 0 : 1;
}

int GenCsv(const fs::path& dir) {
  bool ok = WriteText(dir / "seed-valid",
                      "trajectory_id,x,y,t\n"
                      "1,0.5,1.5,0\n"
                      "1,0.75,1.25,1\n"
                      "2,-3.5,4.5,0\n");
  ok &= WriteText(dir / "seed-no-header", "7,1,2,3\n7,4,5,6\n");
  ok &= WriteText(dir / "seed-bad-field", "1,0.5,oops,0\n");
  ok &= WriteText(dir / "seed-short-row", "1,0.5\n");
  ok &= WriteText(dir / "seed-crlf-blank", "1,1,1,1\r\n\r\n1,2,2,2\r\n");
  return ok ? 0 : 1;
}

int GenFailpoint(const fs::path& dir) {
  bool ok = WriteText(dir / "seed-simple", "io.read=error");
  ok &= WriteText(dir / "seed-multi",
                  "io.open=error@once;io.write=delay:5@nth:3;"
                  "io.fsync=abort@times:2;io.read=error@prob:0.5:42");
  ok &= WriteText(dir / "seed-off", "io.read=off;io.write=error");
  ok &= WriteText(dir / "seed-bad-operand", "a=delay:;b=prob:nan");
  ok &= WriteText(dir / "seed-no-eq", "just-a-site-name");
  return ok ? 0 : 1;
}

int GenResolve(const fs::path& dir) {
  // Field order must match fuzz/harness_resolve.cc's Bytes reader:
  // 6 f64 measure options, measure selector u8, 3 i32-as-u64, u64 seed,
  // f64 band, algorithm selector u8, then point coordinates.
  auto seed = [](double band, uint8_t measure_sel, uint8_t algo_sel) {
    std::vector<uint8_t> b;
    AppendF64(&b, band);       // cdtw_band_fraction
    AppendF64(&b, 50.0);       // edr_eps
    AppendF64(&b, 75.0);       // lcss_eps
    AppendF64(&b, 1.0);        // erp_gap.x
    AppendF64(&b, -1.0);       // erp_gap.y
    AppendF64(&b, 0.0);        // erp_gap.t
    b.push_back(measure_sel);
    AppendU64(&b, 5);          // sizes_xi
    AppendU64(&b, 3);          // posd_delay
    AppendU64(&b, 16);         // random_s_samples
    AppendU64(&b, 42);         // random_s_seed
    AppendF64(&b, 0.5);        // band_fraction
    b.push_back(algo_sel);
    for (int i = 0; i < 6; ++i) AppendF64(&b, double(i));
    return b;
  };
  bool ok = true;
  // One seed per measure index (7 builtins) against a rotating algorithm.
  for (uint8_t m = 0; m < 7; ++m) {
    char name[32];
    std::snprintf(name, sizeof(name), "seed-measure-%u", unsigned(m));
    ok &= WriteBytes(dir / name, seed(0.25, m, uint8_t(m + 1)));
  }
  // Hostile option values the resolution layer must reject, not abort on.
  std::vector<uint8_t> nan_band = seed(0.25, 2, 8);
  {
    std::vector<uint8_t> b;
    AppendF64(&b, std::nan(""));
    std::copy(b.begin(), b.end(), nan_band.begin());
  }
  ok &= WriteBytes(dir / "seed-nan-band", nan_band);
  ok &= WriteBytes(dir / "seed-raw-name", seed(0.25, 0x7, 0x7));
  return ok ? 0 : 1;
}

// A policy text: the simsub-policy-v1 header for `skip_count`, then
// "mlp 3 <layer count>" and, per {in, out} pair, a layer header followed by
// in * out + out weights.
std::string PolicyText(long long skip_count, int layer_count,
                       const std::vector<std::pair<int, int>>& layers) {
  std::ostringstream os;
  os << "simsub-policy-v1 " << skip_count << " 1 0 0.1\n";
  os << "mlp 3 " << layer_count << "\n";
  for (const auto& [in, out] : layers) {
    os << in << " " << out << (out == 20 ? " relu\n" : " sigmoid\n");
    for (int k = 0; k < in * out + out; ++k) os << "0.25 ";
    os << "\n";
  }
  return os.str();
}

int GenPolicy(const fs::path& dir) {
  // Two small trained policies (RLS and RLS-Skip) so fuzzing starts from
  // real weights, plus the network shapes the decoder must reject.
  data::Dataset dataset =
      data::GenerateDataset(data::DatasetKind::kPorto, 16, 5);
  similarity::DtwMeasure dtw;
  bool ok = true;
  for (int skip_count : {0, 3}) {
    rl::RlsTrainOptions options;
    options.episodes = 12;
    options.seed = 7;
    options.env.skip_count = skip_count;
    rl::RlsTrainer trainer(&dtw, options);
    std::ostringstream text;
    ok &= rl::SavePolicy(
              trainer.Train(dataset.trajectories, dataset.trajectories), text)
              .ok();
    ok &= WriteText(dir / (skip_count == 0 ? "seed-rls" : "seed-rls-skip"),
                    text.str());
  }
  // A second layer that claims 50 inputs behind a 20-unit layer.
  ok &= WriteText(dir / "seed-chain-mismatch",
                  PolicyText(0, 2, {{3, 20}, {50, 2}}));
  // No layer, under a header whose action count (3) equals the width.
  ok &= WriteText(dir / "seed-no-layers", PolicyText(1, 0, {}));
  // A skip count whose action count overflows 32 bits.
  ok &= WriteText(dir / "seed-skip-overflow",
                  PolicyText(2147483647, 1, {{3, 2}}));
  // A layer that claims 2e9 x 2e9 weights.
  ok &= WriteText(dir / "seed-huge-layer",
                  "simsub-policy-v1 0 1 0 0.1\nmlp 3 1\n"
                  "2000000000 2000000000 sigmoid\n0.5\n");
  // A misspelt activation, which must not load as a linear layer.
  std::string unknown_act = PolicyText(0, 2, {{3, 20}, {20, 2}});
  unknown_act.replace(unknown_act.find("relu"), 4, "relux");
  ok &= WriteText(dir / "seed-unknown-activation", unknown_act);
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <out_root>\n", argv[0]);
    return 1;
  }
  const fs::path root = argv[1];
  int rc = 0;
  struct {
    const char* name;
    int (*gen)(const fs::path&);
  } kGenerators[] = {{"wire", GenWire},
                     {"snapshot", GenSnapshot},
                     {"csv", GenCsv},
                     {"failpoint", GenFailpoint},
                     {"resolve", GenResolve},
                     {"policy", GenPolicy}};
  for (const auto& g : kGenerators) {
    const fs::path dir = root / g.name;
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) {
      std::fprintf(stderr, "error: cannot create %s: %s\n",
                   dir.string().c_str(), ec.message().c_str());
      return 1;
    }
    const int one = g.gen(dir);
    if (one != 0) {
      std::fprintf(stderr, "error: generator '%s' failed\n", g.name);
      rc = one;
    }
  }
  if (rc == 0) std::printf("seed corpora written under %s\n", root.string().c_str());
  return rc;
}
