// Fuzz harness entry points, one per untrusted decode surface. Each takes
// arbitrary attacker-controlled bytes and must return normally: no crash,
// no sanitizer report, no unbounded allocation. The same entry is driven
// two ways:
//
//   - fuzz_<name>: a libFuzzer binary (Clang + SIMSUB_FUZZ=ON only) that
//     explores the input space coverage-guided under ASan+UBSan.
//   - fuzz_replay_<name>: a plain binary, built in every configuration,
//     that replays the checked-in regression corpus (fuzz/corpus/<name>)
//     as an ordinary ctest case — crashes found by fuzzing stay fixed
//     without anyone needing a fuzzer-capable toolchain.
//
// Harnesses assert more than "does not crash" where the codec makes a
// stronger promise: the wire harness checks Encode(Decode(bytes)) == bytes
// for accepted QUERY payloads (the encoding is canonical) and a
// re-encode fixpoint for REPORT payloads (whose decode is deliberately
// lenient about unknown status codes and interned plan reasons).
#ifndef SIMSUB_FUZZ_HARNESS_H_
#define SIMSUB_FUZZ_HARNESS_H_

#include <cstddef>
#include <cstdint>

namespace simsub::fuzz {

/// net/wire: frame layer plus QUERY/REPORT/ERROR payload decoders.
void FuzzWire(const uint8_t* data, size_t size);

/// data/snapshot: CorpusSnapshot::OpenFromBuffer, with and without the
/// checksum pass (a trusted-file open must still be memory-safe on
/// corrupt bytes).
void FuzzSnapshot(const uint8_t* data, size_t size);

/// data/dataset: LoadCsvFromString over hostile CSV text.
void FuzzCsv(const uint8_t* data, size_t size);

/// util/failpoint: the SIMSUB_FAILPOINTS spec parser. No-op when
/// failpoints are compiled out.
void FuzzFailpoint(const uint8_t* data, size_t size);

/// similarity/algo registries: a fuzzed QuerySpec's measure/algorithm
/// fields resolved through MakeMeasure/MakeSearch must yield a typed
/// status, never UB or a CHECK abort.
void FuzzResolve(const uint8_t* data, size_t size);

/// rl/policy_io: LoadPolicy over hostile policy text; an accepted policy
/// then runs one Mlp::Forward and one RlsSearch::Search over a fixed pair.
void FuzzPolicy(const uint8_t* data, size_t size);

}  // namespace simsub::fuzz

#endif  // SIMSUB_FUZZ_HARNESS_H_
