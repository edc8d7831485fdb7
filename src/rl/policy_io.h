// (De)serialization of trained RLS policies: the Q-network weights plus the
// MDP configuration they were trained under. Lets applications train once
// and ship the policy (the paper's Table 7 training costs are paid offline).
#ifndef SIMSUB_RL_POLICY_IO_H_
#define SIMSUB_RL_POLICY_IO_H_

#include <iostream>
#include <string>

#include "rl/trainer.h"
#include "util/status.h"

namespace simsub::rl {

/// Writes the policy (env options + network) as plain text.
[[nodiscard]] util::Status SavePolicy(const TrainedPolicy& policy, std::ostream& os);

/// Reads a policy written by SavePolicy.
[[nodiscard]] util::Result<TrainedPolicy> LoadPolicy(std::istream& is);

/// File conveniences over util::io: a failed save leaves no file behind.
[[nodiscard]] util::Status SavePolicyToFile(const TrainedPolicy& policy,
                              const std::string& path);
[[nodiscard]] util::Result<TrainedPolicy> LoadPolicyFromFile(const std::string& path);

}  // namespace simsub::rl

#endif  // SIMSUB_RL_POLICY_IO_H_
