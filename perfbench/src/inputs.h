// Inputs of pf-bench's workloads, generated from src/data.
//
// The models are the simulated datasets of the paper's evaluation,
// generated once per process from fixed generator seeds (they stand for
// fixed real-world datasets, so every run analyzes the same chains and
// networks). What a workload's --seed draws are its records, epsilons,
// windows, request mix and arrival schedule.
#ifndef PFBENCH_INPUTS_H_
#define PFBENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "engine/engine.h"

namespace pfbench {

/// Cyclist-group activity chain (k = 4) estimated from the simulated
/// activity study.
const pf::MarkovChain& ActivityChain();

/// Electricity chain (k = 51) estimated from a simulated household.
const pf::MarkovChain& ElectricityChain();

/// A fresh electricity record of `length` one-minute readings drawn from
/// the household simulator with `seed`.
pf::StateSequence ElectricityRecord(std::size_t length, std::uint64_t seed);

/// A record of `length` observations sampled from `chain` with `seed`.
pf::StateSequence SampleRecord(const pf::MarkovChain& chain,
                               std::size_t length, std::uint64_t seed);

/// Two binary trees of `nodes` nodes (branching 2) that differ in their
/// relay noise: the network class of the MQM-general engine.
std::vector<pf::BayesianNetwork> TreeNetworks(std::size_t nodes);

/// Output pairs of the flu count query over contagion cliques of sizes
/// 3..(2 + cliques): the Wasserstein engine's model.
std::vector<pf::ConditionalOutputPair> FluPairs(std::size_t cliques);

/// Creates an engine or aborts the run with the status (an engine that
/// cannot be built means the benchmark itself is broken).
std::unique_ptr<pf::PrivacyEngine> MustCreate(pf::ModelSpec model,
                                              const pf::EngineOptions& options);

/// \brief Truth and Lipschitz constant of a built-in query, computed by
/// the benchmark itself from the data — never by the library.
struct Truth {
  std::vector<double> values;
  double lipschitz = 0.0;
};

/// Evaluates built-in `spec` over data[0, n) compiled against
/// `compile_length` observations on a model with `k` states (k = 0 for
/// stateless models, where Sum has Lipschitz constant 1).
Truth BuiltinTruth(const pf::QuerySpec& spec, const int* data, std::size_t n,
                   std::size_t k, std::size_t compile_length);

/// Sigma of a cold analysis at `epsilon` on a fresh, uncached engine over
/// `model` — the reference every released sigma must equal.
double ColdSigma(const pf::ModelSpec& model, const pf::EngineOptions& options,
                 double epsilon);

/// Peak resident set size of this process in MB (VmHWM), since it
/// started or since the last ResetPeakRss.
double PeakRssMb();

/// Returns freed heap memory to the system and restarts the peak RSS from
/// the current RSS, so what came before (input generation) does not count;
/// false if the kernel refused.
bool ResetPeakRss();

}  // namespace pfbench

#endif  // PFBENCH_INPUTS_H_
