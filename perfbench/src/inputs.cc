#include "inputs.h"

#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "data/activity.h"
#include "data/electricity.h"
#include "data/flu.h"
#include "data/topologies.h"
#include "stats.h"

namespace pfbench {
namespace {

template <typename T>
T Must(pf::Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "pf-bench: %s: %s\n", what,
                 result.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(result).value();
}

}  // namespace

const pf::MarkovChain& ActivityChain() {
  static const pf::MarkovChain* chain = [] {
    pf::Rng rng(0xAC71117);
    const pf::ActivityGroupData data = Must(
        pf::SimulateActivityGroup(pf::ActivityGroup::kCyclist,
                                  pf::ActivitySimOptions{}, &rng),
        "simulate activity study");
    return new pf::MarkovChain(
        Must(pf::MarkovChain::Estimate(data.AllChains(),
                                       pf::kNumActivityStates),
             "estimate activity chain"));
  }();
  return *chain;
}

const pf::MarkovChain& ElectricityChain() {
  static const pf::MarkovChain* chain = [] {
    pf::ElectricitySimOptions sim;
    sim.length = 200000;
    pf::Rng rng(0xE1EC);
    const pf::StateSequence seq =
        Must(pf::SimulateElectricity(sim, &rng), "simulate electricity");
    // Light smoothing keeps every transition positive, as the estimated
    // model of a finite record needs for irreducibility.
    return new pf::MarkovChain(Must(
        pf::MarkovChain::Estimate({seq}, pf::kNumPowerLevels, 1e-3),
        "estimate electricity chain"));
  }();
  return *chain;
}

pf::StateSequence ElectricityRecord(std::size_t length, std::uint64_t seed) {
  pf::ElectricitySimOptions sim;
  sim.length = length;
  pf::Rng rng(Mix64(seed ^ 0xE1EC));
  return Must(pf::SimulateElectricity(sim, &rng), "simulate electricity");
}

pf::StateSequence SampleRecord(const pf::MarkovChain& chain,
                               std::size_t length, std::uint64_t seed) {
  pf::Rng rng(Mix64(seed));
  return chain.Sample(length, &rng);
}

std::vector<pf::BayesianNetwork> TreeNetworks(std::size_t nodes) {
  std::vector<pf::BayesianNetwork> thetas;
  for (double flip : {0.3, 0.35}) {
    thetas.push_back(Must(pf::TreeNetwork(nodes, 2, pf::BinaryRoot(0.3),
                                          pf::BinaryNoisyCopyCpt(flip)),
                          "tree network"));
  }
  return thetas;
}

std::vector<pf::ConditionalOutputPair> FluPairs(std::size_t cliques) {
  std::vector<pf::ConditionalOutputPair> pairs;
  for (std::size_t i = 0; i < cliques; ++i) {
    const pf::FluCliqueModel clique =
        Must(pf::FluCliqueModel::Contagion(3 + i, 0.4), "flu clique");
    pairs.push_back(Must(clique.CountQueryOutputPair(), "flu output pair"));
  }
  return pairs;
}

std::unique_ptr<pf::PrivacyEngine> MustCreate(
    pf::ModelSpec model, const pf::EngineOptions& options) {
  return Must(pf::PrivacyEngine::Create(std::move(model), options),
              "create engine");
}

Truth BuiltinTruth(const pf::QuerySpec& spec, const int* data, std::size_t n,
                   std::size_t k, std::size_t compile_length) {
  Truth t;
  const double inv = 1.0 / static_cast<double>(compile_length);
  double sum = 0.0;
  std::vector<double> counts(k, 0.0);
  std::size_t matches = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += data[i];
    if (data[i] >= 0 && static_cast<std::size_t>(data[i]) < k) {
      counts[static_cast<std::size_t>(data[i])] += 1.0;
    }
    if (data[i] == spec.state) ++matches;
  }
  switch (spec.kind) {
    case pf::QueryKind::kSum:
      t.values = {sum};
      t.lipschitz = k == 0 ? 1.0 : static_cast<double>(k - 1);
      break;
    case pf::QueryKind::kMean:
      t.values = {sum * inv};
      t.lipschitz = static_cast<double>(k - 1) * inv;
      break;
    case pf::QueryKind::kStateFrequency:
      t.values = {static_cast<double>(matches) * inv};
      t.lipschitz = inv;
      break;
    case pf::QueryKind::kCountHistogram:
      t.values = counts;
      t.lipschitz = 2.0;
      break;
    case pf::QueryKind::kFrequencyHistogram:
      for (double& c : counts) c *= inv;
      t.values = counts;
      t.lipschitz = 2.0 * inv;
      break;
    default:
      std::fprintf(stderr, "pf-bench: custom queries have no builtin truth\n");
      std::exit(2);
  }
  return t;
}

double ColdSigma(const pf::ModelSpec& model, const pf::EngineOptions& options,
                 double epsilon) {
  auto engine = MustCreate(model, options);
  return Must(engine->mechanism()->Analyze(epsilon), "cold analysis").sigma;
}

double PeakRssMb() {
  // VmHWM belongs to this process's address space; getrusage's ru_maxrss
  // would also count the parent this process was forked from.
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  long kb = 0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      std::sscanf(line + 6, "%ld", &kb);
      break;
    }
  }
  std::fclose(status);
  return static_cast<double>(kb) / 1024.0;
}

bool ResetPeakRss() {
  ::malloc_trim(0);
  // Writing 5 to clear_refs restarts this process's VmHWM from its
  // current RSS.
  std::FILE* refs = std::fopen("/proc/self/clear_refs", "w");
  if (refs == nullptr) return false;
  const bool written = std::fputs("5", refs) >= 0;
  return std::fclose(refs) == 0 && written;
}

}  // namespace pfbench
