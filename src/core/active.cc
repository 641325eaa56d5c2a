#include "core/active.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "util/rng.h"

namespace reds {

Dataset RunActiveSampling(int dim, const LabelOracle& oracle,
                          const ActiveSamplingConfig& config, uint64_t seed) {
  assert(dim > 0 && config.initial_points > 1);
  Rng rng(DeriveSeed(seed, 0xac7e));
  sampling::PointSampler sampler =
      config.sampler ? config.sampler : sampling::MakeUniformSampler();

  // Seed design: LHS for space-filling coverage.
  Dataset labeled(dim);
  {
    const std::vector<double> design =
        sampling::LatinHypercube(config.initial_points, dim, &rng);
    labeled.Reserve(config.initial_points);
    for (int i = 0; i < config.initial_points; ++i) {
      const double* x = design.data() + static_cast<size_t>(i) * dim;
      labeled.AddRow(x, oracle(x));
    }
  }

  std::vector<double> points(static_cast<size_t>(config.pool_size) *
                             static_cast<size_t>(dim));
  std::vector<double> prob(static_cast<size_t>(config.pool_size));
  for (int round = 0; round < config.rounds; ++round) {
    // A fresh metamodel on everything labeled so far.
    const auto model =
        ml::FitDefault(config.metamodel, labeled,
                       DeriveSeed(seed, 100 + static_cast<uint64_t>(round)));

    // Score a candidate pool by predictive uncertainty p(1-p).
    struct Candidate {
      std::vector<double> x;
      double uncertainty;
    };
    // Sample the whole pool, then score it in one block: prediction draws
    // no random numbers, so the RNG sequence is unchanged.
    for (int i = 0; i < config.pool_size; ++i) {
      sampler(&rng, dim, points.data() + static_cast<size_t>(i) * dim);
    }
    model->PredictBlock(points.data(), config.pool_size, prob.data());
    std::vector<Candidate> pool;
    pool.reserve(static_cast<size_t>(config.pool_size));
    for (int i = 0; i < config.pool_size; ++i) {
      const double* x = points.data() + static_cast<size_t>(i) * dim;
      const double p = prob[static_cast<size_t>(i)];
      pool.push_back({std::vector<double>(x, x + dim), p * (1.0 - p)});
    }
    const int take = std::min(config.batch_size, config.pool_size);
    std::partial_sort(pool.begin(), pool.begin() + take, pool.end(),
                      [](const Candidate& a, const Candidate& b) {
                        return a.uncertainty > b.uncertainty;
                      });
    for (int i = 0; i < take; ++i) {
      labeled.AddRow(pool[static_cast<size_t>(i)].x, oracle(pool[static_cast<size_t>(i)].x.data()));
    }
  }
  return labeled;
}

}  // namespace reds
