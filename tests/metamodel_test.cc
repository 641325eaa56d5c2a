// Tests for the metamodels (random forest, gradient boosted trees, RBF-SVM),
// the classification metrics and the CV tuning harness.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <vector>

#include "ml/gbt.h"
#include "ml/metrics.h"
#include "ml/random_forest.h"
#include "ml/svm.h"
#include "ml/tuning.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace reds::ml {
namespace {

Dataset CircleData(int n, uint64_t seed) {
  // Positive inside a disc of radius 0.35 around the center.
  Rng rng(seed);
  Dataset d(2);
  for (int i = 0; i < n; ++i) {
    const double x[2] = {rng.Uniform(), rng.Uniform()};
    const double r2 =
        (x[0] - 0.5) * (x[0] - 0.5) + (x[1] - 0.5) * (x[1] - 0.5);
    d.AddRow(x, r2 < 0.35 * 0.35 ? 1.0 : 0.0);
  }
  return d;
}

double HoldoutAccuracy(const Metamodel& model, const Dataset& test) {
  int correct = 0;
  for (int i = 0; i < test.num_rows(); ++i) {
    const bool pred = model.PredictProb(test.row(i)) > 0.5;
    correct += pred == (test.y(i) > 0.5) ? 1 : 0;
  }
  return static_cast<double>(correct) / test.num_rows();
}

TEST(RandomForestTest, LearnsCircle) {
  const Dataset train = CircleData(600, 1);
  const Dataset test = CircleData(1000, 2);
  RandomForestConfig config;
  config.num_trees = 100;
  RandomForest rf(config);
  rf.Fit(train, 3);
  EXPECT_GT(HoldoutAccuracy(rf, test), 0.9);
}

TEST(RandomForestTest, ProbabilitiesAreCalibratedToClassShare) {
  const Dataset train = CircleData(800, 4);
  RandomForest rf;
  rf.Fit(train, 5);
  Rng rng(6);
  double mean_prob = 0.0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    const double x[2] = {rng.Uniform(), rng.Uniform()};
    mean_prob += rf.PredictProb(x);
  }
  mean_prob /= n;
  EXPECT_NEAR(mean_prob, 0.35 * 0.35 * M_PI, 0.06);
}

TEST(RandomForestTest, ProbabilitiesInUnitInterval) {
  const Dataset train = CircleData(200, 7);
  RandomForest rf;
  rf.Fit(train, 8);
  Rng rng(9);
  for (int i = 0; i < 200; ++i) {
    const double x[2] = {rng.Uniform(), rng.Uniform()};
    const double p = rf.PredictProb(x);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(RandomForestTest, DeterministicForSeed) {
  const Dataset train = CircleData(200, 10);
  RandomForest a, b;
  a.Fit(train, 42);
  b.Fit(train, 42);
  const double x[2] = {0.4, 0.6};
  EXPECT_DOUBLE_EQ(a.PredictProb(x), b.PredictProb(x));
}

TEST(GbtTest, LearnsCircle) {
  const Dataset train = CircleData(600, 11);
  const Dataset test = CircleData(1000, 12);
  GbtConfig config;
  config.num_rounds = 120;
  config.max_depth = 4;
  GradientBoostedTrees gbt(config);
  gbt.Fit(train, 13);
  EXPECT_GT(HoldoutAccuracy(gbt, test), 0.9);
}

TEST(GbtTest, MoreRoundsReduceTrainLoss) {
  const Dataset train = CircleData(400, 14);
  GbtConfig few, many;
  few.num_rounds = 5;
  many.num_rounds = 100;
  GradientBoostedTrees m_few(few), m_many(many);
  m_few.Fit(train, 15);
  m_many.Fit(train, 15);
  std::vector<double> p_few, p_many, y;
  for (int i = 0; i < train.num_rows(); ++i) {
    p_few.push_back(m_few.PredictProb(train.row(i)));
    p_many.push_back(m_many.PredictProb(train.row(i)));
    y.push_back(train.y(i));
  }
  EXPECT_LT(LogLoss(p_many, y), LogLoss(p_few, y));
}

TEST(GbtTest, SubsamplingStillLearns) {
  const Dataset train = CircleData(600, 16);
  const Dataset test = CircleData(500, 17);
  GbtConfig config;
  config.subsample = 0.7;
  config.colsample = 0.5;
  config.num_rounds = 150;
  GradientBoostedTrees gbt(config);
  gbt.Fit(train, 18);
  EXPECT_GT(HoldoutAccuracy(gbt, test), 0.85);
}

TEST(GbtTest, MarginIsLogOddsOfProb) {
  const Dataset train = CircleData(300, 19);
  GradientBoostedTrees gbt;
  gbt.Fit(train, 20);
  const double x[2] = {0.5, 0.5};
  const double margin = gbt.PredictMargin(x);
  const double p = gbt.PredictProb(x);
  EXPECT_NEAR(p, 1.0 / (1.0 + std::exp(-margin)), 1e-12);
}

TEST(SvmTest, LearnsCircle) {
  const Dataset train = CircleData(400, 21);
  const Dataset test = CircleData(800, 22);
  SvmConfig config;
  config.c = 4.0;
  SvmRbf svm(config);
  svm.Fit(train, 23);
  EXPECT_GT(HoldoutAccuracy(svm, test), 0.85);
}

TEST(SvmTest, DecisionSignMatchesProbability) {
  const Dataset train = CircleData(300, 24);
  SvmRbf svm;
  svm.Fit(train, 25);
  Rng rng(26);
  for (int i = 0; i < 100; ++i) {
    const double x[2] = {rng.Uniform(), rng.Uniform()};
    EXPECT_EQ(svm.Decision(x) > 0.0, svm.PredictProb(x) > 0.5);
  }
}

TEST(SvmTest, KeepsOnlySupportVectors) {
  const Dataset train = CircleData(400, 27);
  SvmRbf svm;
  svm.Fit(train, 28);
  EXPECT_GT(svm.num_support_vectors(), 0);
  EXPECT_LT(svm.num_support_vectors(), train.num_rows());
}

TEST(MetricsTest, AccuracyAndBrier) {
  const std::vector<double> prob{0.9, 0.2, 0.6, 0.4};
  const std::vector<double> y{1.0, 0.0, 0.0, 1.0};
  EXPECT_DOUBLE_EQ(Accuracy(prob, y), 0.5);
  const double expected_brier =
      (0.01 + 0.04 + 0.36 + 0.36) / 4.0;
  EXPECT_NEAR(BrierScore(prob, y), expected_brier, 1e-12);
}

TEST(MetricsTest, LogLossPerfectAndWorst) {
  EXPECT_NEAR(LogLoss({1.0, 0.0}, {1.0, 0.0}), 0.0, 1e-9);
  EXPECT_GT(LogLoss({0.0, 1.0}, {1.0, 0.0}), 10.0);
}

TEST(MetricsTest, RocAucPerfectRanking) {
  EXPECT_DOUBLE_EQ(RocAuc({0.1, 0.2, 0.8, 0.9}, {0.0, 0.0, 1.0, 1.0}), 1.0);
  EXPECT_DOUBLE_EQ(RocAuc({0.9, 0.8, 0.2, 0.1}, {0.0, 0.0, 1.0, 1.0}), 0.0);
}

TEST(MetricsTest, RocAucTiesGetHalfCredit) {
  EXPECT_DOUBLE_EQ(RocAuc({0.5, 0.5, 0.5, 0.5}, {0.0, 1.0, 0.0, 1.0}), 0.5);
}

TEST(TuningTest, FoldAssignmentIsBalanced) {
  const auto fold = FoldAssignment(103, 5, 1);
  std::vector<int> counts(5, 0);
  for (int f : fold) {
    ASSERT_GE(f, 0);
    ASSERT_LT(f, 5);
    counts[static_cast<size_t>(f)]++;
  }
  for (int c : counts) {
    EXPECT_GE(c, 20);
    EXPECT_LE(c, 21);
  }
}

TEST(TuningTest, TuneAndFitReturnsWorkingModel) {
  const Dataset train = CircleData(300, 30);
  const Dataset test = CircleData(500, 31);
  for (MetamodelKind kind : {MetamodelKind::kRandomForest, MetamodelKind::kGbt,
                             MetamodelKind::kSvm}) {
    auto model = TuneAndFit(kind, train, 32);
    ASSERT_NE(model, nullptr);
    EXPECT_GT(HoldoutAccuracy(*model, test), 0.8)
        << MetamodelSuffix(kind);
  }
}

TEST(TuningTest, FitDefaultReturnsWorkingModel) {
  const Dataset train = CircleData(300, 33);
  const Dataset test = CircleData(500, 34);
  for (MetamodelKind kind : {MetamodelKind::kRandomForest, MetamodelKind::kGbt,
                             MetamodelKind::kSvm}) {
    auto model = FitDefault(kind, train, 35);
    ASSERT_NE(model, nullptr);
    EXPECT_GT(HoldoutAccuracy(*model, test), 0.8) << MetamodelSuffix(kind);
  }
}

TEST(TuningTest, MetamodelSuffixNames) {
  EXPECT_EQ(MetamodelSuffix(MetamodelKind::kRandomForest), "f");
  EXPECT_EQ(MetamodelSuffix(MetamodelKind::kGbt), "x");
  EXPECT_EQ(MetamodelSuffix(MetamodelKind::kSvm), "s");
}

// --- Block inference: PredictBlock against the PredictProb reference. ----

// Labels depend on x0/x1 through a noisy disc, so fully grown trees get
// deep and leafy.
Dataset NoisyData(int n, int dim, uint64_t seed) {
  Rng rng(seed);
  Dataset d(dim);
  std::vector<double> x(static_cast<size_t>(dim));
  for (int i = 0; i < n; ++i) {
    for (double& v : x) v = rng.Uniform();
    const double r2 =
        (x[0] - 0.5) * (x[0] - 0.5) + (x[1] - 0.4) * (x[1] - 0.4);
    d.AddRow(x, rng.Bernoulli(r2 < 0.1 ? 0.85 : 0.2) ? 1.0 : 0.0);
  }
  return d;
}

// 8192 + 37 probe rows: the training rows (values next to the learned
// thresholds), edge values (outside [0,1], signed zeros, +-inf, NaN) and
// fresh uniform rows.
std::vector<double> ProbeRows(int dim, const Dataset* train, uint64_t seed) {
  constexpr int kRows = 8192 + 37;
  const double edges[] = {-1.0, -0.0, 0.0, 0.25, 0.5, 0.75, 1.0, 2.0,
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN()};
  Rng rng(seed);
  std::vector<double> x;
  x.reserve(static_cast<size_t>(kRows) * dim);
  for (int i = 0; i < kRows; ++i) {
    for (int j = 0; j < dim; ++j) {
      if (train != nullptr && i < train->num_rows()) {
        x.push_back(train->x(i, j));
      } else if (i % 5 == 0) {
        x.push_back(edges[rng.UniformInt(std::size(edges))]);
      } else {
        x.push_back(rng.Uniform());
      }
    }
  }
  return x;
}

// PredictBlock over `probe`, cut into blocks of `block` rows (the last
// one ragged), equals PredictProb row for row, bit for bit.
void ExpectBlockMatchesRows(const Metamodel& model,
                            const std::vector<double>& probe, int block) {
  const size_t m = static_cast<size_t>(model.num_features());
  const int rows = static_cast<int>(probe.size() / m);
  std::vector<double> out(static_cast<size_t>(rows), -1.0);
  for (int begin = 0; begin < rows; begin += block) {
    model.PredictBlock(probe.data() + static_cast<size_t>(begin) * m,
                       std::min(block, rows - begin), out.data() + begin);
  }
  int mismatches = 0;
  for (int r = 0; r < rows; ++r) {
    const double want = model.PredictProb(probe.data() + r * m);
    if (std::bit_cast<uint64_t>(out[static_cast<size_t>(r)]) !=
        std::bit_cast<uint64_t>(want)) {
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0) << "block " << block << " of " << rows << " rows";
}

template <typename Model>
void ExpectBlockMatchesRowsAfterReload(const Model& model,
                                       const std::vector<double>& probe) {
  for (int block : {1, 7, 8192, 1 << 20}) {
    ExpectBlockMatchesRows(model, probe, block);
  }
  util::ByteWriter out;
  model.SerializeTo(&out);
  util::ByteReader in(out.data());
  Model reloaded;
  ASSERT_TRUE(reloaded.DeserializeFrom(&in).ok());
  for (int block : {1, 7, 8192, 1 << 20}) {
    ExpectBlockMatchesRows(reloaded, probe, block);
  }
}

TEST(PredictBlockTest, GbtDepthWiseMatchesPredictProb) {
  const Dataset train = NoisyData(600, 5, 21);
  const std::vector<double> probe = ProbeRows(5, &train, 22);
  // 2-6 span the default and the tuning grids; 10 exceeds the complete-tree
  // layout and keeps the pointer walk inside the same loop. Histogram-fit
  // ensembles (binned thresholds) go through the same block layouts.
  for (SplitBackend backend :
       {SplitBackend::kPresorted, SplitBackend::kHistogram}) {
    for (int depth : {2, 4, 6, 10}) {
      SCOPED_TRACE(std::string(SplitBackendName(backend)) + " max_depth " +
                   std::to_string(depth));
      GbtConfig config;
      config.num_rounds = 40;
      config.max_depth = depth;
      config.subsample = 0.8;
      config.backend = backend;
      GradientBoostedTrees gbt(config);
      gbt.Fit(train, 23);
      ExpectBlockMatchesRowsAfterReload(gbt, probe);
    }
  }
}

TEST(PredictBlockTest, RandomForestWithMultiWordTreesMatchesPredictProb) {
  const Dataset train = NoisyData(800, 4, 27);
  const std::vector<double> probe = ProbeRows(4, &train, 28);
  RandomForestConfig config;
  config.num_trees = 30;
  RandomForest rf(config);
  rf.Fit(train, 29);
  int most_leaves = 0;
  for (int t = 0; t < rf.num_trees(); ++t) {
    most_leaves = std::max(most_leaves, rf.tree(t).num_leaves());
  }
  EXPECT_GT(most_leaves, 128) << "want leaf masks of three or more words";
  ExpectBlockMatchesRowsAfterReload(rf, probe);
}

TEST(PredictBlockTest, SvmMatchesPredictProb) {
  const Dataset train = NoisyData(300, 3, 30);
  const std::vector<double> probe = ProbeRows(3, &train, 31);
  SvmRbf svm;
  svm.Fit(train, 32);
  ASSERT_GT(svm.num_support_vectors(), 1);
  ExpectBlockMatchesRowsAfterReload(svm, probe);
}

// Hand-made payloads the fitters never produce: a NaN threshold, children
// shared by two parents, and (GBT) a tree deeper than the complete-tree
// layout. Thresholds sit on probe edge values, so `<=` ties are exercised.
// Node wire shape: feature, threshold, left, right, leaf value.
struct WireNode {
  int feature;
  double threshold;
  int left;
  int right;
  double leaf;
};

void WriteNodes(const std::vector<WireNode>& nodes, util::ByteWriter* out) {
  out->U64(nodes.size());
  for (const WireNode& nd : nodes) {
    out->I32(nd.feature);
    out->F64(nd.threshold);
    out->I32(nd.left);
    out->I32(nd.right);
    out->F64(nd.leaf);
  }
}

std::vector<std::vector<WireNode>> HandMadeTrees() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<std::vector<WireNode>> trees;
  // NaN threshold: x <= NaN never holds, every row goes right.
  trees.push_back({{0, nan, 1, 2, 0.0}, {-1, 0, -1, -1, 0.1},
                   {1, 0.5, 3, 4, 0.0}, {-1, 0, -1, -1, 0.3},
                   {-1, 0, -1, -1, 0.7}});
  // Node 1 is both children of the root.
  trees.push_back({{0, 0.5, 1, 1, 0.0}, {1, 0.3, 2, 3, 0.0},
                   {-1, 0, -1, -1, 0.2}, {-1, 0, -1, -1, 0.9}});
  // A chain of depth 9: internal node k at 2k, its right leaf at 2k + 1.
  std::vector<WireNode> chain;
  for (int k = 0; k < 9; ++k) {
    chain.push_back({k % 2, 0.25 * (k % 5), 2 * k + 2, 2 * k + 1, 0.0});
    chain.push_back({-1, 0, -1, -1, 0.05 * k});
  }
  chain.push_back({-1, 0, -1, -1, 0.95});
  trees.push_back(chain);
  return trees;
}

TEST(PredictBlockTest, HandMadeGbtPayloadMatchesPredictProb) {
  const auto trees = HandMadeTrees();
  util::ByteWriter out;
  out.I32(2);     // features
  out.F64(-0.25); // base margin
  out.U64(trees.size());
  for (const auto& nodes : trees) WriteNodes(nodes, &out);
  util::ByteReader in(out.data());
  GradientBoostedTrees gbt;
  ASSERT_TRUE(gbt.DeserializeFrom(&in).ok());
  ExpectBlockMatchesRowsAfterReload(gbt, ProbeRows(2, nullptr, 33));
}

TEST(PredictBlockTest, HandMadeForestPayloadMatchesPredictProb) {
  const auto trees = HandMadeTrees();
  util::ByteWriter out;
  out.I32(2);  // features
  out.U64(trees.size());
  for (const auto& nodes : trees) WriteNodes(nodes, &out);
  out.U64(trees.size());  // bag counts: one training row per tree
  for (size_t t = 0; t < trees.size(); ++t) out.VecI32({1});
  util::ByteReader in(out.data());
  RandomForest rf;
  ASSERT_TRUE(rf.DeserializeFrom(&in).ok());
  ExpectBlockMatchesRowsAfterReload(rf, ProbeRows(2, nullptr, 34));
}

TEST(PredictBlockTest, DefaultLoopsOverPredictProb) {
  // A family without an override gets the reference loop.
  class Constant : public Metamodel {
   public:
    void Fit(const Dataset&, uint64_t) override {}
    double PredictProb(const double* x) const override { return x[0] / 2; }
    int num_features() const override { return 2; }
  };
  const Constant model;
  const std::vector<double> probe = ProbeRows(2, nullptr, 35);
  ExpectBlockMatchesRows(model, probe, 7);
}

}  // namespace
}  // namespace reds::ml
