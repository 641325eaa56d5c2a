#include "core/quality.h"

#include <algorithm>
#include <cassert>

namespace reds {

double Precision(const BoxStats& stats) {
  return stats.n > 0.0 ? stats.n_pos / stats.n : 0.0;
}

double Recall(const BoxStats& stats, double total_pos) {
  return total_pos > 0.0 ? stats.n_pos / total_pos : 0.0;
}

double WRAcc(const BoxStats& stats, double total_n, double total_pos) {
  if (stats.n <= 0.0 || total_n <= 0.0) return 0.0;
  return stats.n / total_n * (stats.n_pos / stats.n - total_pos / total_n);
}

double PrAuc(std::vector<PrPoint> points) {
  if (points.empty()) return 0.0;
  std::sort(points.begin(), points.end(), [](const PrPoint& a, const PrPoint& b) {
    return a.recall < b.recall ||
           (a.recall == b.recall && a.precision < b.precision);
  });
  // Collapse equal-recall runs to their best precision so the curve is a
  // function of recall.
  std::vector<PrPoint> unique;
  unique.reserve(points.size());
  for (const PrPoint& p : points) {
    if (!unique.empty() && unique.back().recall == p.recall) {
      unique.back().precision = p.precision;  // sorted: p has max precision
    } else {
      unique.push_back(p);
    }
  }
  points = std::move(unique);
  double auc = 0.0;
  // Left extension: constant precision from recall 0 to the first point.
  auc += points.front().recall * points.front().precision;
  for (size_t i = 0; i + 1 < points.size(); ++i) {
    const double dr = points[i + 1].recall - points[i].recall;
    auc += dr * 0.5 * (points[i].precision + points[i + 1].precision);
  }
  return auc;
}

double PrAucOnData(const std::vector<Box>& boxes, const Dataset& d) {
  const double total_pos = d.TotalPositive();
  std::vector<PrPoint> points;
  points.reserve(boxes.size());
  for (const BoxStats& stats : ComputeBoxStatsSequence(d, boxes)) {
    points.push_back({Recall(stats, total_pos), Precision(stats)});
  }
  return PrAuc(std::move(points));
}

double Consistency(const Box& a, const Box& b,
                   const std::vector<double>& domain_lo,
                   const std::vector<double>& domain_hi) {
  assert(a.dim() == b.dim());
  const double va = a.ClampedVolume(domain_lo, domain_hi);
  const double vb = b.ClampedVolume(domain_lo, domain_hi);
  const double vo = a.Intersect(b).ClampedVolume(domain_lo, domain_hi);
  const double vu = va + vb - vo;
  if (vu <= 0.0) return 1.0;  // both boxes empty -> identical scenarios
  return vo / vu;
}

double MeanPairwiseConsistency(const std::vector<Box>& boxes,
                               const std::vector<double>& domain_lo,
                               const std::vector<double>& domain_hi) {
  const size_t n = boxes.size();
  if (n < 2) return 1.0;
  double sum = 0.0;
  size_t pairs = 0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      sum += Consistency(boxes[i], boxes[j], domain_lo, domain_hi);
      ++pairs;
    }
  }
  return sum / static_cast<double>(pairs);
}

int NumIrrelevantRestricted(const Box& box, const std::vector<bool>& relevant) {
  assert(static_cast<int>(relevant.size()) == box.dim());
  int count = 0;
  for (int j = 0; j < box.dim(); ++j) {
    if (box.IsRestricted(j) && !relevant[static_cast<size_t>(j)]) ++count;
  }
  return count;
}

}  // namespace reds
