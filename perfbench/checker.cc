#include "checker.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

namespace perfbench {

using eeb::Dataset;
using eeb::PointId;
using eeb::Scalar;

double ExactL2(std::span<const Scalar> a, std::span<const Scalar> b) {
  double acc = 0.0;
  for (size_t j = 0; j < a.size(); ++j) {
    const double d = static_cast<double>(a[j]) - static_cast<double>(b[j]);
    acc += d * d;
  }
  return std::sqrt(acc);
}

std::vector<double> TopKDistances(const Dataset& data,
                                  std::span<const Scalar> q,
                                  std::span<const PointId> candidates,
                                  size_t k) {
  std::vector<double> dist;
  dist.reserve(candidates.size());
  for (PointId id : candidates) dist.push_back(ExactL2(q, data.point(id)));
  const size_t keep = std::min(k, dist.size());
  std::partial_sort(dist.begin(), dist.begin() + keep, dist.end());
  dist.resize(keep);
  return dist;
}

std::string CheckAnswer(const Dataset& data, std::span<const Scalar> q,
                        std::span<const PointId> returned,
                        std::span<const PointId> candidates,
                        const std::vector<double>& expected) {
  char msg[160];
  if (returned.size() != expected.size()) {
    std::snprintf(msg, sizeof(msg), "returned %zu ids, expected %zu",
                  returned.size(), expected.size());
    return msg;
  }
  std::vector<PointId> ids(returned.begin(), returned.end());
  std::sort(ids.begin(), ids.end());
  if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
    return "duplicate id in answer";
  }
  std::vector<double> got;
  got.reserve(ids.size());
  for (PointId id : ids) {
    if (id >= data.size() ||
        !std::binary_search(candidates.begin(), candidates.end(), id)) {
      std::snprintf(msg, sizeof(msg), "id %u is not in C(q)",
                    static_cast<unsigned>(id));
      return msg;
    }
    got.push_back(ExactL2(q, data.point(id)));
  }
  std::sort(got.begin(), got.end());
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i] != expected[i]) {
      std::snprintf(msg, sizeof(msg),
                    "rank %zu distance %.17g, exact top-k has %.17g", i,
                    got[i], expected[i]);
      return msg;
    }
  }
  return {};
}

std::string CheckBound(double lb, double exact, double ub) {
  const double tol = kBoundTolerance * std::max(1.0, exact);
  if (lb <= exact + tol && exact <= ub + tol) return {};
  char msg[160];
  std::snprintf(msg, sizeof(msg), "Lemma 1 violated: lb %.17g exact %.17g "
                "ub %.17g", lb, exact, ub);
  return msg;
}

std::vector<PointId> BruteForceKnn(const Dataset& data,
                                   std::span<const Scalar> q, size_t k) {
  std::vector<std::pair<double, PointId>> all(data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    const auto id = static_cast<PointId>(i);
    all[i] = {ExactL2(q, data.point(id)), id};
  }
  const size_t keep = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + keep, all.end());
  std::vector<PointId> ids(keep);
  for (size_t i = 0; i < keep; ++i) ids[i] = all[i].second;
  return ids;
}

double Recall(std::span<const PointId> returned,
              std::span<const PointId> truth) {
  if (truth.empty()) return 1.0;
  size_t found = 0;
  for (PointId id : truth) {
    found += std::find(returned.begin(), returned.end(), id) != returned.end();
  }
  return static_cast<double>(found) / static_cast<double>(truth.size());
}

std::string SelfTest(const Dataset& data, std::span<const Scalar> q,
                     std::span<const PointId> returned,
                     std::span<const PointId> candidates, size_t k,
                     const BoundSample& hit) {
  const std::vector<double> expected = TopKDistances(data, q, candidates, k);
  if (std::string e = CheckAnswer(data, q, returned, candidates, expected);
      !e.empty()) {
    return "self-test: the checker rejects a right answer: " + e;
  }
  // Swap the nearest returned id for a candidate farther than every
  // returned one.
  const double worst = expected.empty() ? 0.0 : expected.back();
  std::vector<PointId> swapped(returned.begin(), returned.end());
  auto nearest = std::min_element(
      swapped.begin(), swapped.end(), [&](PointId a, PointId b) {
        return ExactL2(q, data.point(a)) < ExactL2(q, data.point(b));
      });
  for (PointId c : candidates) {
    if (nearest != swapped.end() && ExactL2(q, data.point(c)) > worst) {
      *nearest = c;
      break;
    }
  }
  if (std::equal(swapped.begin(), swapped.end(), returned.begin())) {
    return "self-test: no farther candidate to swap in";
  }
  if (CheckAnswer(data, q, swapped, candidates, expected).empty()) {
    return "self-test: the checker accepts an answer with a farther id";
  }
  if (std::string e = CheckBound(hit.lb, hit.exact, hit.ub); !e.empty()) {
    return "self-test: the checker rejects a real cache hit: " + e;
  }
  // Past the exact distance by a millionth: a thousand times the tolerance.
  const double shift = 1e-6 * std::max(1.0, hit.exact);
  if (CheckBound(hit.exact + shift, hit.exact, hit.ub + shift).empty()) {
    return "self-test: the checker accepts a lower bound past the distance";
  }
  if (CheckBound(hit.lb, hit.exact, hit.exact - shift).empty()) {
    return "self-test: the checker accepts an upper bound below the distance";
  }
  return {};
}

}  // namespace perfbench
