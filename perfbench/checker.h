// Answer checks computed apart from the program: exact L2 distances over the
// in-memory dataset, the exact top-k over the candidate set C(q), brute-force
// recall, and the Lemma 1 bound check on cached codes. Nothing here calls the
// program's distance kernels or its top-k heap.

#ifndef PERFBENCH_CHECKER_H_
#define PERFBENCH_CHECKER_H_

#include <span>
#include <string>
#include <vector>

#include "common/dataset.h"
#include "common/types.h"

namespace perfbench {

/// Relative tolerance of the Lemma 1 check: a bound may miss the exact
/// distance by at most kBoundTolerance * max(1, exact). The program and the
/// checker sum squared differences in different orders, so bounds that are
/// tight in exact arithmetic can differ from the checker's distance in the
/// last few bits of a double.
inline constexpr double kBoundTolerance = 1e-9;

/// Euclidean distance, accumulated in double.
double ExactL2(std::span<const eeb::Scalar> a, std::span<const eeb::Scalar> b);

/// The exact answer over C(q): the min(k, |C(q)|) smallest distances from
/// `q` to the candidates, sorted ascending.
std::vector<double> TopKDistances(const eeb::Dataset& data,
                                  std::span<const eeb::Scalar> q,
                                  std::span<const eeb::PointId> candidates,
                                  size_t k);

/// Checks a returned answer against the exact answer over C(q). The ids must
/// be distinct members of `candidates` (sorted ascending), and their sorted
/// distances must equal `expected` element for element, so two candidates
/// at equal distance are interchangeable and ties cannot fail the check.
/// Returns an empty string when the answer is right, else what is wrong.
std::string CheckAnswer(const eeb::Dataset& data,
                        std::span<const eeb::Scalar> q,
                        std::span<const eeb::PointId> returned,
                        std::span<const eeb::PointId> candidates,
                        const std::vector<double>& expected);

/// Lemma 1: lb <= exact <= ub within kBoundTolerance. Returns an empty
/// string when it holds.
std::string CheckBound(double lb, double exact, double ub);

/// The exact k nearest neighbours of `q` over the whole dataset (ids, any
/// order; ties broken by id).
std::vector<eeb::PointId> BruteForceKnn(const eeb::Dataset& data,
                                        std::span<const eeb::Scalar> q,
                                        size_t k);

/// Share of `truth` found in `returned`.
double Recall(std::span<const eeb::PointId> returned,
              std::span<const eeb::PointId> truth);

/// One cache hit as the Lemma 1 check sees it.
struct BoundSample {
  double lb = 0.0;
  double exact = 0.0;
  double ub = 0.0;
};

/// Feeds the checker a right answer with one id swapped for a farther
/// candidate, and a real cache hit with its lower bound shifted past the
/// exact distance. Returns an empty string when the checker accepts the
/// right answer and the real hit and rejects both faults, else which check
/// passed vacuously. `returned` must be a right answer for `q` over
/// `candidates`, and `candidates` must hold a point farther than every
/// returned one.
std::string SelfTest(const eeb::Dataset& data, std::span<const eeb::Scalar> q,
                     std::span<const eeb::PointId> returned,
                     std::span<const eeb::PointId> candidates, size_t k,
                     const BoundSample& hit);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKER_H_
