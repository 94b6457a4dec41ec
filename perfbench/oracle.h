#ifndef LOS_PERFBENCH_ORACLE_H_
#define LOS_PERFBENCH_ORACLE_H_

// The benchmark's own inputs and ground truth. Nothing here calls into the
// program: the collections, query streams and write streams are generated
// from the seed with this file's RNG and Zipf sampler, and every answer the
// program gives is judged against a brute-force scan over these sets. A
// change to the program's generators or baselines therefore cannot change
// what is measured or what counts as correct.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

namespace perfbench {

using Set = std::vector<uint32_t>;  ///< sorted, distinct element ids

/// SplitMix64: small, fast and fully specified, so a seed means the same
/// inputs on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); n > 0.
  uint64_t Uniform(uint64_t n) { return Next() % n; }
  /// Uniform in [lo, hi].
  uint64_t Range(uint64_t lo, uint64_t hi) { return lo + Uniform(hi - lo + 1); }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Zipf(n, s) over ranks 0..n-1 by inverse-CDF lookup.
class Zipf {
 public:
  Zipf(size_t n, double skew) : cdf_(n) {
    double total = 0.0;
    for (size_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), skew);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  size_t Sample(Rng* rng) const {
    const double u = rng->Unit();
    auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<size_t>(static_cast<size_t>(it - cdf_.begin()),
                            cdf_.size() - 1);
  }
  size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

/// A seeded permutation of 0..n-1 (maps Zipf ranks to element ids or rows,
/// so the hot elements and hot rows are not simply the smallest ids).
inline std::vector<uint32_t> Permutation(size_t n, Rng* rng) {
  std::vector<uint32_t> p(n);
  std::iota(p.begin(), p.end(), 0u);
  for (size_t i = n; i > 1; --i) std::swap(p[i - 1], p[rng->Uniform(i)]);
  return p;
}

/// Draws a set of `size` distinct elements: Zipf rank -> id through `ids`.
inline Set DrawSet(const Zipf& zipf, const std::vector<uint32_t>& ids,
                   size_t size, Rng* rng) {
  size = std::min(size, ids.size());
  Set s;
  s.reserve(size);
  while (s.size() < size) {
    const uint32_t e = ids[zipf.Sample(rng)];
    if (std::find(s.begin(), s.end(), e) == s.end()) s.push_back(e);
  }
  std::sort(s.begin(), s.end());
  return s;
}

/// Shape of a generated collection.
struct CollectionSpec {
  size_t num_sets;
  size_t universe;
  double skew;
  size_t min_size;
  size_t max_size;
};

/// RW-like: Zipf(0.9) elements, sets of 2-8 (the bench scale of rw-small).
inline CollectionSpec RwLikeSpec() { return {6001, 901, 0.9, 2, 8}; }

/// Tweets-like: heavier Zipf(1.1), sets of 1-12, small universe.
inline CollectionSpec TweetsLikeSpec() { return {1501, 231, 1.1, 1, 12}; }

/// Generates a collection. Element ids are a seeded permutation of the Zipf
/// ranks; it is returned through `ids` when that is not null.
inline std::vector<Set> Generate(const CollectionSpec& spec, Rng* rng,
                                 std::vector<uint32_t>* ids_out = nullptr) {
  const Zipf zipf(spec.universe, spec.skew);
  const std::vector<uint32_t> ids = Permutation(spec.universe, rng);
  if (ids_out != nullptr) *ids_out = ids;
  std::vector<Set> sets;
  sets.reserve(spec.num_sets);
  for (size_t i = 0; i < spec.num_sets; ++i) {
    sets.push_back(
        DrawSet(zipf, ids, rng->Range(spec.min_size, spec.max_size), rng));
  }
  return sets;
}

/// Largest element id + 1 over `sets`.
inline uint32_t UniverseOf(const std::vector<Set>& sets) {
  uint32_t u = 0;
  for (const Set& s : sets) {
    if (!s.empty()) u = std::max(u, s.back() + 1);
  }
  return u;
}

/// Random non-empty subset of `s` with at most `max_size` elements.
inline Set RandomSubset(const Set& s, size_t max_size, Rng* rng) {
  const size_t k = rng->Range(1, std::min(max_size, s.size()));
  Set pool = s;
  for (size_t i = 0; i < k; ++i) {
    std::swap(pool[i], pool[i + rng->Uniform(pool.size() - i)]);
  }
  Set q(pool.begin(), pool.begin() + static_cast<std::ptrdiff_t>(k));
  std::sort(q.begin(), q.end());
  return q;
}

/// q ⊆ s for sorted q and s (merge scan).
inline bool IsSubset(const Set& q, const Set& s) {
  size_t j = 0;
  for (uint32_t e : q) {
    while (j < s.size() && s[j] < e) ++j;
    if (j == s.size() || s[j] != e) return false;
    ++j;
  }
  return true;
}

/// Brute-force truth for one query: first superset position and count.
struct Truth {
  int64_t first = -1;
  uint64_t count = 0;
};

inline Truth BruteForce(const std::vector<Set>& sets, const Set& q) {
  Truth t;
  for (size_t i = 0; i < sets.size(); ++i) {
    if (IsSubset(q, sets[i])) {
      if (t.first < 0) t.first = static_cast<int64_t>(i);
      ++t.count;
    }
  }
  return t;
}

/// Calls fn(subset) for every subset of sorted `s` with 1..max_size
/// elements, in lexicographic order of index combinations.
template <typename Fn>
void ForEachSubset(const Set& s, size_t max_size, Fn&& fn) {
  const size_t n = s.size();
  Set sub;
  for (size_t k = 1; k <= std::min(max_size, n); ++k) {
    std::vector<size_t> idx(k);
    std::iota(idx.begin(), idx.end(), size_t{0});
    for (;;) {
      sub.clear();
      for (size_t i : idx) sub.push_back(s[i]);
      fn(sub);
      size_t i = k;
      while (i > 0 && idx[i - 1] == n - k + (i - 1)) --i;
      if (i == 0) break;
      ++idx[i - 1];
      for (size_t j = i; j < k; ++j) idx[j] = idx[j - 1] + 1;
    }
  }
}

/// Hash of a set's elements (FNV-1a), for the benchmark's own lookups.
struct SetHash {
  size_t operator()(const Set& s) const {
    uint64_t h = 1469598103934665603ULL;
    for (uint32_t e : s) h = (h ^ e) * 1099511628211ULL;
    return static_cast<size_t>(h);
  }
};

/// Nearest-rank percentile (p in [0, 1]) of `v`; reorders `v`. NaN when
/// empty. The rank is ceil(p * n), at least 1.
inline double Percentile(std::vector<double>* v, double p) {
  if (v->empty()) return std::numeric_limits<double>::quiet_NaN();
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v->size())));
  rank = std::clamp<size_t>(rank, 1, v->size());
  std::nth_element(v->begin(), v->begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   v->end());
  return (*v)[rank - 1];
}

/// q-error max(e/t, t/e), both floored at 1 (a count below 1 is no set).
inline double QError(double estimate, double truth) {
  const double e = std::max(estimate, 1.0);
  const double t = std::max(truth, 1.0);
  return std::max(e / t, t / e);
}

}  // namespace perfbench

#endif  // LOS_PERFBENCH_ORACLE_H_
