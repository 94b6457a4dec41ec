// Self-test of the benchmark's oracle and percentile code on a collection
// small enough to check by hand. Every possible query over its 4-element
// universe is enumerated (the power-set idiom: one bitmask per subset) and
// compared with a hand-written table; the program's subset enumeration is
// then held against the same truth. Exit code 0 means every check passed.
//
//   los_perfbench_selftest

#include <cstdio>
#include <map>

#include "oracle.h"
#include "sets/subset_gen.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what, int detail = 0) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s (%d)\n", what, detail);
    ++failures;
  }
}

/// Calls fn(subset) for every non-empty subset of `universe`: bit i of the
/// mask selects universe[i].
template <typename Fn>
void ForEachSubsetOfUniverse(const perfbench::Set& universe, Fn&& fn) {
  for (unsigned mask = 1; mask < (1u << universe.size()); ++mask) {
    perfbench::Set q;
    for (size_t i = 0; i < universe.size(); ++i) {
      if (mask & (1u << i)) q.push_back(universe[i]);
    }
    fn(mask, q);
  }
}

}  // namespace

int main() {
  using perfbench::Set;
  // S0 = {0,1,2}, S1 = {1,2}, S2 = {0,3}, S3 = {1,2,3}, S4 = {2}.
  const std::vector<Set> sets = {{0, 1, 2}, {1, 2}, {0, 3}, {1, 2, 3}, {2}};
  // mask (bit i = element i) -> {first superset, count}, worked out by hand.
  const std::map<unsigned, perfbench::Truth> expected = {
      {0b0001, {0, 2}},  {0b0010, {0, 3}},  {0b0100, {0, 4}},
      {0b1000, {2, 2}},  {0b0011, {0, 1}},  {0b0101, {0, 1}},
      {0b1001, {2, 1}},  {0b0110, {0, 3}},  {0b1010, {3, 1}},
      {0b1100, {3, 1}},  {0b0111, {0, 1}},  {0b1011, {-1, 0}},
      {0b1101, {-1, 0}}, {0b1110, {3, 1}},  {0b1111, {-1, 0}}};

  // The program's enumeration of the same collection, by subset.
  los::sets::SetCollection collection;
  for (const Set& s : sets) collection.AddSorted(s);
  los::sets::SubsetGenOptions gen;
  gen.max_subset_size = 3;
  const los::sets::LabeledSubsets labeled =
      los::sets::EnumerateLabeledSubsets(collection, gen);
  std::map<Set, size_t> labeled_at;
  for (size_t i = 0; i < labeled.size(); ++i) {
    const auto v = labeled.subset(i);
    labeled_at[Set(v.begin(), v.end())] = i;
  }

  int queries = 0, present = 0;
  ForEachSubsetOfUniverse({0, 1, 2, 3}, [&](unsigned mask, const Set& q) {
    ++queries;
    const perfbench::Truth t = perfbench::BruteForce(sets, q);
    const perfbench::Truth& want = expected.at(mask);
    Expect(t.first == want.first, "first superset", static_cast<int>(mask));
    Expect(t.count == want.count, "superset count", static_cast<int>(mask));
    if (t.count > 0 && q.size() <= 3) {
      ++present;
      auto it = labeled_at.find(q);
      Expect(it != labeled_at.end(), "program enumerated the subset",
             static_cast<int>(mask));
      if (it != labeled_at.end()) {
        Expect(labeled.cardinality(it->second) == static_cast<double>(t.count),
               "program cardinality label", static_cast<int>(mask));
        Expect(labeled.first_position(it->second) == static_cast<double>(t.first),
               "program first-position label", static_cast<int>(mask));
      }
    }
  });
  Expect(queries == 15, "15 non-empty subsets of a 4-element universe");
  Expect(present == 12, "12 of them occur in some set");
  Expect(labeled.size() == 12, "program enumerated exactly the 12",
         static_cast<int>(labeled.size()));

  // ForEachSubset yields each subset of size <= max exactly once.
  std::vector<Set> subs;
  perfbench::ForEachSubset(Set{1, 2, 3}, 2, [&](const Set& s) { subs.push_back(s); });
  Expect(subs == std::vector<Set>{{1}, {2}, {3}, {1, 2}, {1, 3}, {2, 3}},
         "ForEachSubset of {1,2,3} up to size 2");
  int n = 0;
  perfbench::ForEachSubset(Set{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, 3,
                           [&](const Set&) { ++n; });
  Expect(n == 12 + 66 + 220, "C(12,1)+C(12,2)+C(12,3) subsets", n);

  // Nearest-rank percentiles.
  std::vector<double> v = {5, 1, 4, 2, 3};
  Expect(perfbench::Percentile(&v, 0.50) == 3, "p50 of 1..5");
  Expect(perfbench::Percentile(&v, 0.99) == 5, "p99 of 1..5");
  Expect(perfbench::Percentile(&v, 0.0) == 1, "p0 of 1..5");
  std::vector<double> w = {4, 3, 2, 1};
  Expect(perfbench::Percentile(&w, 0.50) == 2, "p50 of 1..4");
  std::vector<double> x;
  for (int i = 20; i >= 1; --i) x.push_back(i);
  Expect(perfbench::Percentile(&x, 0.95) == 19, "p95 of 1..20");
  Expect(perfbench::Percentile(&x, 1.0) == 20, "max of 1..20");

  // q-error.
  Expect(perfbench::QError(2, 4) == 2, "q-error 2 vs 4");
  Expect(perfbench::QError(3, 1) == 3, "q-error 3 vs 1");
  Expect(perfbench::QError(0.5, 1) == 1, "q-error floors estimates at 1");

  // Same seed, same inputs; another seed, other inputs.
  perfbench::Rng a(7), b(7), c(8);
  Expect(perfbench::Generate(perfbench::TweetsLikeSpec(), &a) ==
             perfbench::Generate(perfbench::TweetsLikeSpec(), &b),
         "generation is a function of the seed");
  perfbench::Rng d(7);
  Expect(perfbench::Generate(perfbench::TweetsLikeSpec(), &c) !=
             perfbench::Generate(perfbench::TweetsLikeSpec(), &d),
         "another seed gives another collection");

  if (failures == 0) std::printf("selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
