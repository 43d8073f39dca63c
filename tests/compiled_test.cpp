// Compiled-matcher correctness: the bytecode path must be bit-identical
// to the tree-walking evaluator — unit cases for each hazard the
// compiler handles (impure cells, bare-ref fallthrough, depth caps,
// requirement groups), then a seeded differential fuzz pinning
// rank_matches_compiled() to rank_matches() on random ad populations.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "match/classad.hpp"
#include "match/compiled.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace resmatch::match {
namespace {

ClassAd machine(double memory, double cpus, const std::string& arch) {
  ClassAd m;
  m.set("memory", memory);
  m.set("cpus", cpus);
  m.set("arch", Value(arch));
  return m;
}

TEST(CompiledMatcher, MatchesTreeOnSimplePopulation) {
  ClassAd job;
  job.set("req_memory", 16.0);
  job.set_expr("requirements", "other.memory >= my.req_memory");
  job.set_expr("rank", "other.memory");

  std::vector<ClassAd> machines;
  for (double mem : {4.0, 64.0, 16.0, 32.0, 8.0, 16.0}) {
    machines.push_back(machine(mem, 4.0, "x86_64"));
  }
  const MachineTable table = MachineTable::build(machines);
  EXPECT_EQ(table.rows(), machines.size());
  EXPECT_EQ(table.impure_cells(), 0u);

  CompiledMatcher::Stats stats;
  const auto compiled = rank_matches_compiled(job, table, &stats);
  const auto tree = rank_matches(job, machines);
  EXPECT_EQ(compiled, tree);
  EXPECT_EQ(stats.fallback_rows, 0u);
  // memory >= 16 lowers to a prefilter term: the 4- and 8-MiB rows are
  // rejected by the vector scan, the rest by bytecode.
  EXPECT_EQ(stats.prefiltered_rows, 2u);
  EXPECT_EQ(stats.compiled_rows + stats.prefiltered_rows, machines.size());
}

TEST(CompiledMatcher, MachineRequirementsGroupsAreHonored) {
  ClassAd job;
  job.set("owner_prio", 3.0);
  job.set_expr("requirements", "other.memory >= 8");
  job.set_expr("rank", "other.memory");

  std::vector<ClassAd> machines;
  // Group A: picky machines that also constrain the request.
  for (double mem : {8.0, 32.0}) {
    ClassAd m = machine(mem, 2.0, "arm64");
    m.set_expr("requirements", "other.owner_prio >= 2");
    machines.push_back(m);
  }
  // Group B: machines that reject this request.
  {
    ClassAd m = machine(64.0, 8.0, "x86_64");
    m.set_expr("requirements", "other.owner_prio >= 5");
    machines.push_back(m);
  }
  // Group 0: no requirements at all.
  machines.push_back(machine(16.0, 4.0, "x86_64"));
  // Too little memory: fails the job's requirements.
  machines.push_back(machine(4.0, 1.0, "x86_64"));

  const MachineTable table = MachineTable::build(machines);
  EXPECT_EQ(table.group_count(), 3u);  // group 0 + two distinct sources
  EXPECT_EQ(rank_matches_compiled(job, table), rank_matches(job, machines));
}

TEST(CompiledMatcher, ImpureCellFallsBackPerRow) {
  ClassAd job;
  job.set("target_quality", 10.0);
  job.set_expr("requirements", "other.quality >= 3");

  std::vector<ClassAd> machines;
  // quality depends on the REQUEST — not materializable ahead of match.
  {
    ClassAd m = machine(16.0, 4.0, "x86_64");
    m.set_expr("quality", "other.target_quality / 2");
    machines.push_back(m);
  }
  // quality is a plain constant — compiled path serves this row.
  {
    ClassAd m = machine(16.0, 4.0, "x86_64");
    m.set("quality", 7.0);
    machines.push_back(m);
  }
  // quality missing entirely: requirements are UNDEFINED, no match.
  machines.push_back(machine(16.0, 4.0, "x86_64"));

  const MachineTable table = MachineTable::build(machines);
  EXPECT_EQ(table.impure_cells(), 1u);

  CompiledMatcher::Stats stats;
  const auto compiled = rank_matches_compiled(job, table, &stats);
  EXPECT_EQ(compiled, rank_matches(job, machines));
  EXPECT_EQ(stats.fallback_rows, 1u);  // only the impure row
  EXPECT_EQ(stats.compiled_rows, 2u);
}

TEST(CompiledMatcher, BareRefFallsThroughToRequest) {
  // Machine requirements use a bare name only the REQUEST defines: the
  // Condor lookup order (self first, then other) must survive
  // compilation on both sides.
  ClassAd job;
  job.set("pool", Value(std::string("prod")));
  job.set_expr("requirements", "other.memory >= 8");

  std::vector<ClassAd> machines;
  {
    // Bare `pool` undefined here -> falls through to the request.
    ClassAd m = machine(16.0, 4.0, "x86_64");
    m.set_expr("requirements", "pool == \"prod\"");
    machines.push_back(m);
  }
  {
    // Bare `pool` defined by the machine -> self wins, request ignored.
    ClassAd m = machine(16.0, 4.0, "x86_64");
    m.set("pool", Value(std::string("dev")));
    m.set_expr("requirements", "pool == \"prod\"");
    machines.push_back(m);
  }
  const MachineTable table = MachineTable::build(machines);
  const auto compiled = rank_matches_compiled(job, table);
  EXPECT_EQ(compiled, rank_matches(job, machines));
  ASSERT_EQ(compiled.size(), 1u);
  EXPECT_EQ(compiled[0], 0u);
}

TEST(CompiledMatcher, ReferenceCycleFallsBackAndStillAgrees) {
  ClassAd job;
  job.set_expr("requirements", "other.a > 0");

  std::vector<ClassAd> machines;
  {
    ClassAd m = machine(16.0, 4.0, "x86_64");
    m.set_expr("a", "b + 1");
    m.set_expr("b", "a + 1");  // cycle: tree evaluates to UNDEFINED
    machines.push_back(m);
  }
  machines.push_back(machine(16.0, 4.0, "x86_64"));
  const MachineTable table = MachineTable::build(machines);
  EXPECT_GE(table.impure_cells(), 2u);
  EXPECT_EQ(rank_matches_compiled(job, table), rank_matches(job, machines));
}

TEST(CompiledMatcher, NoRequirementsOrRankMatchesEverything) {
  ClassAd job;  // empty request: everything matches at rank 0
  std::vector<ClassAd> machines;
  for (double mem : {1.0, 2.0, 3.0}) {
    machines.push_back(machine(mem, 1.0, "x86_64"));
  }
  const MachineTable table = MachineTable::build(machines);
  CompiledMatcher::Stats stats;
  const auto compiled = rank_matches_compiled(job, table, &stats);
  EXPECT_EQ(compiled, rank_matches(job, machines));
  EXPECT_EQ(compiled.size(), machines.size());
  // Rank ties keep row order.
  EXPECT_EQ(compiled, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(stats.fallback_rows, 0u);
}

TEST(CompiledMatcher, UncompilableProgramFallsBackWholesale) {
  // A request requirements chain deeper than the compiler's inline cap
  // must be served by the tree walker — and still agree with it.
  ClassAd job;
  for (int i = 0; i < 40; ++i) {
    job.set_expr(util::format("c%d", i), util::format("c%d + 1", i + 1));
  }
  job.set("c40", 1.0);
  job.set_expr("requirements", "c0 > 0 && other.memory >= 8");

  std::vector<ClassAd> machines;
  machines.push_back(machine(16.0, 4.0, "x86_64"));
  machines.push_back(machine(4.0, 1.0, "x86_64"));

  const MachineTable table = MachineTable::build(machines);
  CompiledMatcher matcher(job, table);
  EXPECT_FALSE(matcher.fully_compiled());

  CompiledMatcher::Stats stats;
  EXPECT_EQ(rank_matches_compiled(job, table, &stats),
            rank_matches(job, machines));
  EXPECT_EQ(stats.compiled_rows, 0u);
  // The `other.memory >= 8` conjunct still prefilters the 4-MiB row —
  // sound even though the whole program is uncompilable, because a FALSE
  // conjunct caps the tri-state && at non-TRUE no matter how the rest of
  // the chain evaluates. Only the surviving row pays the tree walk.
  EXPECT_EQ(stats.prefiltered_rows, 1u);
  EXPECT_EQ(stats.fallback_rows, machines.size() - 1);
}

TEST(CompiledMatcher, PrefilterExtractsNumericConjuncts) {
  ClassAd job;
  job.set("req_memory", 16.0);
  // Three conjuncts: two numeric (prefilterable — the first via the
  // request-side inline of my.req_memory), one string (left for full
  // evaluation).
  job.set_expr("requirements",
               "other.memory >= my.req_memory && other.cpus >= 2 && "
               "other.arch == \"x86_64\"");
  job.set_expr("rank", "other.memory");

  std::vector<ClassAd> machines;
  for (double mem : {4.0, 64.0, 8.0, 32.0, 16.0, 2.0}) {
    machines.push_back(machine(mem, mem >= 16.0 ? 4.0 : 1.0, "x86_64"));
  }
  const MachineTable table = MachineTable::build(machines);
  CompiledMatcher matcher(job, table);
  EXPECT_EQ(matcher.prefilter_term_count(), 2u);

  const auto ranked = matcher.rank_all();
  EXPECT_EQ(ranked, rank_matches(job, machines));
  const CompiledMatcher::Stats& stats = matcher.stats();
  // memory < 16 or cpus < 2 rows never reach per-row evaluation.
  EXPECT_EQ(stats.prefiltered_rows, 3u);
  EXPECT_EQ(stats.compiled_rows + stats.fallback_rows +
                stats.prefiltered_rows,
            machines.size());
}

TEST(CompiledMatcher, PrefilterNormalizesLiteralOnLeft) {
  ClassAd job;
  job.set_expr("requirements", "16 <= other.memory && 8.0 > other.cpus");

  std::vector<ClassAd> machines;
  machines.push_back(machine(32.0, 4.0, "x86_64"));   // match
  machines.push_back(machine(8.0, 4.0, "x86_64"));    // memory too small
  machines.push_back(machine(32.0, 12.0, "x86_64"));  // cpus too large
  const MachineTable table = MachineTable::build(machines);
  CompiledMatcher matcher(job, table);
  EXPECT_EQ(matcher.prefilter_term_count(), 2u);
  EXPECT_EQ(matcher.rank_all(), rank_matches(job, machines));
  EXPECT_EQ(matcher.stats().prefiltered_rows, 2u);
}

TEST(CompiledMatcher, PrefilterNeverRejectsNonNumericCells) {
  // The scanned column holds an impure cell (value depends on the
  // request and is TRUE-worthy inside the match), a string cell, and a
  // missing cell: none may be prefilter-rejected, and the results must
  // still equal the tree's.
  ClassAd job;
  job.set("req_memory", 16.0);
  job.set_expr("requirements", "other.memory >= 16");

  std::vector<ClassAd> machines;
  {
    ClassAd m;  // memory = 64 inside the match, but impure -> fallback
    m.set_expr("memory", "other.req_memory * 4");
    m.set("cpus", 4.0);
    machines.push_back(m);
  }
  {
    ClassAd m;  // memory is a string: requirements UNDEFINED, no match
    m.set("memory", Value(std::string("lots")));
    machines.push_back(m);
  }
  {
    ClassAd m;  // no memory at all: UNDEFINED, no match
    m.set("cpus", 2.0);
    machines.push_back(m);
  }
  machines.push_back(machine(8.0, 1.0, "x86_64"));  // numeric, too small

  const MachineTable table = MachineTable::build(machines);
  CompiledMatcher matcher(job, table);
  ASSERT_EQ(matcher.prefilter_term_count(), 1u);
  EXPECT_EQ(matcher.rank_all(), rank_matches(job, machines));
  // Only the pure-numeric-false row was prefiltered; the impure row went
  // through the tree fallback and matched.
  EXPECT_EQ(matcher.stats().prefiltered_rows, 1u);
  EXPECT_EQ(matcher.stats().fallback_rows, 1u);
}

TEST(CompiledMatcher, CompleteNumericRequirementsDecidedByScan) {
  // Every conjunct lowers to a term: the scan both rejects and ACCEPTS.
  // Rows with non-numeric / impure / missing cells stay undecided and go
  // through full evaluation; everything must still equal the tree.
  ClassAd job;
  job.set_expr("requirements", "other.memory >= 16 && other.cpus >= 2");
  job.set_expr("rank", "other.memory");

  std::vector<ClassAd> machines;
  machines.push_back(machine(32.0, 4.0, "x86_64"));  // accepted by scan
  machines.push_back(machine(8.0, 4.0, "x86_64"));   // rejected by scan
  {
    ClassAd m;  // memory impure (TRUE inside the match): undecided row
    m.set_expr("memory", "other.min_memory + 48");
    m.set("cpus", 8.0);
    machines.push_back(m);
  }
  {
    ClassAd m;  // cpus is a string: undecided, requirements UNDEFINED
    m.set("memory", 64.0);
    m.set("cpus", Value(std::string("four")));
    machines.push_back(m);
  }
  job.set("min_memory", 16.0);

  const MachineTable table = MachineTable::build(machines);
  CompiledMatcher matcher(job, table);
  ASSERT_EQ(matcher.prefilter_term_count(), 2u);
  EXPECT_EQ(matcher.rank_all(), rank_matches(job, machines));
  EXPECT_EQ(matcher.stats().prefiltered_rows, 1u);
  EXPECT_EQ(matcher.stats().fallback_rows, 1u);  // the impure row
}

TEST(CompiledMatcher, PrefilterAgreesWithTreeOverRandomPopulations) {
  util::Rng rng(4242);
  for (int round = 0; round < 20; ++round) {
    ClassAd job;
    job.set_expr("requirements",
                 "other.memory >= 16 && other.cpus < 6 && other.load != "
                 "0.5");
    job.set_expr("rank", "other.memory - other.load");
    // Random population sizes exercise the scan bounds; random
    // non-numeric holes exercise the mask.
    std::vector<ClassAd> machines(
        static_cast<std::size_t>(rng.uniform_int(1, 70)));
    for (ClassAd& m : machines) {
      if (rng.bernoulli(0.9)) {
        m.set("memory", static_cast<double>(rng.uniform_int(1, 64)));
      }
      if (rng.bernoulli(0.8)) {
        m.set("cpus", static_cast<double>(rng.uniform_int(1, 16)));
      } else if (rng.bernoulli(0.5)) {
        m.set("cpus", Value(std::string("many")));
      }
      m.set("load", static_cast<double>(rng.uniform_int(0, 10)) / 10.0);
    }
    // All three columns must exist for all three terms to extract.
    machines.front().set("memory", 32.0);
    machines.front().set("cpus", 4.0);
    const MachineTable table = MachineTable::build(machines);
    const auto tree = rank_matches(job, machines);

    // A row is prefiltered iff one of its numeric cells fails its term;
    // a missing or string cell never rejects.
    std::uint64_t expect_prefiltered = 0;
    for (const ClassAd& m : machines) {
      const Value memory = m.evaluate("memory");
      const Value cpus = m.evaluate("cpus");
      const Value load = m.evaluate("load");
      expect_prefiltered += static_cast<std::uint64_t>(
          (memory.is_number() && !(memory.as_number() >= 16)) ||
          (cpus.is_number() && !(cpus.as_number() < 6)) ||
          (load.is_number() && !(load.as_number() != 0.5)));
    }

    CompiledMatcher matcher(job, table);
    ASSERT_EQ(matcher.prefilter_term_count(), 3u);
    EXPECT_EQ(matcher.rank_all(), tree) << "round " << round;
    EXPECT_EQ(matcher.stats().prefiltered_rows, expect_prefiltered)
        << "round " << round;
  }
}

/// Random well-formed expression source over a shared attribute
/// vocabulary, same shape as property_match_test's generator.
class ExprGenerator {
 public:
  explicit ExprGenerator(std::uint64_t seed) : rng_(seed) {}

  std::string expression(int depth = 0) {
    if (depth >= 4 || rng_.bernoulli(0.3)) return atom();
    switch (rng_.uniform_int(0, 5)) {
      case 0:
        return "(" + expression(depth + 1) + " " + binary_op() + " " +
               expression(depth + 1) + ")";
      case 1:
        return "!(" + expression(depth + 1) + ")";
      case 2:
        return "-(" + expression(depth + 1) + ")";
      case 3:
        return "(" + expression(depth + 1) + " ? " + expression(depth + 1) +
               " : " + expression(depth + 1) + ")";
      case 4:
        return function_call(depth);
      default:
        return atom();
    }
  }

 private:
  std::string atom() {
    switch (rng_.uniform_int(0, 4)) {
      case 0:
        return util::format_number(rng_.uniform(-100.0, 100.0), 3);
      case 1:
        return rng_.bernoulli(0.5) ? "true" : "false";
      case 2:
        return "undefined";
      case 3: {
        static const char* names[] = {"memory", "cpus", "arch", "req_memory",
                                      "x"};
        std::string base = names[rng_.uniform_int(0, 4)];
        const auto scope = rng_.uniform_int(0, 2);
        if (scope == 1) return "my." + base;
        if (scope == 2) return "other." + base;
        return base;
      }
      default:
        return "\"s" +
               util::format("%d", static_cast<int>(rng_.uniform_int(0, 9))) +
               "\"";
    }
  }

  std::string binary_op() {
    static const char* ops[] = {"+",  "-",  "*",  "/",  "%",  "<",
                                "<=", ">",  ">=", "==", "!=", "&&",
                                "||"};
    return ops[rng_.uniform_int(0, 12)];
  }

  std::string function_call(int depth) {
    static const char* fns1[] = {"floor", "ceil", "abs", "isUndefined"};
    static const char* fns2[] = {"min", "max", "pow"};
    if (rng_.bernoulli(0.5)) {
      return std::string(fns1[rng_.uniform_int(0, 3)]) + "(" +
             expression(depth + 1) + ")";
    }
    return std::string(fns2[rng_.uniform_int(0, 2)]) + "(" +
           expression(depth + 1) + ", " + expression(depth + 1) + ")";
  }

  util::Rng rng_;
};

class CompiledDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CompiledDifferential, RankingsAreBitIdenticalToTree) {
  util::Rng rng(GetParam());
  ExprGenerator gen(GetParam() ^ 0xC0117ULL);
  for (int round = 0; round < 60; ++round) {
    ClassAd job;
    job.set("req_memory", static_cast<double>(rng.uniform_int(1, 64)));
    job.set("x", rng.uniform(-10.0, 10.0));
    ASSERT_TRUE(job.set_expr("requirements", gen.expression()));
    if (rng.bernoulli(0.8)) {
      ASSERT_TRUE(job.set_expr("rank", gen.expression()));
    }

    std::vector<ClassAd> machines(
        static_cast<std::size_t>(rng.uniform_int(1, 16)));
    for (ClassAd& m : machines) {
      m.set("memory", static_cast<double>(rng.uniform_int(1, 64)));
      if (rng.bernoulli(0.7)) m.set("cpus", static_cast<double>(
                                                rng.uniform_int(1, 16)));
      if (rng.bernoulli(0.5)) {
        m.set("arch", Value(rng.bernoulli(0.5) ? std::string("x86_64")
                                               : std::string("arm64")));
      }
      // Some machines carry computed attributes — pure, impure (other.
      // refs / bare fallthroughs), or arbitrary random expressions.
      if (rng.bernoulli(0.4)) {
        ASSERT_TRUE(m.set_expr("x", gen.expression()));
      }
      if (rng.bernoulli(0.5)) {
        ASSERT_TRUE(m.set_expr("requirements", gen.expression()));
      }
    }

    const MachineTable table = MachineTable::build(machines);
    const auto tree = rank_matches(job, machines);
    const auto compiled = rank_matches_compiled(job, table);
    ASSERT_EQ(compiled, tree)
        << "seed=" << GetParam() << " round=" << round
        << " requirements=" << to_string(*(*job.find("requirements")));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompiledDifferential,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u));

}  // namespace
}  // namespace resmatch::match
