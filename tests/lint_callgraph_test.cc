// Whole-program tests for crayfish_lint: the include-graph edge cases the
// module-DAG rule walks, and multi-file fixtures for R12 (global mutable
// state), which runs only in the whole-program driver (LintProgram). See
// DESIGN.md §4.5.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "crayfish_lint/include_graph.h"
#include "crayfish_lint/ir.h"
#include "crayfish_lint/lint.h"
#include "crayfish_lint/parser.h"

namespace crayfish::lint {
namespace {

int CountRule(const std::vector<Finding>& fs, Rule r) {
  int n = 0;
  for (const Finding& f : fs) n += f.rule == r ? 1 : 0;
  return n;
}

// The driver's whole-program context (R12 runs only there).
std::vector<Finding> LintProg(
    const std::vector<std::pair<std::string, std::string>>& sources) {
  LintOptions options;
  options.fix_suggestions = true;
  return LintProgram(sources, options);
}

const Finding* FirstOf(const std::vector<Finding>& fs, Rule r) {
  for (const Finding& f : fs) {
    if (f.rule == r) return &f;
  }
  return nullptr;
}

std::vector<FileIR> Parse(
    const std::vector<std::pair<std::string, std::string>>& sources) {
  std::vector<FileIR> irs;
  irs.reserve(sources.size());
  for (const auto& [path, src] : sources) {
    irs.push_back(ParseSource(path, src));
  }
  return irs;
}

// ---------------------------------------------------------------------------
// Include graph: diamond and self-include edge cases
// ---------------------------------------------------------------------------

TEST(IncludeGraphTest, DiamondIncludeIsNotACycle) {
  // core -> {sps, serving} -> common: two paths reconverge on the same base
  // module. A naive visited-set walk can misreport the reconvergence as a
  // back-edge; the DAG check must not.
  const auto irs = Parse({
      {"src/core/top.h",
       "#include \"sps/a.h\"\n#include \"serving/b.h\"\n"},
      {"src/sps/a.h", "#include \"common/base.h\"\n"},
      {"src/serving/b.h", "#include \"common/base.h\"\n"},
      {"src/common/base.h", "int Base();\n"},
  });
  IncludeGraph g;
  for (const FileIR& ir : irs) g.Add(ir);
  EXPECT_TRUE(g.FindCycles().empty());
  const auto& edges = g.edges();
  ASSERT_TRUE(edges.count("core"));
  EXPECT_TRUE(edges.at("core").count("sps"));
  EXPECT_TRUE(edges.at("core").count("serving"));
  ASSERT_TRUE(edges.count("sps"));
  EXPECT_TRUE(edges.at("sps").count("common"));
  // The shared base edge dedupes and keeps its first observed site.
  EXPECT_EQ(g.EdgeSite("sps", "common"), "src/sps/a.h:1");
}

TEST(IncludeGraphTest, SelfIncludeProducesNoEdgeAndNoCycle) {
  // A header including its own module (x.cc -> x.h is the normal case, a
  // literal self-include the pathological one) is not a module edge.
  const auto irs = Parse({
      {"src/sim/event.h", "#include \"sim/event.h\"\n#include \"sim/clock.h\"\n"},
      {"src/sim/clock.h", "int Now();\n"},
  });
  IncludeGraph g;
  for (const FileIR& ir : irs) g.Add(ir);
  EXPECT_TRUE(g.FindCycles().empty());
  const auto it = g.edges().find("sim");
  if (it != g.edges().end()) {
    EXPECT_EQ(it->second.count("sim"), 0u);
  }
}

TEST(IncludeGraphTest, RealCycleIsStillReportedOnce) {
  const auto irs = Parse({
      {"src/sim/a.h", "#include \"broker/b.h\"\n"},
      {"src/broker/b.h", "#include \"sim/a.h\"\n"},
  });
  IncludeGraph g;
  for (const FileIR& ir : irs) g.Add(ir);
  const auto cycles = g.FindCycles();
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0].front(), cycles[0].back());
}

// ---------------------------------------------------------------------------
// R12: global mutable state in sim-reachable code
// ---------------------------------------------------------------------------

TEST(R12GlobalStateTest, FlagsMutableNamespaceScopeVariable) {
  const auto fs = LintProg({{"src/sim/g.cc", "int g_counter = 0;\n"}});
  EXPECT_EQ(CountRule(fs, Rule::kGlobalState), 1);
}

TEST(R12GlobalStateTest, FlagsInternalLinkageGlobalToo) {
  const auto fs = LintProg({{"src/model/g.cc", "static double g_scale = 1.5;\n"}});
  EXPECT_EQ(CountRule(fs, Rule::kGlobalState), 1);
}

TEST(R12GlobalStateTest, FlagsFunctionLocalStatic) {
  const auto fs = LintProg({{"src/sim/g.cc",
                             "int NextId() {\n"
                             "  static int id = 0;\n"
                             "  id = id + 1;\n"
                             "  return id;\n"
                             "}\n"}});
  EXPECT_EQ(CountRule(fs, Rule::kGlobalState), 1);
  const Finding* f = FirstOf(fs, Rule::kGlobalState);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->line, 2);
}

TEST(R12GlobalStateTest, ConstAndConstexprGlobalsAreClean) {
  const auto fs = LintProg({{"src/sim/g.cc",
                             "constexpr int kMaxHosts = 64;\n"
                             "const char* const kName = \"crayfish\";\n"}});
  EXPECT_EQ(CountRule(fs, Rule::kGlobalState), 0);
}

TEST(R12GlobalStateTest, ExternDeclarationIsClean) {
  const auto fs = LintProg({{"src/sim/g.cc", "extern int g_counter;\n"}});
  EXPECT_EQ(CountRule(fs, Rule::kGlobalState), 0);
}

TEST(R12GlobalStateTest, OutsideSimReachableDirsIsOutOfScope) {
  const auto fs = LintProg({{"src/common/g.cc", "int g_counter = 0;\n"}});
  EXPECT_EQ(CountRule(fs, Rule::kGlobalState), 0);
}

TEST(R12GlobalStateTest, StaticConstLocalIsClean) {
  const auto fs = LintProg({{"src/sim/g.cc",
                             "int Limit() {\n"
                             "  static const int kCap = 32;\n"
                             "  return kCap;\n"
                             "}\n"}});
  EXPECT_EQ(CountRule(fs, Rule::kGlobalState), 0);
}

TEST(R12GlobalStateTest, SuppressionSilencesTheFinding) {
  const auto fs = LintProg({{"src/sim/g.cc",
                             "// lint: global-state-ok set once before the sim starts\n"
                             "int g_counter = 0;\n"}});
  EXPECT_EQ(CountRule(fs, Rule::kGlobalState), 0);
  EXPECT_EQ(CountRule(fs, Rule::kSuppression), 0);
}

}  // namespace
}  // namespace crayfish::lint
