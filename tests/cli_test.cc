// End-to-end test of the mesa_cli binary: generate a world to disk, then
// explain a query from the files — the full gen -> CSV/KG -> explain round
// trip a downstream user exercises. Skipped when the binary is not found
// (e.g. when tests run from an unexpected working directory).

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace mesa {
namespace {

std::string CliPath() {
  for (const char* candidate :
       {"../src/mesa_cli", "./src/mesa_cli", "build/src/mesa_cli"}) {
    std::ifstream probe(candidate);
    if (probe.good()) return candidate;
  }
  return "";
}

// Runs a command, returns its std::system status (0 on success).
int RunCommand(const std::string& command) {
  return std::system(command.c_str());
}

// Runs a command, returns its exit code (-1 if it did not exit normally).
int ExitCode(const std::string& command) {
  int status = std::system(command.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(MesaCli, GenExplainRoundTrip) {
  std::string cli = CliPath();
  if (cli.empty()) GTEST_SKIP() << "mesa_cli binary not found";
  std::string prefix = testing::TempDir() + "/mesa_cli_world";
  std::string out = testing::TempDir() + "/mesa_cli_out.txt";

  ASSERT_EQ(RunCommand(cli + " gen --dataset covid --out " + prefix + " > " +
                       out + " 2>&1"),
            0)
      << Slurp(out);
  std::string gen_log = Slurp(out);
  EXPECT_NE(gen_log.find(".csv"), std::string::npos);
  EXPECT_NE(gen_log.find("triples"), std::string::npos);

  ASSERT_EQ(
      RunCommand(cli + " explain --data " + prefix + ".csv --kg " + prefix +
                 ".kg --extract Country,WHO_Region --query \"SELECT "
                 "Country, avg(Deaths_per_100_cases) FROM covid GROUP BY "
                 "Country\" --subgroups WHO_Region > " +
                 out + " 2>&1"),
      0)
      << Slurp(out);
  std::string explain_log = Slurp(out);
  EXPECT_NE(explain_log.find("correlation"), std::string::npos);
  EXPECT_NE(explain_log.find("explanation"), std::string::npos);
  EXPECT_NE(explain_log.find("unexplained data groups"), std::string::npos);

  // --metrics=FILE dumps the observability snapshot as JSON, with a span
  // for every layer of the run: loading (and the CSV reader's phases),
  // the explanation, and the subgroup search.
  std::string metrics = testing::TempDir() + "/mesa_cli_metrics.json";
  ASSERT_EQ(
      RunCommand(cli + " explain --data " + prefix + ".csv --kg " + prefix +
                 ".kg --extract Country,WHO_Region --query \"SELECT "
                 "Country, avg(Deaths_per_100_cases) FROM covid GROUP BY "
                 "Country\" --subgroups WHO_Region --metrics=" + metrics +
                 " --save-snapshot " + prefix + ".msnap > " + out + " 2>&1"),
      0)
      << Slurp(out);
  std::string metrics_json = Slurp(metrics);
  ASSERT_FALSE(metrics_json.empty());
  EXPECT_EQ(metrics_json.front(), '{');
  for (const char* name :
       {"info/cmi_evals", "qa/single_cmi/miss", "explain/mcimr", "load/csv",
        "load/csv/read", "load/csv/scan", "load/csv/parse",
        "load/csv/assemble", "load/kg", "subgroups"}) {
    EXPECT_NE(metrics_json.find("\"" + std::string(name) + "\""),
              std::string::npos)
        << name;
  }
  EXPECT_EQ(metrics_json.find("\"load/snapshot\""), std::string::npos);

  // A snapshot load has its own span and no CSV or KG parse.
  ASSERT_EQ(
      RunCommand(cli + " explain --snapshot " + prefix + ".msnap --query "
                 "\"SELECT Country, avg(Deaths_per_100_cases) FROM covid "
                 "GROUP BY Country\" --metrics=" + metrics + " > " + out +
                 " 2>&1"),
      0)
      << Slurp(out);
  metrics_json = Slurp(metrics);
  EXPECT_NE(metrics_json.find("\"load/snapshot\""), std::string::npos);
  EXPECT_EQ(metrics_json.find("\"load/csv\""), std::string::npos);
  std::remove(metrics.c_str());
  std::remove((prefix + ".msnap").c_str());

  std::remove((prefix + ".csv").c_str());
  std::remove((prefix + ".kg").c_str());
  std::remove(out.c_str());
}

TEST(MesaCli, UsageAndErrorPaths) {
  std::string cli = CliPath();
  if (cli.empty()) GTEST_SKIP() << "mesa_cli binary not found";
  std::string out = testing::TempDir() + "/mesa_cli_err.txt";
  // No arguments -> usage, exit 1.
  EXPECT_NE(RunCommand(cli + " > " + out + " 2>&1"), 0);
  EXPECT_NE(Slurp(out).find("usage"), std::string::npos);
  // Unknown dataset -> exit 1.
  EXPECT_NE(RunCommand(cli + " gen --dataset nope --out /tmp/x > " + out +
                       " 2>&1"),
            0);
  // Missing file -> exit 2.
  EXPECT_EQ(ExitCode(cli + " explain --data /nonexistent.csv --query "
                           "\"SELECT a, avg(b) FROM t GROUP BY a\" > " +
                     out + " 2>&1"),
            2);
  // A directory given as the data file -> I/O error naming it, exit 2.
  const std::string dir = testing::TempDir();
  EXPECT_EQ(ExitCode(cli + " explain --data " + dir + " --query "
                           "\"SELECT a, avg(b) FROM t GROUP BY a\" > " +
                     out + " 2>&1"),
            2);
  EXPECT_NE(Slurp(out).find("cannot read " + dir), std::string::npos)
      << Slurp(out);
  // Bad integer flags -> usage error, exit 1, never a silently clamped or
  // wrapped value.
  EXPECT_EQ(ExitCode(cli + " gen --dataset covid --rows -5 --out /tmp/x > " +
                     out + " 2>&1"),
            1);
  EXPECT_NE(Slurp(out).find("--rows"), std::string::npos);
  std::string prefix = testing::TempDir() + "/mesa_cli_err_world";
  ASSERT_EQ(ExitCode(cli + " gen --dataset covid --out " + prefix + " > " +
                     out + " 2>&1"),
            0);
  const std::string explain =
      cli + " explain --data " + prefix + ".csv --kg " + prefix +
      ".kg --extract Country,WHO_Region --query \"SELECT Country, "
      "avg(Deaths_per_100_cases) FROM covid GROUP BY Country\"";
  for (const char* bad : {"--k abc", "--k -1", "--hops -1", "--k 3x"}) {
    EXPECT_EQ(ExitCode(explain + " " + bad + " > " + out + " 2>&1"), 1)
        << bad << ": " << Slurp(out);
    EXPECT_NE(Slurp(out).find("non-negative integer"), std::string::npos)
        << bad;
  }
  // A KG without extraction columns, and KG flags next to a snapshot,
  // are usage errors.
  EXPECT_EQ(ExitCode(cli + " explain --data " + prefix + ".csv --kg " +
                     prefix + ".kg --query \"SELECT a, avg(b) FROM t GROUP "
                     "BY a\" > " + out + " 2>&1"),
            1);
  EXPECT_EQ(ExitCode(cli + " explain --snapshot /nonexistent.msnap --extract "
                           "Country --query \"SELECT a, avg(b) FROM t GROUP "
                           "BY a\" > " + out + " 2>&1"),
            1);
  std::remove((prefix + ".csv").c_str());
  std::remove((prefix + ".kg").c_str());
  std::remove(out.c_str());
}

// MESA_NUM_THREADS must be a whole positive integer. Anything else is
// reported once on stderr and the pool falls back to the hardware default;
// the report is the same as at any valid thread count.
TEST(MesaCli, BadThreadCountWarnsAndUsesHardwareDefault) {
  std::string cli = CliPath();
  if (cli.empty()) GTEST_SKIP() << "mesa_cli binary not found";
  std::string prefix = testing::TempDir() + "/mesa_cli_threads_world";
  std::string out = testing::TempDir() + "/mesa_cli_threads_out.txt";
  std::string err = testing::TempDir() + "/mesa_cli_threads_err.txt";
  ASSERT_EQ(ExitCode(cli + " gen --dataset covid --out " + prefix + " > " +
                     out + " 2>&1"),
            0);
  const std::string explain =
      " explain --data " + prefix + ".csv --kg " + prefix +
      ".kg --extract Country,WHO_Region --query \"SELECT Country, "
      "avg(Deaths_per_100_cases) FROM covid GROUP BY Country\"";
  auto run = [&](const std::string& threads) {
    return ExitCode("MESA_NUM_THREADS='" + threads + "' " + cli + explain +
                    " > " + out + " 2> " + err);
  };

  ASSERT_EQ(run("2"), 0) << Slurp(err);
  const std::string report = Slurp(out);
  ASSERT_FALSE(report.empty());
  EXPECT_EQ(Slurp(err).find("MESA_NUM_THREADS"), std::string::npos);

  for (const char* bad : {"0", "-2", "4abc", " 4", "abc"}) {
    ASSERT_EQ(run(bad), 0) << bad << ": " << Slurp(err);
    EXPECT_EQ(Slurp(out), report) << bad;
    const std::string log = Slurp(err);
    EXPECT_NE(log.find("MESA_NUM_THREADS=\"" + std::string(bad) + "\""),
              std::string::npos)
        << bad << ": " << log;
    EXPECT_EQ(log.find("MESA_NUM_THREADS"), log.rfind("MESA_NUM_THREADS"))
        << "expected one warning for " << bad << ": " << log;
  }
  std::remove((prefix + ".csv").c_str());
  std::remove((prefix + ".kg").c_str());
  std::remove(out.c_str());
  std::remove(err.c_str());
}

}  // namespace
}  // namespace mesa
