/**
 * @file
 * Unit tests for the shared command-line parser: both value
 * spellings, digit-only counts with a per-flag zero rule, the usage
 * errors, positionals among flags, and the generated usage text.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/cli.hh"

using namespace pmemspec;
using cli::Parser;
using cli::Zero;

namespace
{

/** A parser over one of each declaration kind, as a bench binary
 *  would declare them. */
struct Fixture
{
    std::uint64_t ops = 400;
    unsigned jobs = 0;
    bool torn = false;
    std::string json;
    std::vector<std::string> designs;
    std::vector<std::string> workloads;
    Parser cli{"prog", "What prog does."};

    Fixture()
    {
        cli.count("--ops", ops, Zero::Refused, "FASEs per thread");
        cli.count("--jobs", jobs, Zero::Allowed,
                  "workers\n(0 = host cores)");
        cli.flag("--torn", torn, "also explore torn writes");
        cli.string("--json", json, "PATH", "write the envelope");
        cli.callback("--designs", "L",
                     [this](const std::string &v) {
                         if (v == "Bogus")
                             return std::string("unknown design");
                         designs.push_back(v);
                         return std::string();
                     },
                     "comma list of designs");
        cli.positionals(workloads, "[workload ...]");
    }

    Parser::Result
    parse(std::vector<std::string> args)
    {
        return cli.parse(args);
    }
};

bool
ok(const Parser::Result &r)
{
    return r.status == Parser::Status::Ok;
}

} // namespace

TEST(Cli, AcceptsBothValueSpellings)
{
    Fixture f;
    ASSERT_TRUE(ok(f.parse({"--ops", "25", "--json=out.json"})));
    EXPECT_EQ(f.ops, 25u);
    EXPECT_EQ(f.json, "out.json");
    ASSERT_TRUE(ok(f.parse({"--ops=30", "--json", "b.json"})));
    EXPECT_EQ(f.ops, 30u);
    EXPECT_EQ(f.json, "b.json");
    // A value may itself contain '=' and may be empty for strings.
    ASSERT_TRUE(ok(f.parse({"--json=a=b"})));
    EXPECT_EQ(f.json, "a=b");
    ASSERT_TRUE(ok(f.parse({"--json="})));
    EXPECT_EQ(f.json, "");
}

TEST(Cli, RefusesMalformedCounts)
{
    for (const char *bad : {"-1", "-2", "+1", "abc", "", " 1", "1 ",
                            "0x10", "1e3", "12abc",
                            "18446744073709551616"}) {
        Fixture f;
        const auto r = f.parse({std::string("--ops=") + bad});
        EXPECT_EQ(r.status, Parser::Status::Error) << "'" << bad << "'";
        EXPECT_NE(r.error.find("--ops"), std::string::npos) << r.error;
        EXPECT_EQ(f.ops, 400u) << "refused value leaked: " << bad;
    }
    // The largest value of the target type still fits ...
    Fixture f;
    ASSERT_TRUE(ok(f.parse({"--ops", "18446744073709551615"})));
    EXPECT_EQ(f.ops, 18446744073709551615ULL);
    ASSERT_TRUE(ok(f.parse({"--jobs", "4294967295"})));
    EXPECT_EQ(f.jobs, 4294967295u);
    // ... one more does not wrap around.
    EXPECT_EQ(f.parse({"--jobs", "4294967296"}).status,
              Parser::Status::Error);
    EXPECT_EQ(f.jobs, 4294967295u);
}

TEST(Cli, ZeroIsAllowedOrRefusedPerDeclaration)
{
    Fixture f;
    ASSERT_TRUE(ok(f.parse({"--jobs", "0"})));
    EXPECT_EQ(f.jobs, 0u);
    const auto r = f.parse({"--ops", "0"});
    EXPECT_EQ(r.status, Parser::Status::Error);
    EXPECT_NE(r.error.find("positive"), std::string::npos) << r.error;
    EXPECT_EQ(f.ops, 400u);
    // Leading zeros are still digits.
    ASSERT_TRUE(ok(f.parse({"--ops", "007"})));
    EXPECT_EQ(f.ops, 7u);
}

TEST(Cli, ReadCountServesCallbacks)
{
    std::uint64_t n = 9;
    EXPECT_EQ(cli::readCount("shard", "3", Zero::Allowed, 10, n), "");
    EXPECT_EQ(n, 3u);
    EXPECT_NE(cli::readCount("shard", "11", Zero::Allowed, 10, n), "");
    EXPECT_NE(cli::readCount("shard", "0", Zero::Refused, 10, n), "");
    EXPECT_NE(cli::readCount("shard", "7", Zero::Allowed, 5, n), "");
    EXPECT_EQ(n, 3u);
}

TEST(Cli, UsageErrors)
{
    struct Case
    {
        std::vector<std::string> args;
        const char *needle;
    };
    const std::vector<Case> cases = {
        {{"--nope"}, "unknown option '--nope'"},
        {{"--nope=1"}, "unknown option '--nope'"},
        {{"-x"}, "unknown option '-x'"},
        {{"--ops"}, "missing value for --ops"},
        {{"--torn", "--json"}, "missing value for --json"},
        {{"--torn=yes"}, "--torn takes no value"},
        {{"--torn="}, "--torn takes no value"},
        {{"--designs", "Bogus"}, "unknown design"},
    };
    for (const auto &c : cases) {
        Fixture f;
        const auto r = f.parse(c.args);
        EXPECT_EQ(r.status, Parser::Status::Error) << c.needle;
        EXPECT_NE(r.error.find(c.needle), std::string::npos)
            << "got '" << r.error << "', want '" << c.needle << "'";
    }
}

TEST(Cli, PositionalsMixWithFlags)
{
    Fixture f;
    ASSERT_TRUE(ok(f.parse({"--json=x", "pm_array"})));
    EXPECT_EQ(f.json, "x");
    EXPECT_EQ(f.workloads, std::vector<std::string>{"pm_array"});

    Fixture g;
    ASSERT_TRUE(ok(g.parse(
        {"a", "--torn", "b", "--ops", "5", "--designs=HOPS", "c"})));
    EXPECT_TRUE(g.torn);
    EXPECT_EQ(g.ops, 5u);
    EXPECT_EQ(g.designs, std::vector<std::string>{"HOPS"});
    EXPECT_EQ(g.workloads, (std::vector<std::string>{"a", "b", "c"}));

    // Without a positionals declaration a bare word is an error.
    unsigned n = 0;
    Parser p("p");
    p.count("--n", n, Zero::Allowed, "n");
    EXPECT_EQ(p.parse({"3"}).status, Parser::Status::Error);
}

TEST(Cli, CallbackRunsOncePerOccurrence)
{
    Fixture f;
    ASSERT_TRUE(ok(f.parse({"--designs", "DPO", "--designs=HOPS"})));
    EXPECT_EQ(f.designs, (std::vector<std::string>{"DPO", "HOPS"}));
}

TEST(Cli, HelpWinsOverLaterArguments)
{
    for (const char *h : {"--help", "-h"}) {
        Fixture f;
        EXPECT_EQ(f.parse({"--ops", "5", h, "--nope"}).status,
                  Parser::Status::Help);
    }
}

TEST(Cli, UsageListsEveryDeclaredFlag)
{
    Fixture f;
    const std::string u = f.cli.usage();
    EXPECT_EQ(u.rfind("usage: prog [options] [workload ...]\n", 0), 0u)
        << u;
    EXPECT_NE(u.find("What prog does."), std::string::npos);
    for (const char *flag :
         {"--ops N", "--jobs N", "--torn", "--json PATH", "--designs L",
          "--help"})
        EXPECT_NE(u.find(std::string("  ") + flag + " "),
                  std::string::npos)
            << flag << " missing from:\n" << u;
    // Continuation lines of a help text align under its first line.
    const std::size_t first = u.find("workers\n");
    ASSERT_NE(first, std::string::npos);
    const std::size_t col = first - u.rfind('\n', first) - 1;
    const std::size_t cont = u.find("(0 = host cores)");
    EXPECT_EQ(cont - u.rfind('\n', cont) - 1, col);
}

TEST(CliDeathTest, ParseOrExitCodes)
{
    auto run = [](std::vector<std::string> args) {
        Fixture f;
        args.insert(args.begin(), "prog");
        std::vector<char *> argv;
        for (auto &a : args)
            argv.push_back(a.data());
        f.cli.parseOrExit(static_cast<int>(argv.size()), argv.data());
        std::exit(7); // parsed fine
    };
    EXPECT_EXIT(run({"--ops=-1"}), testing::ExitedWithCode(2),
                "prog: --ops wants a positive integer, got '-1'\n"
                "usage: prog");
    EXPECT_EXIT(run({"--nope"}), testing::ExitedWithCode(2),
                "unknown option");
    EXPECT_EXIT(run({"--help"}), testing::ExitedWithCode(0), "");
    EXPECT_EXIT(run({"--ops", "3"}), testing::ExitedWithCode(7), "");
}
