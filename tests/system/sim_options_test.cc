/**
 * @file
 * Unit tests for the unified option registry: CLI parsing, group
 * scoping, config-file precedence, and the JSON config round-trip.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "system/sim_options.hh"

namespace bulksc {
namespace {

bool
parseArgs(std::vector<const char *> argv, SimOptions &opts,
          std::string &err, OptionGroup group = OptionGroup::Sim)
{
    const OptionRegistry &reg = OptionRegistry::instance();
    return reg.parse(static_cast<int>(argv.size()), argv.data(), opts,
                     group, err);
}

/** Every config-persistable option of @p opts as name->value. */
std::vector<std::pair<std::string, std::string>>
configState(const SimOptions &opts)
{
    std::vector<std::pair<std::string, std::string>> out;
    for (const OptionDesc &d : OptionRegistry::instance().options()) {
        if (d.inConfig)
            out.emplace_back(d.name, d.get(opts));
    }
    return out;
}

class TempFile
{
  public:
    TempFile()
    {
        char name[] = "/tmp/bulksc_opts_XXXXXX";
        int fd = mkstemp(name);
        EXPECT_GE(fd, 0);
        path_ = name;
        close(fd);
    }

    ~TempFile() { std::remove(path_.c_str()); }

    const std::string &path() const { return path_; }

    void
    write(const std::string &text) const
    {
        std::FILE *f = std::fopen(path_.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs(text.c_str(), f);
        std::fclose(f);
    }

  private:
    std::string path_;
};

TEST(SimOptions, ParsesValuesAndEqualsForm)
{
    SimOptions opts;
    std::string err;
    ASSERT_TRUE(parseArgs({"--procs", "4", "--model", "SC",
                           "--instrs=5000", "--chunk", "750"},
                          opts, err))
        << err;
    EXPECT_EQ(opts.cfg.numProcs, 4u);
    EXPECT_EQ(opts.cfg.model, Model::SC);
    EXPECT_EQ(opts.instrs, 5000u);
    EXPECT_EQ(opts.cfg.bulk.chunkSize, 750u);
}

TEST(SimOptions, FlagNegation)
{
    SimOptions opts;
    std::string err;
    ASSERT_TRUE(opts.cfg.warmCaches);
    ASSERT_TRUE(parseArgs({"--no-warm"}, opts, err)) << err;
    EXPECT_FALSE(opts.cfg.warmCaches);
    ASSERT_TRUE(parseArgs({"--warm"}, opts, err)) << err;
    EXPECT_TRUE(opts.cfg.warmCaches);
}

TEST(SimOptions, UnknownFlagNamesTheFlag)
{
    SimOptions opts;
    std::string err;
    EXPECT_FALSE(parseArgs({"--no-such-option"}, opts, err));
    EXPECT_NE(err.find("no-such-option"), std::string::npos) << err;
}

TEST(SimOptions, MalformedNumberFails)
{
    SimOptions opts;
    std::string err;
    EXPECT_FALSE(parseArgs({"--procs", "banana"}, opts, err));
    EXPECT_NE(err.find("procs"), std::string::npos) << err;
}

TEST(SimOptions, MissingValueFails)
{
    SimOptions opts;
    std::string err;
    EXPECT_FALSE(parseArgs({"--procs"}, opts, err));
    EXPECT_NE(err.find("requires a value"), std::string::npos) << err;
}

TEST(SimOptions, FlagRejectsAttachedValue)
{
    SimOptions opts;
    std::string err;
    EXPECT_FALSE(parseArgs({"--warm=yes"}, opts, err));
    EXPECT_NE(err.find("takes no value"), std::string::npos) << err;
}

TEST(SimOptions, GroupScopingRejectsForeignFlags)
{
    // --litmus belongs to bulksc_sim; the batch runner must reject it
    // with a message instead of silently eating it.
    SimOptions opts;
    std::string err;
    EXPECT_FALSE(parseArgs({"--litmus", "mp"}, opts, err,
                           OptionGroup::Batch));
    EXPECT_NE(err.find("litmus"), std::string::npos) << err;
    EXPECT_TRUE(parseArgs({"--litmus", "mp"}, opts, err,
                          OptionGroup::Sim))
        << err;
    EXPECT_EQ(opts.litmus, "mp");
}

TEST(SimOptions, CliOverridesConfigFileRegardlessOfOrder)
{
    TempFile file;
    file.write("{\"procs\": 4, \"chunk\": 500}\n");

    // Flag before --config: the file is still applied first.
    SimOptions a;
    std::string err;
    ASSERT_TRUE(parseArgs({"--procs", "16", "--config",
                           file.path().c_str()},
                          a, err))
        << err;
    EXPECT_EQ(a.cfg.numProcs, 16u);
    EXPECT_EQ(a.cfg.bulk.chunkSize, 500u);

    // Flag after --config.
    SimOptions b;
    ASSERT_TRUE(parseArgs({"--config", file.path().c_str(), "--procs",
                           "16"},
                          b, err))
        << err;
    EXPECT_EQ(b.cfg.numProcs, 16u);
    EXPECT_EQ(b.cfg.bulk.chunkSize, 500u);
}

TEST(SimOptions, ApplyKeyValue)
{
    const OptionRegistry &reg = OptionRegistry::instance();
    SimOptions opts;
    std::string err;
    ASSERT_TRUE(reg.applyKeyValue(opts, "sig-bits", "1024", err))
        << err;
    EXPECT_EQ(opts.cfg.bulk.sigCfg.totalBits, 1024u);
    ASSERT_TRUE(reg.applyKeyValue(opts, "warm", "false", err)) << err;
    EXPECT_FALSE(opts.cfg.warmCaches);
    EXPECT_FALSE(reg.applyKeyValue(opts, "bogus-key", "1", err));
    EXPECT_NE(err.find("bogus-key"), std::string::npos) << err;
}

TEST(SimOptions, ParseFlatJson)
{
    std::vector<std::pair<std::string, std::string>> kv;
    std::string err;
    ASSERT_TRUE(parseFlatJson(
        "{\"a\": 3, \"b\": \"str\", \"c\": true, \"d\": false}", kv,
        err))
        << err;
    ASSERT_EQ(kv.size(), 4u);
    EXPECT_EQ(kv[0], (std::pair<std::string, std::string>{"a", "3"}));
    EXPECT_EQ(kv[1],
              (std::pair<std::string, std::string>{"b", "str"}));
    EXPECT_EQ(kv[2], (std::pair<std::string, std::string>{"c", "1"}));
    EXPECT_EQ(kv[3], (std::pair<std::string, std::string>{"d", "0"}));

    EXPECT_FALSE(parseFlatJson("{\"a\": {\"nested\": 1}}", kv, err));
    EXPECT_FALSE(parseFlatJson("{\"a\": [1, 2]}", kv, err));
    EXPECT_FALSE(parseFlatJson("not json", kv, err));
}

TEST(SimOptions, DumpConfigRoundTripIsLossless)
{
    // A dumped config, loaded into a fresh SimOptions, must reproduce
    // every config-persistable option — including non-defaults.
    SimOptions src;
    std::string err;
    ASSERT_TRUE(parseArgs({"--procs", "4", "--model", "BSCstpvt",
                           "--chunk", "2000", "--sig-bits", "1024",
                           "--no-warm", "--seed-salt", "9",
                           "--arbiters", "4", "--app", "radix"},
                          src, err))
        << err;

    TempFile file;
    std::FILE *f = std::fopen(file.path().c_str(), "w");
    ASSERT_NE(f, nullptr);
    OptionRegistry::instance().dumpConfigJson(f, src);
    std::fclose(f);

    SimOptions dst;
    ASSERT_TRUE(OptionRegistry::instance().loadConfigFile(file.path(),
                                                          dst, err))
        << err;
    EXPECT_EQ(configState(dst), configState(src));
}

TEST(SimOptions, CheckListParsing)
{
    SimOptions opts;
    std::string err;
    ASSERT_TRUE(parseArgs({"--check", "axiomatic,race"}, opts, err))
        << err;
    EXPECT_TRUE(opts.checks.axiomatic);
    EXPECT_TRUE(opts.checks.race);
    EXPECT_FALSE(opts.checks.replay);
    EXPECT_TRUE(opts.checks.any());
    EXPECT_EQ(opts.checks.str(), "axiomatic,race");

    EXPECT_FALSE(parseArgs({"--check", "axiomatic,wat"}, opts, err));
    EXPECT_NE(err.find("wat"), std::string::npos) << err;
}

TEST(SimOptions, KnownTraceCategoriesAreAccepted)
{
    SimOptions opts;
    std::string err;
    ASSERT_TRUE(parseArgs({"--trace-cats", "chunk,Squash,watchdog"}, opts,
                          err))
        << err;
    EXPECT_EQ(opts.traceCats, "chunk,Squash,watchdog");
    ASSERT_TRUE(parseArgs({"--trace-cats", "all"}, opts, err)) << err;
    EXPECT_EQ(opts.traceCats, "all");
}

TEST(SimOptions, UnknownTraceCategoryIsAnError)
{
    SimOptions opts;
    std::string err;
    ASSERT_TRUE(parseArgs({"--trace-cats", "all"}, opts, err)) << err;

    EXPECT_FALSE(parseArgs({"--trace-cats", "squash,bogus"}, opts, err));
    EXPECT_NE(err.find("--trace-cats"), std::string::npos) << err;
    EXPECT_NE(err.find("'bogus'"), std::string::npos) << err;
    EXPECT_NE(err.find("known: chunk, commit, squash"),
              std::string::npos)
        << err;
    EXPECT_EQ(opts.traceCats, "all"); // a rejected value is not stored
}

} // namespace
} // namespace bulksc
