/**
 * @file
 * Tests for the workload-spec text format and runner.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/config/workload_spec.hh"
#include "src/piso.hh"

using namespace piso;

namespace {

const char *kMinimal = R"(
machine cpus=2 memory_mb=16 scheme=smp seed=5
spu u
job u compute name=j cpu_ms=100
)";

} // namespace

TEST(WorkloadSpec, ParsesMinimal)
{
    const WorkloadSpec s = parseWorkloadSpec(kMinimal);
    EXPECT_EQ(s.config.cpus, 2);
    EXPECT_EQ(s.config.memoryBytes, 16 * kMiB);
    EXPECT_EQ(s.config.scheme, Scheme::Smp);
    EXPECT_EQ(s.config.seed, 5u);
    ASSERT_EQ(s.spus.size(), 1u);
    EXPECT_EQ(s.spus[0].name, "u");
    ASSERT_EQ(s.jobs.size(), 1u);
    EXPECT_EQ(s.jobs[0].kind, "compute");
    EXPECT_EQ(s.jobs[0].name, "j");
}

TEST(WorkloadSpec, DefaultsWithoutMachineLine)
{
    const WorkloadSpec s = parseWorkloadSpec(
        "spu u\njob u compute cpu_ms=10\n");
    EXPECT_EQ(s.config.cpus, 8);
    EXPECT_EQ(s.config.scheme, Scheme::PIso);
}

TEST(WorkloadSpec, CommentsAndBlankLinesIgnored)
{
    const WorkloadSpec s = parseWorkloadSpec(
        "# header\n\nspu u # trailing\n\njob u compute cpu_ms=1\n");
    EXPECT_EQ(s.spus.size(), 1u);
}

TEST(WorkloadSpec, ParsesAllMachineOptions)
{
    const WorkloadSpec s = parseWorkloadSpec(R"(
machine cpus=4 memory_mb=32 disks=3 scheme=quota disk_policy=iso seed=9 max_time_s=10 network_mbps=100 bw_threshold=512 seek_scale=0.5 ipi_revocation=1
spu u
job u compute cpu_ms=1
)");
    EXPECT_EQ(s.config.diskCount, 3);
    EXPECT_EQ(s.config.scheme, Scheme::Quota);
    EXPECT_EQ(s.config.scheme.disk, DiskPolicy::BlindFair);
    EXPECT_EQ(s.config.maxTime, 10 * kSec);
    EXPECT_DOUBLE_EQ(s.config.networkBitsPerSec, 100e6);
    EXPECT_DOUBLE_EQ(s.config.bwThresholdSectors, 512.0);
    EXPECT_DOUBLE_EQ(s.config.diskParams.seekScale, 0.5);
    EXPECT_TRUE(s.config.ipiRevocation);
}

TEST(WorkloadSpec, AutoNamesJobs)
{
    const WorkloadSpec s = parseWorkloadSpec(
        "spu u\njob u compute cpu_ms=1\njob u compute cpu_ms=1\n");
    EXPECT_NE(s.jobs[0].name, s.jobs[1].name);
}

TEST(WorkloadSpec, ErrorsCarryLineNumbers)
{
    try {
        parseWorkloadSpec("spu u\njob u compute bogus_key=1\n");
        (void)buildJob(parseWorkloadSpec(
                           "spu u\njob u compute bogus_key=1\n")
                           .jobs[0]);
        FAIL() << "expected a parse error";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("line 2"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("bogus_key"),
                  std::string::npos);
    }
}

TEST(WorkloadSpec, RejectsMalformedInput)
{
    EXPECT_THROW(parseWorkloadSpec("bogus directive\n"),
                 std::runtime_error);
    EXPECT_THROW(parseWorkloadSpec("spu u\njob u compute notkv\n"),
                 std::runtime_error);
    EXPECT_THROW(parseWorkloadSpec("spu u\njob u mystery name=x\n"),
                 std::runtime_error);
    EXPECT_THROW(parseWorkloadSpec("spu u\njob ghost compute\n"),
                 std::runtime_error);
    EXPECT_THROW(parseWorkloadSpec("spu u\nspu u\njob u compute\n"),
                 std::runtime_error);
    EXPECT_THROW(parseWorkloadSpec(
                     "machine cpus=2\nmachine cpus=4\nspu u\n"
                     "job u compute\n"),
                 std::runtime_error);
    EXPECT_THROW(parseWorkloadSpec("machine cpus=two\nspu u\n"
                                   "job u compute\n"),
                 std::runtime_error);
    // Integer machine keys take non-negative whole numbers only.
    EXPECT_THROW(parseWorkloadSpec("machine memory_mb=-1\nspu u\n"
                                   "job u compute\n"),
                 std::runtime_error);
    EXPECT_THROW(parseWorkloadSpec("machine cpus=2.7\nspu u\n"
                                   "job u compute\n"),
                 std::runtime_error);
    EXPECT_THROW(parseWorkloadSpec(""), std::runtime_error);
    EXPECT_THROW(parseWorkloadSpec("spu u\n"), std::runtime_error);
}

namespace {

/** The ConfigError text @p text raises, parsing and building its jobs. */
std::string
specError(const std::string &text)
{
    try {
        for (const JobDecl &j : parseWorkloadSpec(text).jobs)
            (void)buildJob(j);
    } catch (const ConfigError &e) {
        return e.what();
    }
    return "";
}

} // namespace

TEST(WorkloadSpec, IntegerOptionsRejectNegativeFractionalAndHuge)
{
    // Job, spu and [faults] integer options get the machine keys'
    // check. Each error names the line, the option and the value.
    struct Case
    {
        const char *text;
        const char *want;
    };
    const Case cases[] = {
        {"spu u\njob u copy name=c bytes_kb=-1\n",
         "line 2: option 'bytes_kb' wants a non-negative integer, got '-1'"},
        {"spu u\njob u pmake workers=2.9 files=2\n",
         "line 2: option 'workers' wants a non-negative integer, got '2.9'"},
        {"spu u\njob u pmake workers=2 files=1.5\n",
         "line 2: option 'files' wants a non-negative integer, got '1.5'"},
        {"spu u\njob u ocean procs=3000000000\n",
         "option 'procs' wants a non-negative integer"},
        {"spu u\njob u compute ws_pages=5000000000\n",
         "option 'ws_pages' wants a non-negative integer"},
        {"spu u\njob u oltp table_mb=-64\n",
         "option 'table_mb' wants a non-negative integer"},
        {"spu u\njob u web requests=-3 response_kb=0.5\n",
         "option 'requests' wants a non-negative integer"},
        {"spu u disk=-1\njob u compute\n",
         "line 1: option 'disk' wants a non-negative integer, got '-1'"},
        {"[spus]\nu disk=0.5\njob u compute\n",
         "line 2: option 'disk' wants a non-negative integer, got '0.5'"},
        {"spu u\njob u compute\n[faults]\ndisk_dead at_s=1 disk=0.7\n",
         "line 4: option 'disk' wants a non-negative integer, got '0.7'"},
        {"spu u\njob u compute\n[faults]\ncpu_offline at_s=1 count=1.5\n",
         "line 4: option 'count' wants a non-negative integer"},
        {"spu u\njob u compute\n[faults]\nmem_shrink at_s=1 mb=-8\n",
         "line 4: option 'mb' wants a non-negative integer, got '-8'"},
    };
    for (const Case &c : cases) {
        const std::string err = specError(c.text);
        EXPECT_NE(err.find(c.want), std::string::npos)
            << c.text << " -> '" << err << "'";
    }

    // Whole numbers, including 0 and the top of the range, still parse.
    EXPECT_EQ(specError("spu u disk=0\njob u copy bytes_kb=1\n"
                        "job u compute ws_pages=4294967295\n"),
              "");
}

TEST(WorkloadSpec, EveryExampleSpecParses)
{
    std::size_t parsed = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(PISO_EXAMPLE_SPEC_DIR)) {
        if (entry.path().extension() != ".piso")
            continue;
        std::ifstream in(entry.path());
        std::stringstream text;
        text << in.rdbuf();
        EXPECT_EQ(specError(text.str()), "") << entry.path();
        ++parsed;
    }
    EXPECT_GE(parsed, 5u);
}

TEST(WorkloadSpec, UnknownMachineOptionRejected)
{
    EXPECT_THROW(parseWorkloadSpec(
                     "machine cpus=2 turbo=1\nspu u\njob u compute\n"),
                 std::runtime_error);
}

TEST(WorkloadSpec, BuildsEveryJobKind)
{
    const WorkloadSpec s = parseWorkloadSpec(R"(
machine cpus=2 memory_mb=32 network_mbps=10
spu u
job u pmake   name=a workers=1 files=2
job u copy    name=b bytes_kb=64
job u compute name=c cpu_ms=5
job u ocean   name=d procs=2 iters=3 grain_ms=1
job u oltp    name=e servers=1 txns=3 table_mb=1
job u web     name=f workers=1 requests=3 response_kb=1
)");
    for (const JobDecl &j : s.jobs)
        EXPECT_NO_THROW((void)buildJob(j)) << j.kind;
}

TEST(WorkloadSpec, EndToEndRun)
{
    const WorkloadSpec s = parseWorkloadSpec(R"(
machine cpus=2 memory_mb=32 scheme=piso seed=3
spu alice disk=0
spu bob share=2 disk=0
job alice compute name=light cpu_ms=200 ws_pages=32
job bob   compute name=heavy cpu_ms=400 ws_pages=32
)");
    const SimResults r = runWorkloadSpec(s);
    ASSERT_TRUE(r.completed);
    EXPECT_NEAR(r.job("light").responseSec(), 0.2, 0.05);
    EXPECT_NEAR(r.job("heavy").responseSec(), 0.4, 0.05);
}

TEST(WorkloadSpec, ParsesSpusTreeSection)
{
    const WorkloadSpec s = parseWorkloadSpec(R"(
machine cpus=4 memory_mb=32 scheme=piso seed=1
[spus]
eng       share=2
eng.build share=3 disk=0
eng.test  share=1
ops       share=1
ops.web   share=1
job eng.build compute name=b cpu_ms=10
job ops.web   compute name=w cpu_ms=10
)");
    ASSERT_EQ(s.spus.size(), 5u);
    EXPECT_EQ(s.spus[0].name, "eng");
    EXPECT_EQ(s.spus[0].parent, "");
    EXPECT_EQ(s.spus[1].name, "eng.build");
    EXPECT_EQ(s.spus[1].parent, "eng");
    EXPECT_DOUBLE_EQ(s.spus[1].share, 3.0);
    EXPECT_EQ(s.spus[4].parent, "ops");
    ASSERT_EQ(s.jobs.size(), 2u);
    EXPECT_EQ(s.jobs[0].spu, "eng.build");
}

TEST(WorkloadSpec, SpusTreeRunsEndToEnd)
{
    const WorkloadSpec s = parseWorkloadSpec(R"(
machine cpus=2 memory_mb=32 scheme=piso seed=3
[spus]
eng       share=2
eng.build share=1
ops       share=1
ops.web   share=1
job eng.build compute name=b cpu_ms=100 ws_pages=16
job ops.web   compute name=w cpu_ms=100 ws_pages=16
)");
    const SimResults r = runWorkloadSpec(s);
    ASSERT_TRUE(r.completed);
    EXPECT_GT(r.job("b").responseSec(), 0.0);
    // The per-SPU results carry the hierarchy: leaves name their
    // enclosing group, groups sit at the top level.
    bool sawLeaf = false;
    for (const auto &[id, sr] : r.spus) {
        if (sr.name == "eng.build") {
            sawLeaf = true;
            ASSERT_TRUE(r.spus.contains(sr.parent));
            EXPECT_EQ(r.spus.find(sr.parent)->name, "eng");
        }
    }
    EXPECT_TRUE(sawLeaf);
}

TEST(WorkloadSpec, SpusTreeRejectsMalformedHierarchies)
{
    // A child before its parent group.
    EXPECT_THROW(parseWorkloadSpec("[spus]\neng.build share=1\n"
                                   "job eng.build compute\n"),
                 std::runtime_error);
    // Duplicate node.
    EXPECT_THROW(parseWorkloadSpec("[spus]\neng\neng\n"
                                   "job eng compute\n"),
                 std::runtime_error);
    // Dotted names belong in a [spus] section, not `spu` lines.
    EXPECT_THROW(parseWorkloadSpec("spu eng.build\n"
                                   "job eng.build compute\n"),
                 std::runtime_error);
    // Jobs may only run on leaf SPUs, never on a group.
    EXPECT_THROW(parseWorkloadSpec("[spus]\neng\neng.build\n"
                                   "job eng compute\n"),
                 std::runtime_error);
    // Empty dotted segments are nonsense.
    EXPECT_THROW(parseWorkloadSpec("[spus]\neng\neng..build\n"
                                   "job eng compute\n"),
                 std::runtime_error);
}

TEST(WorkloadSpec, StartDelayOption)
{
    const WorkloadSpec s = parseWorkloadSpec(R"(
machine cpus=2 memory_mb=16 seed=3
spu u
job u compute name=late cpu_ms=10 start_s=1.5
)");
    const SimResults r = runWorkloadSpec(s);
    EXPECT_GE(r.job("late").start, 1500 * kMs);
}
