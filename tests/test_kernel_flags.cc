/**
 * @file
 * Shared kernel-flag parsing tests: the --simd helper every CLI
 * binary routes its argv loop through. The unknown-value cases
 * are regressions — each binary used to hand-roll this parse, and a
 * typo'd value must be rejected with a message listing the accepted
 * spellings, never silently fall back to a default.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exion/serve/shard_router.h"
#include "exion/tensor/kernel_flags.h"

namespace exion
{
namespace
{

/** Runs the caller-side argv loop over args; returns the outcome. */
struct ParseRun
{
    KernelFlags flags;
    std::vector<std::string> others; //!< positions reported NotMine
    std::string error;               //!< first error, empty if none
};

ParseRun
parseAll(const std::vector<const char *> &args)
{
    // argv[0] is the program name, as in a real main().
    std::vector<const char *> argv = {"prog"};
    argv.insert(argv.end(), args.begin(), args.end());
    ParseRun run;
    for (int i = 1; i < static_cast<int>(argv.size()); ++i) {
        std::string err;
        const KernelFlagStatus ks = tryConsumeKernelFlag(
            static_cast<int>(argv.size()), argv.data(), i, run.flags,
            err);
        if (ks == KernelFlagStatus::Error) {
            run.error = err;
            break;
        }
        if (ks == KernelFlagStatus::NotMine)
            run.others.push_back(argv[i]);
    }
    return run;
}

TEST(KernelFlagsTest, Defaults)
{
    const ParseRun run = parseAll({});
    EXPECT_TRUE(run.error.empty());
    EXPECT_EQ(run.flags.simd, SimdTier::Exact);
}

TEST(KernelFlagsTest, ParsesSimdValues)
{
    ParseRun run = parseAll({"--simd", "scalar"});
    EXPECT_TRUE(run.error.empty());
    EXPECT_EQ(run.flags.simd, SimdTier::Scalar);

    run = parseAll({"--simd", "exact"});
    EXPECT_TRUE(run.error.empty());
    EXPECT_EQ(run.flags.simd, SimdTier::Exact);
}

// The reassociating tier is gone: its spelling is now a typo like any
// other, and the message lists exactly the two tiers that remain.
TEST(KernelFlagsTest, RejectsRemovedFastTier)
{
    const ParseRun run = parseAll({"--simd", "fast"});
    ASSERT_FALSE(run.error.empty());
    EXPECT_NE(run.error.find("'fast'"), std::string::npos);
    EXPECT_NE(run.error.find("(expected scalar|exact)"),
              std::string::npos);
    EXPECT_EQ(run.flags.simd, SimdTier::Exact);
}

// --gemm and --tp no longer exist: they are left to the caller in
// order with their values, like any foreign argument, so a binary
// that does not know them rejects them as unknown.
TEST(KernelFlagsTest, RemovedFlagsAreNotMine)
{
    const ParseRun run = parseAll({"--quick", "--gemm", "blocked",
                                   "--tp", "2", "--simd", "scalar"});
    EXPECT_TRUE(run.error.empty());
    EXPECT_EQ(run.flags.simd, SimdTier::Scalar);
    const std::vector<std::string> want = {"--quick", "--gemm",
                                           "blocked", "--tp", "2"};
    EXPECT_EQ(run.others, want);
}

TEST(KernelFlagsTest, LastValueWins)
{
    const ParseRun run =
        parseAll({"--simd", "exact", "--simd", "scalar"});
    EXPECT_TRUE(run.error.empty());
    EXPECT_EQ(run.flags.simd, SimdTier::Scalar);
}

// Regression: a typo'd value must be an error naming the flag and
// listing every accepted value — not a silent default.
TEST(KernelFlagsTest, RejectsUnknownSimdValue)
{
    const ParseRun run = parseAll({"--simd", "avx99"});
    ASSERT_FALSE(run.error.empty());
    EXPECT_NE(run.error.find("--simd"), std::string::npos);
    EXPECT_NE(run.error.find("avx99"), std::string::npos);
    EXPECT_NE(run.error.find("scalar|exact"), std::string::npos);
}

TEST(KernelFlagsTest, RejectsCaseVariants)
{
    EXPECT_FALSE(parseAll({"--simd", "Scalar"}).error.empty());
    EXPECT_FALSE(parseAll({"--simd", "EXACT"}).error.empty());
}

TEST(KernelFlagsTest, MissingValueIsError)
{
    const ParseRun run = parseAll({"--simd"});
    ASSERT_FALSE(run.error.empty());
    EXPECT_NE(run.error.find("needs a value"), std::string::npos);
    EXPECT_NE(run.error.find("scalar|exact"), std::string::npos);
}

TEST(KernelFlagsTest, ErrorDoesNotMutateFlags)
{
    KernelFlags flags;
    flags.simd = SimdTier::Scalar;
    const char *argv[] = {"prog", "--simd", "wat"};
    int i = 1;
    std::string err;
    EXPECT_EQ(tryConsumeKernelFlag(3, argv, i, flags, err),
              KernelFlagStatus::Error);
    EXPECT_EQ(flags.simd, SimdTier::Scalar);
}

TEST(KernelFlagsTest, UsageAdvertisesOnlySimd)
{
    const std::string usage = kernelFlagsUsage();
    EXPECT_NE(usage.find("--simd scalar|exact"), std::string::npos);
    EXPECT_EQ(usage.find("fast"), std::string::npos);
    EXPECT_EQ(usage.find("--gemm"), std::string::npos);
    EXPECT_EQ(usage.find("--tp"), std::string::npos);
}

/** Caller-side argv loop for the route flag, mirroring ParseRun. */
struct RouteRun
{
    RoutePolicy policy = RoutePolicy::LeastDepth;
    std::vector<std::string> others;
    std::string error;
};

RouteRun
parseRoute(const std::vector<const char *> &args)
{
    std::vector<const char *> argv = {"prog"};
    argv.insert(argv.end(), args.begin(), args.end());
    RouteRun run;
    for (int i = 1; i < static_cast<int>(argv.size()); ++i) {
        std::string err;
        const KernelFlagStatus ks = tryConsumeRouteFlag(
            static_cast<int>(argv.size()), argv.data(), i, run.policy,
            err);
        if (ks == KernelFlagStatus::Error) {
            run.error = err;
            break;
        }
        if (ks == KernelFlagStatus::NotMine)
            run.others.push_back(argv[i]);
    }
    return run;
}

TEST(RouteFlagTest, ParsesEveryPolicy)
{
    RouteRun run = parseRoute({"--route", "least-depth"});
    EXPECT_TRUE(run.error.empty());
    EXPECT_EQ(run.policy, RoutePolicy::LeastDepth);

    run = parseRoute({"--route", "deadline-aware"});
    EXPECT_TRUE(run.error.empty());
    EXPECT_EQ(run.policy, RoutePolicy::DeadlineAware);

    run = parseRoute({"--route", "cohort-affinity"});
    EXPECT_TRUE(run.error.empty());
    EXPECT_EQ(run.policy, RoutePolicy::CohortAffinity);
}

TEST(RouteFlagTest, ForeignArgsPassThrough)
{
    const RouteRun run =
        parseRoute({"--shards", "2", "--route", "deadline-aware"});
    EXPECT_TRUE(run.error.empty());
    EXPECT_EQ(run.policy, RoutePolicy::DeadlineAware);
    const std::vector<std::string> want = {"--shards", "2"};
    EXPECT_EQ(run.others, want);
}

// Regression: the hand-rolled per-binary --route parses used to fall
// back silently; the shared helper must list the accepted policies.
TEST(RouteFlagTest, RejectsUnknownPolicyListingValues)
{
    const RouteRun run = parseRoute({"--route", "round-robin"});
    ASSERT_FALSE(run.error.empty());
    EXPECT_NE(run.error.find("--route"), std::string::npos);
    EXPECT_NE(run.error.find("round-robin"), std::string::npos);
    EXPECT_NE(run.error.find(routePolicyValues()), std::string::npos);
    EXPECT_EQ(run.policy, RoutePolicy::LeastDepth);
}

TEST(RouteFlagTest, MissingValueIsError)
{
    const RouteRun run = parseRoute({"--route"});
    ASSERT_FALSE(run.error.empty());
    EXPECT_NE(run.error.find("needs a value"), std::string::npos);
    EXPECT_NE(run.error.find(routePolicyValues()), std::string::npos);
}

TEST(RouteFlagTest, UsageAdvertisesPolicies)
{
    const std::string usage = routeFlagUsage();
    EXPECT_NE(usage.find("--route"), std::string::npos);
    EXPECT_NE(usage.find(routePolicyValues()), std::string::npos);
}

} // namespace
} // namespace exion
