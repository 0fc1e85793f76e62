/**
 * @file
 * Failure-injection tests: the invariant machinery must catch
 * corrupted hardware control state and misuse loudly (gem5 panic
 * semantics) rather than silently computing garbage.
 */

#include <gtest/gtest.h>

#include "exion/common/fixed_point.h"
#include "exion/common/rng.h"
#include "exion/conmerge/merged_tile.h"
#include "exion/conmerge/sort_buffer.h"
#include "exion/sim/sdue.h"
#include "exion/sparsity/ffn_reuse.h"
#include "exion/tensor/bitmask.h"
#include "exion/tensor/ops.h"
#include "standalone_layers.h"

namespace exion
{
namespace
{

using FailureDeathTest = ::testing::Test;

// These tests need the invariant checks to actually fire; a build
// configured with EXION_ASSERTIONS=OFF (the Release CI matrix entry)
// compiles EXION_ASSERT out, so they skip there.
#if EXION_ASSERTS_ENABLED
#define REQUIRE_ASSERTS() static_assert(true)
#else
#define REQUIRE_ASSERTS()                                                  \
    GTEST_SKIP() << "EXION_ASSERT compiled out (EXION_ASSERTIONS=OFF)"
#endif

TEST(FailureDeathTest, MatmulShapeMismatchPanics)
{
    REQUIRE_ASSERTS();
    Matrix a(2, 3), b(4, 2);
    EXPECT_DEATH(matmul(a, b), "matmul shape");
}

// Index is unsigned, so a caller's negative offset/count arrives as a
// huge value. The old `r0 + n <= rows` guards wrapped right past the
// bound; the slice family must reject these loudly, not read out of
// bounds.
TEST(FailureDeathTest, SliceRowsWrappedNegativeOffsetPanics)
{
    REQUIRE_ASSERTS();
    Matrix a(4, 4);
    EXPECT_DEATH(sliceRows(a, static_cast<Index>(-1), 2),
                 "sliceRows out of range");
}

TEST(FailureDeathTest, SliceRowsWrappedNegativeCountPanics)
{
    REQUIRE_ASSERTS();
    Matrix a(4, 4);
    EXPECT_DEATH(sliceRows(a, 1, static_cast<Index>(-2)),
                 "sliceRows out of range");
}

TEST(FailureDeathTest, SliceColsWrappedNegativeOffsetPanics)
{
    REQUIRE_ASSERTS();
    Matrix a(4, 4);
    EXPECT_DEATH(sliceCols(a, static_cast<Index>(-3), 1),
                 "sliceCols out of range");
}

TEST(FailureDeathTest, SliceBlockWrappedNegativePanics)
{
    REQUIRE_ASSERTS();
    Matrix a(4, 4);
    EXPECT_DEATH(sliceBlock(a, static_cast<Index>(-1), 1, 0, 1),
                 "sliceBlock out of range");
    EXPECT_DEATH(sliceBlock(a, 0, 1, 2, static_cast<Index>(-1)),
                 "sliceBlock out of range");
}

TEST(FailureDeathTest, PasteRowsWrappedNegativeOffsetPanics)
{
    REQUIRE_ASSERTS();
    Matrix a(4, 4);
    Matrix src(2, 4);
    EXPECT_DEATH(pasteRows(a, src, static_cast<Index>(-2)),
                 "pasteRows out of range");
}

// A cohort steps in lockstep, so FFN-Reuse never sees a stack whose
// members disagree on calibrating; one that does is a caller's bug.
TEST(FailureDeathTest, FfnReuseMixedStackPanics)
{
    REQUIRE_ASSERTS();
    Rng rng(3);
    const StandaloneBlock blk(0, 16, 2, 4, false, rng);
    const FfnReuse reuse({3, 0.8}, false);
    Matrix x(8, 16);
    x.fillNormal(rng, 0.0f, 1.0f);
    ExecContext warm, cold;
    ExecContext *const alone[] = {&warm};
    reuse.run(blk, sliceRows(x, 0, 4), alone, {});
    // At iteration 1 the warm member reuses; the cold one has no state
    // yet, so it would calibrate.
    warm.iteration = cold.iteration = 1;
    ExecContext *const stack[] = {&warm, &cold};
    EXPECT_DEATH(reuse.run(blk, x, stack, {}),
                 "mixes calibrating and reusing");
}

TEST(FailureDeathTest, BitmaskOutOfRangePanics)
{
    REQUIRE_ASSERTS();
    Bitmask2D mask(4, 4);
    EXPECT_DEATH(mask.set(4, 0, true), "out of range");
}

TEST(FailureDeathTest, DoubleOccupancyPanics)
{
    REQUIRE_ASSERTS();
    // Placing two elements into one DPU cell is a control-map bug the
    // tile must reject.
    MergedTile tile;
    tile.initBase({ColumnEntry{0, 0x0001}});
    EXPECT_DEATH(tile.place(0, 0, 0, 9, 1), "occupied");
}

TEST(FailureDeathTest, CvConflictPanics)
{
    REQUIRE_ASSERTS();
    // Routing two different source rows over one lane's CV violates
    // the single-slot constraint.
    MergedTile tile;
    tile.initBase({ColumnEntry{0, 0x0003}, ColumnEntry{1, 0x0003}});
    tile.place(4, 0, 2, 0, 1); // CV[4] = 2
    EXPECT_DEATH(tile.place(4, 1, 3, 1, 1), "CV slot");
}

TEST(FailureDeathTest, CorruptedTileFailsInvariantCheck)
{
    REQUIRE_ASSERTS();
    // An element claiming an unregistered origin must be caught.
    MergedTile tile;
    tile.initBase({ColumnEntry{0, 0x0001}});
    tile.place(5, 0, 5, 42, 1); // slot 1 origin never registered
    EXPECT_DEATH(tile.checkInvariants(), "unregistered origin");
}

TEST(FailureDeathTest, SortBufferExhaustionPanics)
{
    REQUIRE_ASSERTS();
    SortBuffer buf(1);
    // Fill one entry per class (high-dense through extra) ...
    buf.push(ColumnEntry{0, 0xffff});
    buf.push(ColumnEntry{1, 0xfffe});
    buf.push(ColumnEntry{2, 0xfffc});
    buf.push(ColumnEntry{3, 0xfff8});
    buf.push(ColumnEntry{4, 0xfff0});
    // ... the sixth dense entry has nowhere to go.
    EXPECT_DEATH(buf.push(ColumnEntry{5, 0xffe0}), "exhausted");
}

TEST(FailureDeathTest, SdueRejectsShapeMismatch)
{
    REQUIRE_ASSERTS();
    Sdue sdue{DscParams{}};
    MergedTile tile;
    tile.initBase({ColumnEntry{0, 0x0001}});
    Matrix input(16, 8), weight(9, 4), out(16, 4);
    EXPECT_DEATH(
        sdue.executeMergedTile(tile, input, weight, 0, out),
        "shape mismatch");
}

TEST(FailureDeathTest, SaturatingAddRejectsSillyWidths)
{
    REQUIRE_ASSERTS();
    EXPECT_DEATH(saturatingAdd(1, 1, 1), "accumulator width");
}

} // namespace
} // namespace exion
