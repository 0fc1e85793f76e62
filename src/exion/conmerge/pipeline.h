/**
 * @file
 * End-to-end ConMerge: condensing + sorting + merging (Section III-B).
 *
 * Consumes an output-sparsity bitmask, processes each 16-row lane
 * group independently, and produces the merged tiles the SDUE executes
 * together with compaction statistics and CAU cycle counts.
 */

#ifndef EXION_CONMERGE_PIPELINE_H_
#define EXION_CONMERGE_PIPELINE_H_

#include <vector>

#include "exion/conmerge/cvg.h"
#include "exion/conmerge/sort_buffer.h"

namespace exion
{

/** Pipeline configuration. */
struct ConMergeConfig
{
    /** Sparsity-sorted pairing (Fig. 12); false = arrival order. */
    bool sortBySparsity = true;
    /** Per-class SortBuffer capacity. */
    Index sortBufferCapacity = 65536;
    /** Extra origins merged per position (<= kMaxOrigins - 1). */
    Index maxMergeRounds = 2;
    /**
     * Candidate blocks tried per merge round before giving up
     * ("merging with Block0 continues with the subsequent blocks").
     * Failed attempts cost CVG cycles — the cost sorting avoids.
     */
    Index maxAttemptsPerRound = 3;
};

/** Result of processing one 16-row lane group. */
struct GroupResult
{
    std::vector<MergedTile> tiles;
    Index totalColumns = 0;    //!< columns examined
    Index condensedSlices = 0; //!< all-zero slices dropped
    Index entries = 0;         //!< entries fed to merging
    Index positionsUsed = 0;   //!< physical columns after merging
    Cycle mergeCycles = 0;     //!< CVG cycles in this group
    Index mergeAccepted = 0;
    Index mergeRejected = 0;
};

/** Aggregated statistics over a full mask. */
struct ConMergeStats
{
    Index groups = 0;
    Index totalColumnSlices = 0; //!< columns x groups
    Index matrixColumns = 0;
    Index matrixNonEmptyColumns = 0; //!< matrix-level condensing
    Index entriesAfterCondense = 0;
    Index positionsUsed = 0;
    Index tiles = 0;
    Cycle mergeCycles = 0;
    Index mergeAccepted = 0;
    Index mergeRejected = 0;

    /** Matrix-level remaining columns after condensing (Fig. 8). */
    double condenseRemainingFraction() const;

    /** Physical columns remaining after merging (Fig. 9 / 17). */
    double mergedRemainingFraction() const;

    /** Accumulates one group's result. */
    void add(const GroupResult &group);
};

/**
 * The ConMerge data-compaction pipeline.
 */
class ConMergePipeline
{
  public:
    explicit ConMergePipeline(const ConMergeConfig &cfg = {});

    /** Processes rows [row0, row0+16) of the mask. */
    GroupResult processGroup(const Bitmask2D &mask, Index row0) const;

    /** Processes every 16-row group of the mask. */
    ConMergeStats processMask(const Bitmask2D &mask) const;

    /** Active configuration. */
    const ConMergeConfig &config() const { return cfg_; }

  private:
    ConMergeConfig cfg_;
    Cvg cvg_;
};

} // namespace exion

#endif // EXION_CONMERGE_PIPELINE_H_
