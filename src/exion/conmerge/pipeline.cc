#include "exion/conmerge/pipeline.h"

#include <deque>

#include "exion/common/bitops.h"
#include "exion/common/logging.h"

namespace exion
{

double
ConMergeStats::condenseRemainingFraction() const
{
    if (matrixColumns == 0)
        return 0.0;
    return static_cast<double>(matrixNonEmptyColumns)
        / static_cast<double>(matrixColumns);
}

double
ConMergeStats::mergedRemainingFraction() const
{
    if (totalColumnSlices == 0)
        return 0.0;
    return static_cast<double>(positionsUsed)
        / static_cast<double>(totalColumnSlices);
}

void
ConMergeStats::add(const GroupResult &group)
{
    ++groups;
    totalColumnSlices += group.totalColumns;
    entriesAfterCondense += group.entries;
    positionsUsed += group.positionsUsed;
    tiles += group.tiles.size();
    mergeCycles += group.mergeCycles;
    mergeAccepted += group.mergeAccepted;
    mergeRejected += group.mergeRejected;
}

namespace
{

/**
 * Ordered entry source: sparsity classes (sorted mode) or arrival
 * order (random mode).
 */
class EntryPool
{
  public:
    EntryPool(bool sorted, Index capacity) : sorted_(sorted),
        buffer_(capacity)
    {}

    void
    pushAll(const std::vector<ColumnEntry> &entries)
    {
        for (const auto &e : entries)
            push(e);
    }

    void
    push(const ColumnEntry &entry)
    {
        if (sorted_)
            buffer_.push(entry);
        else
            fifo_.push_back(entry);
    }

    bool isEmpty() const
    {
        return sorted_ ? buffer_.isEmpty() : fifo_.empty();
    }

    Index size() const { return sorted_ ? buffer_.size() : fifo_.size(); }

    ColumnEntry
    popBase()
    {
        if (sorted_)
            return buffer_.popDensest();
        ColumnEntry e = fifo_.front();
        fifo_.pop_front();
        return e;
    }

    ColumnEntry
    popCandidate()
    {
        if (sorted_)
            return buffer_.popSparsest();
        ColumnEntry e = fifo_.front();
        fifo_.pop_front();
        return e;
    }

  private:
    bool sorted_;
    SortBuffer buffer_;
    std::deque<ColumnEntry> fifo_;
};

} // namespace

ConMergePipeline::ConMergePipeline(const ConMergeConfig &cfg) : cfg_(cfg)
{
    EXION_ASSERT(cfg_.maxMergeRounds + 1 <= kMaxOrigins,
                 "merge rounds ", cfg_.maxMergeRounds,
                 " exceed origin slots");
}

GroupResult
ConMergePipeline::processGroup(const Bitmask2D &mask, Index row0) const
{
    GroupResult result;
    std::vector<ColumnEntry> entries = extractEntries(
        mask, row0, &result.totalColumns);
    result.condensedSlices = result.totalColumns - entries.size();
    result.entries = entries.size();

    EntryPool pool(cfg_.sortBySparsity, cfg_.sortBufferCapacity);
    pool.pushAll(entries);

    while (!pool.isEmpty()) {
        std::vector<ColumnEntry> base;
        base.reserve(kTileCols);
        while (base.size() < kTileCols && !pool.isEmpty())
            base.push_back(pool.popBase());

        MergedTile tile;
        tile.initBase(base);

        for (Index slot = 1; slot <= cfg_.maxMergeRounds; ++slot) {
            // Positions still open for a merge in this round. With
            // sorting the classifier identifies near-full base
            // columns (HighDense) and skips them; without sorting
            // every position is attempted blindly — the wasted
            // attempts are exactly what Fig. 12 measures.
            std::vector<u8> open(base.size(), 1);
            if (cfg_.sortBySparsity) {
                for (Index pos = 0; pos < base.size(); ++pos) {
                    if (classifySparsity(base[pos])
                        == SparsityClass::HighDense)
                        open[pos] = 0;
                }
            }

            for (Index attempt = 0;
                 attempt < cfg_.maxAttemptsPerRound; ++attempt) {
                if (pool.isEmpty())
                    break;
                std::vector<std::optional<ColumnEntry>> candidates(
                    base.size());
                bool any = false;
                for (Index pos = 0; pos < base.size(); ++pos) {
                    if (!open[pos] || pool.isEmpty())
                        continue;
                    candidates[pos] = pool.popCandidate();
                    any = true;
                }
                if (!any)
                    break;
                MergePassResult pass = cvg_.mergeBlock(tile,
                                                       candidates,
                                                       slot);
                result.mergeCycles += pass.cycles;
                result.mergeAccepted += pass.accepted;
                result.mergeRejected += pass.rejected.size();
                for (const auto &entry : pass.rejected)
                    pool.push(entry);

                // A position is closed once its slot is filled.
                bool still_open = false;
                for (Index pos = 0; pos < base.size(); ++pos) {
                    if (open[pos] && tile.origin(pos, slot))
                        open[pos] = 0;
                    still_open |= open[pos] != 0;
                }
                if (!still_open || pass.rejected.empty())
                    break;
            }
        }

        result.positionsUsed += tile.positionsUsed();
        result.tiles.push_back(std::move(tile));
    }
    return result;
}

ConMergeStats
ConMergePipeline::processMask(const Bitmask2D &mask) const
{
    ConMergeStats stats;
    stats.matrixColumns = mask.cols();
    stats.matrixNonEmptyColumns = mask.nonEmptyColumnCount();
    const Index groups = ceilDiv(mask.rows(), kLanes);
    for (Index g = 0; g < groups; ++g)
        stats.add(processGroup(mask, g * kLanes));
    return stats;
}

} // namespace exion
