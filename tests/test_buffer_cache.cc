/**
 * @file
 * Unit tests for buffer-cache bookkeeping.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/os/buffer_cache.hh"
#include "src/sim/checkpoint.hh"
#include "src/util/error.hh"

using namespace piso;

namespace {
const BlockKey kA{1, 0};
const BlockKey kB{1, 1};
const BlockKey kC{2, 0};
constexpr std::uint32_t kNull = 0xffffffffu;

/** A cache image written field by field, in BufferCache::serialize's
 *  order, so tests can corrupt one field at a time. */
struct Image
{
    std::deque<CacheBlock> slab;
    std::vector<std::uint32_t> freeSlab;
    std::uint32_t lruHead = kNull;
    std::uint32_t lruTail = kNull;
    std::size_t size = 0;
    std::size_t dirty = 0;
    SpuTable<std::size_t> perSpu;

    std::string
    bytes() const
    {
        CkptWriter w;
        w(slab, freeSlab, lruHead, lruTail, size, dirty, perSpu);
        return w.image(0);
    }
};

CacheBlock
block(BlockKey key, SpuId owner, std::uint32_t slot, std::uint32_t prev,
      std::uint32_t next)
{
    CacheBlock b;
    b.key = key;
    b.valid = true;
    b.owner = owner;
    b.slabIndex = slot;
    b.lruPrev = prev;
    b.lruNext = next;
    return b;
}

/** Consistent image: slot 0 holds kA (SPU 2, dirty), slot 1 is free,
 *  slot 2 holds kC (SPU 3); LRU from head is kC, kA. */
Image
goodImage()
{
    Image img;
    img.slab.push_back(block(kA, 2, 0, 2, kNull));
    img.slab[0].dirty = true;
    CacheBlock freed;
    freed.slabIndex = 1;
    freed.lruPrev = 7;  // stale links of a freed slot are harmless
    freed.lruNext = 9;
    img.slab.push_back(freed);
    img.slab.push_back(block(kC, 3, 2, kNull, 0));
    img.freeSlab = {1};
    img.lruHead = 2;
    img.lruTail = 0;
    img.size = 2;
    img.dirty = 1;
    img.perSpu[2] = 1;
    img.perSpu[3] = 1;
    return img;
}

void
load(const Image &img, BufferCache &c)
{
    CkptReader r(img.bytes());
    r(c);
    r.expectEnd();
}

/** Loading @p img throws a ConfigError whose message names @p why. */
void
expectRejected(const Image &img, const std::string &why)
{
    BufferCache c;
    try {
        load(img, c);
        ADD_FAILURE() << "image accepted; wanted: " << why;
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
            << e.what();
    }
}
} // namespace

TEST(BufferCache, FindMissReturnsNull)
{
    BufferCache c;
    EXPECT_EQ(c.find(kA), nullptr);
    EXPECT_EQ(c.size(), 0u);
}

TEST(BufferCache, InsertAndFind)
{
    BufferCache c;
    c.insert(kA, 2, true);
    CacheBlock *blk = c.find(kA);
    ASSERT_NE(blk, nullptr);
    EXPECT_TRUE(blk->valid);
    EXPECT_FALSE(blk->dirty);
    EXPECT_EQ(blk->owner, 2);
    EXPECT_EQ(c.size(), 1u);
    EXPECT_EQ(c.pagesOf(2), 1u);
}

TEST(BufferCache, RemoveUncounts)
{
    BufferCache c;
    c.insert(kA, 2, true);
    c.remove(kA);
    EXPECT_EQ(c.find(kA), nullptr);
    EXPECT_EQ(c.size(), 0u);
    EXPECT_EQ(c.pagesOf(2), 0u);
}

TEST(BufferCache, DirtyCountTransitions)
{
    BufferCache c;
    CacheBlock &a = c.insert(kA, 2, true);
    CacheBlock &b = c.insert(kB, 2, true);
    c.markDirty(a);
    c.markDirty(a); // idempotent
    c.markDirty(b);
    EXPECT_EQ(c.dirtyCount(), 2u);
    c.markClean(a);
    EXPECT_EQ(c.dirtyCount(), 1u);
    c.markClean(a); // idempotent
    EXPECT_EQ(c.dirtyCount(), 1u);
}

TEST(BufferCache, RemoveDirtyAdjustsCount)
{
    BufferCache c;
    CacheBlock &a = c.insert(kA, 2, true);
    c.markDirty(a);
    c.remove(kA);
    EXPECT_EQ(c.dirtyCount(), 0u);
}

TEST(BufferCache, StealCleanPicksLru)
{
    BufferCache c;
    c.insert(kA, 2, true);
    c.insert(kB, 2, true);
    c.touch(*c.find(kA)); // A is now most recent; B is LRU
    SpuId owner = kNoSpu;
    EXPECT_TRUE(c.stealClean(2, owner));
    EXPECT_EQ(owner, 2);
    EXPECT_EQ(c.find(kB), nullptr); // B was stolen
    EXPECT_NE(c.find(kA), nullptr);
}

TEST(BufferCache, StealCleanSkipsDirtyAndFlushing)
{
    BufferCache c;
    CacheBlock &a = c.insert(kA, 2, true);
    CacheBlock &b = c.insert(kB, 2, true);
    c.markDirty(a);
    b.flushing = true;
    SpuId owner = kNoSpu;
    EXPECT_FALSE(c.stealClean(2, owner));
}

TEST(BufferCache, StealCleanSkipsInvalid)
{
    BufferCache c;
    c.insert(kA, 2, false); // in flight
    SpuId owner = kNoSpu;
    EXPECT_FALSE(c.stealClean(2, owner));
}

TEST(BufferCache, StealCleanRespectsVictimSpu)
{
    BufferCache c;
    c.insert(kA, 2, true);
    c.insert(kC, 3, true);
    SpuId owner = kNoSpu;
    EXPECT_TRUE(c.stealClean(3, owner));
    EXPECT_EQ(owner, 3);
    EXPECT_NE(c.find(kA), nullptr);
    EXPECT_EQ(c.find(kC), nullptr);
}

TEST(BufferCache, StealCleanAnySpu)
{
    BufferCache c;
    c.insert(kA, 2, true);
    SpuId owner = kNoSpu;
    EXPECT_TRUE(c.stealClean(kNoSpu, owner));
    EXPECT_EQ(owner, 2);
}

TEST(BufferCache, MarkValidRunsWaiters)
{
    BufferCache c;
    CacheBlock &a = c.insert(kA, 2, false);
    int woken = 0;
    a.waiters.push_back([&] { ++woken; });
    a.waiters.push_back([&] { ++woken; });
    c.markValid(a);
    EXPECT_EQ(woken, 2);
    EXPECT_TRUE(a.valid);
    EXPECT_TRUE(a.waiters.empty());
}

TEST(BufferCache, SetOwnerMovesPerSpuCounts)
{
    BufferCache c;
    CacheBlock &a = c.insert(kA, 2, true);
    c.setOwner(a, kSharedSpu);
    EXPECT_EQ(c.pagesOf(2), 0u);
    EXPECT_EQ(c.pagesOf(kSharedSpu), 1u);
    EXPECT_EQ(a.owner, kSharedSpu);
}

TEST(BufferCache, ForEachDirtyVisitsOnlyFlushable)
{
    BufferCache c;
    CacheBlock &a = c.insert(kA, 2, true);
    CacheBlock &b = c.insert(kB, 2, true);
    CacheBlock &x = c.insert(kC, 3, false);
    c.markDirty(a);
    c.markDirty(b);
    b.flushing = true;
    c.markDirty(x); // dirty but invalid: not flushable
    int visited = 0;
    c.forEachDirty([&](CacheBlock &blk) {
        ++visited;
        EXPECT_EQ(blk.key, kA);
    });
    EXPECT_EQ(visited, 1);
}

TEST(BufferCache, DuplicateInsertPanics)
{
    BufferCache c;
    c.insert(kA, 2, true);
    EXPECT_DEATH(c.insert(kA, 2, true), "duplicate");
}

TEST(BufferCache, RemoveWithWaitersPanics)
{
    BufferCache c;
    CacheBlock &a = c.insert(kA, 2, false);
    a.waiters.push_back([] {});
    EXPECT_DEATH(c.remove(kA), "waiters");
}

TEST(BufferCache, RemoveThroughItsOwnKey)
{
    BufferCache c;
    CacheBlock &a = c.insert(kA, 2, true);
    c.insert(kB, 2, true);
    c.remove(a.key);  // remove() scrubs the very key it was handed
    EXPECT_EQ(c.find(kA), nullptr);
    EXPECT_NE(c.find(kB), nullptr);
    EXPECT_EQ(c.size(), 1u);
    CacheBlock &again = c.insert(kA, 3, true);
    EXPECT_EQ(c.find(kA), &again);
    EXPECT_EQ(again.key, kA);
    EXPECT_EQ(c.pagesOf(3), 1u);
}

TEST(BufferCache, RestoredImageRebuildsLookups)
{
    BufferCache c;
    load(goodImage(), c);
    ASSERT_NE(c.find(kA), nullptr);
    ASSERT_NE(c.find(kC), nullptr);
    EXPECT_EQ(c.find(kB), nullptr);
    EXPECT_EQ(c.size(), 2u);
    EXPECT_EQ(c.dirtyCount(), 1u);
    EXPECT_EQ(c.pagesOf(3), 1u);
    // The free slot is reused and the LRU order survives: kA is dirty,
    // so the only clean block to steal is kC.
    EXPECT_EQ(c.insert(kB, 2, true).slabIndex, 1u);
    SpuId owner = kNoSpu;
    ASSERT_TRUE(c.stealClean(3, owner));
    EXPECT_EQ(c.find(kC), nullptr);
}

TEST(BufferCache, RestoreRejectsFreeSlotOutOfRange)
{
    Image img = goodImage();
    img.freeSlab = {5};
    expectRejected(img, "free-slab slot out of range or listed twice");
}

TEST(BufferCache, RestoreRejectsFreeSlotListedTwice)
{
    Image img = goodImage();
    img.freeSlab = {1, 1};
    expectRejected(img, "free-slab slot out of range or listed twice");
}

TEST(BufferCache, RestoreRejectsUnscrubbedFreeSlot)
{
    Image img = goodImage();
    img.slab[1].key = kB;
    expectRejected(img, "free slot is not scrubbed");
}

TEST(BufferCache, RestoreRejectsMisplacedSlotIndex)
{
    Image img = goodImage();
    img.slab[2].slabIndex = 0;
    expectRejected(img, "slot index disagrees with its position");
}

TEST(BufferCache, RestoreRejectsLiveSlotWithoutKey)
{
    Image img = goodImage();
    img.slab[2].key = BlockKey{};
    expectRejected(img, "live slot has no key");
}

TEST(BufferCache, RestoreRejectsDuplicateKey)
{
    Image img = goodImage();
    img.slab[2].key = kA;
    expectRejected(img, "key cached twice");
}

TEST(BufferCache, RestoreRejectsHugeBlockNumber)
{
    Image img = goodImage();
    img.slab[2].key.block = std::uint64_t{1} << 40;
    expectRejected(img, "block numbers exceed the index limit");
    img.slab[2].key.block = ~std::uint64_t{0};
    expectRejected(img, "block numbers exceed the index limit");
}

TEST(BufferCache, RestoreRejectsCountsThatDisagreeWithTheSlab)
{
    Image img = goodImage();
    img.size = 3;
    expectRejected(img, "block counts disagree with the slab");
    img = goodImage();
    img.dirty = 0;
    expectRejected(img, "block counts disagree with the slab");
    img = goodImage();
    img.perSpu[3] = 2;
    expectRejected(img, "per-SPU counts disagree with the slab");
    img = goodImage();
    img.perSpu.erase(3);
    expectRejected(img, "per-SPU counts disagree with the slab");
}

TEST(BufferCache, RestoreRejectsLruLinkOutOfRange)
{
    Image img = goodImage();
    img.slab[2].lruNext = 40;
    expectRejected(img, "LRU link out of range");
}

TEST(BufferCache, RestoreRejectsLruCycle)
{
    Image img = goodImage();
    img.slab[0].lruNext = 2;  // kC -> kA -> kC -> ...
    expectRejected(img, "LRU list revisits or holds a free slot");
}

TEST(BufferCache, RestoreRejectsLruThroughAFreeSlot)
{
    Image img = goodImage();
    img.slab[2].lruNext = 1;
    expectRejected(img, "LRU list revisits or holds a free slot");
}

TEST(BufferCache, RestoreRejectsLruLinksThatDisagree)
{
    Image img = goodImage();
    img.slab[0].lruPrev = kNull;  // kC says next is kA; kA says no prev
    expectRejected(img, "LRU links disagree");
}

TEST(BufferCache, RestoreRejectsLruThatMissesABlock)
{
    Image img = goodImage();
    img.lruHead = 0;  // kA alone: kC is live but off the list
    img.slab[0].lruPrev = kNull;
    expectRejected(img, "LRU list does not cover the live blocks");
    img = goodImage();
    img.lruTail = 2;
    expectRejected(img, "LRU list does not cover the live blocks");
}
