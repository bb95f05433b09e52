#include "src/os/buffer_cache.hh"

#include <algorithm>
#include <string>
#include <utility>

#include "src/util/log.hh"
#include "src/util/error.hh"

namespace piso {

std::uint32_t *
BufferCache::cellOf(const BlockKey &key)
{
    if (key.file != index_.lastFile) {
        const auto it = index_.rows.find(key.file);
        if (it == index_.rows.end())
            return nullptr;
        index_.lastFile = key.file;
        index_.lastRow = &it->second;
    }
    Row *row = index_.lastRow;
    return row && key.block < row->size() ? &(*row)[key.block] : nullptr;
}

void
BufferCache::lruUnlink(CacheBlock &blk)
{
    PISO_CHECK(blk.lruPrev != kNullSlot || lruHead_ == blk.slabIndex,
               "LRU unlink of a block that is not on the list (slot ",
               blk.slabIndex, ")");
    if (blk.lruPrev != kNullSlot)
        slab_[blk.lruPrev].lruNext = blk.lruNext;
    else
        lruHead_ = blk.lruNext;
    if (blk.lruNext != kNullSlot)
        slab_[blk.lruNext].lruPrev = blk.lruPrev;
    else
        lruTail_ = blk.lruPrev;
}

void
BufferCache::lruPushFront(CacheBlock &blk)
{
    blk.lruPrev = kNullSlot;
    blk.lruNext = lruHead_;
    if (lruHead_ != kNullSlot)
        slab_[lruHead_].lruPrev = blk.slabIndex;
    else
        lruTail_ = blk.slabIndex;
    lruHead_ = blk.slabIndex;
}

CacheBlock *
BufferCache::find(const BlockKey &key)
{
    const std::uint32_t *cell = cellOf(key);
    return cell && *cell != kNullSlot ? &slab_[*cell] : nullptr;
}

CacheBlock &
BufferCache::insert(const BlockKey &key, SpuId owner, bool valid)
{
    PISO_INVARIANT(key.file != kNoFile, "cache insert without a file");
    std::uint32_t *cell = cellOf(key);
    if (!cell) {
        Row &row = index_.rows[key.file];
        row.resize(std::max<std::uint64_t>(key.block + 1, row.size() * 2),
                   kNullSlot);
        cell = &row[key.block];
    }
    PISO_INVARIANT(*cell == kNullSlot, "duplicate cache insert for file ",
                   key.file, " block ", key.block);

    std::uint32_t slot;
    if (!freeSlab_.empty()) {
        slot = freeSlab_.back();
        freeSlab_.pop_back();
    } else {
        slot = static_cast<std::uint32_t>(slab_.size());
        slab_.emplace_back();
    }
    *cell = slot;

    CacheBlock &blk = slab_[slot];
    blk.key = key;
    blk.valid = valid;
    blk.dirty = false;
    blk.flushing = false;
    blk.owner = owner;
    blk.waiters.clear();
    blk.slabIndex = slot;
    lruPushFront(blk);
    ++perSpu_[owner];
    ++size_;
    return blk;
}

void
BufferCache::touch(CacheBlock &blk)
{
    lruUnlink(blk);
    lruPushFront(blk);
}

void
BufferCache::setOwner(CacheBlock &blk, SpuId owner)
{
    if (blk.owner == owner)
        return;
    --perSpu_[blk.owner];
    blk.owner = owner;
    ++perSpu_[owner];
}

void
BufferCache::remove(BlockKey key)
{
    std::uint32_t *cell = cellOf(key);
    PISO_INVARIANT(cell && *cell != kNullSlot, "removing uncached block");

    CacheBlock &blk = slab_[*cell];
    PISO_INVARIANT(blk.waiters.empty(),
                   "removing a block with waiters");
    PISO_CHECK(blk.key == key,
               "cache index slot disagrees with its slab block (file ",
               key.file, " block ", key.block, ")");
    if (blk.dirty)
        --dirty_;
    --perSpu_[blk.owner];
    lruUnlink(blk);
    freeSlab_.push_back(blk.slabIndex);
    *cell = kNullSlot;
    --size_;
    // Scrub the freed block so slab scans (forEachDirty) skip it.
    blk.key = BlockKey{};
    blk.valid = false;
    blk.dirty = false;
    blk.flushing = false;
    blk.owner = kNoSpu;
}

bool
BufferCache::stealClean(SpuId victim, SpuId &owner)
{
    // Walk from least-recently-used towards the front.
    for (std::uint32_t idx = lruTail_; idx != kNullSlot;
         idx = slab_[idx].lruPrev) {
        CacheBlock &blk = slab_[idx];
        if (!blk.valid || blk.dirty || blk.flushing)
            continue;
        if (victim != kNoSpu && blk.owner != victim)
            continue;
        owner = blk.owner;
        remove(blk.key);
        return true;
    }
    return false;
}

void
BufferCache::markValid(CacheBlock &blk)
{
    blk.valid = true;
    auto waiters = std::move(blk.waiters);
    blk.waiters.clear();
    for (auto &fn : waiters)
        fn();
}

void
BufferCache::markDirty(CacheBlock &blk)
{
    if (!blk.dirty) {
        blk.dirty = true;
        ++dirty_;
    }
}

void
BufferCache::markClean(CacheBlock &blk)
{
    if (blk.dirty) {
        blk.dirty = false;
        --dirty_;
    }
    blk.flushing = false;
}

std::size_t
BufferCache::pagesOf(SpuId spu) const
{
    const std::size_t *count = perSpu_.find(spu);
    return count ? *count : 0;
}

std::vector<std::pair<BlockKey, std::uint32_t>>
BufferCache::sortedDirty() const
{
    // Collect and sort so callers see ascending key order — flush
    // clustering and first-dirty-victim selection depend on it.
    std::vector<std::pair<BlockKey, std::uint32_t>> dirty;
    dirty.reserve(dirty_);
    for (const CacheBlock &blk : slab_) {
        if (blk.valid && blk.dirty && !blk.flushing)
            dirty.emplace_back(blk.key, blk.slabIndex);
    }
    std::sort(dirty.begin(), dirty.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });
    return dirty;
}

bool
BufferCache::hasReadWaiters() const
{
    return std::any_of(slab_.begin(), slab_.end(),
                       [](const CacheBlock &b) { return !b.waiters.empty(); });
}

bool
BufferCache::hasFlushingBlock() const
{
    return std::any_of(slab_.begin(), slab_.end(),
                       [](const CacheBlock &b) { return b.flushing; });
}

void
BufferCache::postLoad()
{
    const auto reject = [](const char *what) {
        throw ConfigError(std::string("checkpoint image rejected: "
                                      "buffer-cache ") + what);
    };
    std::vector<bool> isFree(slab_.size(), false);
    for (std::uint32_t slot : freeSlab_) {
        if (slot >= slab_.size() || isFree[slot])
            reject("free-slab slot out of range or listed twice");
        isFree[slot] = true;
        const CacheBlock &blk = slab_[slot];
        if (blk.key != BlockKey{} || blk.valid || blk.dirty ||
            blk.owner != kNoSpu)
            reject("free slot is not scrubbed");
    }

    // Rebuild the rows from the live slots, counting them as we go.
    index_ = Index{};
    std::size_t live = 0;
    std::size_t dirty = 0;
    std::uint64_t cells = 0;
    SpuTable<std::size_t> perSpu = perSpu_;
    for (std::uint32_t slot = 0; slot < slab_.size(); ++slot) {
        const CacheBlock &blk = slab_[slot];
        if (blk.slabIndex != slot)
            reject("slot index disagrees with its position");
        if (isFree[slot])
            continue;
        if (blk.key.file == kNoFile)
            reject("live slot has no key");
        ++live;
        dirty += blk.dirty ? 1 : 0;
        std::size_t *owned = perSpu.find(blk.owner);
        if (!owned || *owned == 0)
            reject("per-SPU counts disagree with the slab");
        --*owned;

        Row &row = index_.rows[blk.key.file];
        if (blk.key.block >= row.size()) {
            cells += blk.key.block + 1 - row.size();
            if (blk.key.block >= kMaxIndexedBlocks ||
                cells > kMaxIndexedBlocks)
                reject("block numbers exceed the index limit");
            row.resize(blk.key.block + 1, kNullSlot);
        }
        if (std::exchange(row[blk.key.block], slot) != kNullSlot)
            reject("key cached twice");
    }
    if (live != size_ || dirty != dirty_)
        reject("block counts disagree with the slab");
    for (const auto &[spu, n] : perSpu) {
        if (n != 0)
            reject("per-SPU counts disagree with the slab");
    }

    // The LRU list runs head to tail through every live slot once;
    // isFree doubles as the visited mark.
    std::uint32_t prev = kNullSlot;
    for (std::uint32_t idx = lruHead_; idx != kNullSlot;
         idx = slab_[idx].lruNext) {
        if (idx >= slab_.size())
            reject("LRU link out of range");
        if (isFree[idx])
            reject("LRU list revisits or holds a free slot");
        if (slab_[idx].lruPrev != prev)
            reject("LRU links disagree");
        isFree[idx] = true;
        prev = idx;
        --live;
    }
    if (prev != lruTail_ || live != 0)
        reject("LRU list does not cover the live blocks");
}

} // namespace piso
