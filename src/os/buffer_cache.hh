#ifndef PISO_OS_BUFFER_CACHE_HH
#define PISO_OS_BUFFER_CACHE_HH

/**
 * @file
 * File buffer cache bookkeeping.
 *
 * Tracks which file blocks are resident, their dirty/flushing state,
 * the owning SPU of each page (pages touched by a second SPU get
 * reclassified to the `shared` SPU by the Kernel, per Section 2.2),
 * and LRU order for stealing. The cache holds *no* frames itself — the
 * Kernel charges/uncharges frames through VirtualMemory and tells the
 * cache what happened; this keeps all memory policy in one place.
 *
 * Storage is a pointer-stable block slab with the LRU order kept as
 * an intrusive doubly-linked list of slab indices. Lookup goes through
 * per-file block rows: each cached file has a vector indexed by block
 * number holding the block's slab slot, so a probe is one file lookup
 * (usually the memoised last file) plus one indexed load. The rows
 * are derived from the slab; images carry only the slab, and restore
 * rebuilds the rows.
 */

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/spu_table.hh"
#include "src/sim/ids.hh"

namespace piso {

/** Identifies one file block. */
struct BlockKey
{
    FileId file = kNoFile;
    std::uint64_t block = 0;

    friend auto operator<=>(const BlockKey &, const BlockKey &) = default;

    template <class Ar>
    void
    serialize(Ar &ar)
    {
        ar(file, block);
    }
};

/** State of a cached block. */
struct CacheBlock
{
    BlockKey key;
    bool valid = false;     //!< data present (false: read in flight)
    bool dirty = false;
    // piso-lint: allow(checkpoint-field-coverage) -- false in any
    // image (Kernel::ioQuiescent).
    bool flushing = false;  //!< write in flight; not stealable
    SpuId owner = kNoSpu;   //!< SPU charged for the page

    /** Callbacks run when an in-flight read completes. */
    // piso-lint: allow(checkpoint-field-coverage) -- empty in any
    // image (Kernel::ioQuiescent); closures cannot serialise.
    std::vector<std::function<void()>> waiters;

    /** @name BufferCache internals (slab index and LRU links). */
    /// @{
    std::uint32_t slabIndex = 0;
    std::uint32_t lruPrev = 0;
    std::uint32_t lruNext = 0;
    /// @}

    template <class Ar>
    void
    serialize(Ar &ar)
    {
        ar(key, valid, dirty, owner, slabIndex, lruPrev, lruNext);
    }
};

/** Buffer-cache block table with LRU stealing. */
class BufferCache
{
  public:
    BufferCache() = default;
    BufferCache(const BufferCache &) = delete;
    BufferCache &operator=(const BufferCache &) = delete;

    /** Look up a block; nullptr on miss. Does not touch LRU. */
    CacheBlock *find(const BlockKey &key);

    /**
     * Insert a block whose frame the caller has already charged to
     * @p owner. @p valid=false marks a read in flight. The returned
     * reference (like every CacheBlock pointer) stays valid until the
     * block is removed: the slab never relocates blocks.
     */
    CacheBlock &insert(const BlockKey &key, SpuId owner, bool valid);

    /** Move @p blk to the front of the LRU list. */
    void touch(CacheBlock &blk);

    /** Remove a block (the caller uncharges the frame). @p key is a
     *  copy: callers may pass the block's own key, which is scrubbed. */
    void remove(BlockKey key);

    /** Change the charged owner of @p blk (shared-page reclassification;
     *  the caller moves the frame charge in VirtualMemory). */
    void setOwner(CacheBlock &blk, SpuId owner);

    /**
     * Steal the least-recently-used *clean, valid, non-flushing* block
     * owned by @p victim (or by anyone if @p victim == kNoSpu).
     * The block is removed; its owner is returned through @p owner so
     * the caller can transfer the frame charge.
     * @return true if a block was stolen.
     */
    bool stealClean(SpuId victim, SpuId &owner);

    /** Mark @p blk valid and run (and clear) its waiters. */
    void markValid(CacheBlock &blk);

    /** Dirty/clean transitions keep the dirty count exact. */
    void markDirty(CacheBlock &blk);
    void markClean(CacheBlock &blk);

    /** Total cached blocks. */
    std::size_t size() const { return size_; }

    /** Dirty (unflushed) blocks. */
    std::size_t dirtyCount() const { return dirty_; }

    /** Blocks charged to @p spu. */
    std::size_t pagesOf(SpuId spu) const;

    /** Invoke @p fn on every dirty, valid, non-flushing block, in
     *  ascending key order (the order the old std::map walk produced,
     *  which downstream flush clustering depends on). */
    template <class Fn>
    void
    forEachDirty(Fn &&fn)
    {
        for (const auto &[key, slot] : sortedDirty())
            fn(slab_[slot]);
    }

    /** @name I/O quiescence probes (Kernel::ioQuiescent) */
    /// @{
    /** Some block has a read in flight with waiters registered. */
    bool hasReadWaiters() const;
    /** Some block has a write in flight. */
    bool hasFlushingBlock() const;
    /// @}

    /** @name Checkpoint
     *  The slab, free list and LRU links are written verbatim so that
     *  slot reuse and LRU iteration order — observable through steal
     *  decisions — restore bit-identically. The per-file rows are not
     *  imaged: postLoad() rebuilds them from the slab. Images are
     *  taken only when no block is flushing and no waiters are
     *  registered (Kernel::ioQuiescent). */
    /// @{
    template <class Ar>
    void
    serialize(Ar &ar)
    {
        ar(slab_, freeSlab_, lruHead_, lruTail_, size_, dirty_, perSpu_);
    }

    /** Check the restored slab, free list, LRU list and counts against
     *  each other, then rebuild the rows; ConfigError on any
     *  disagreement. */
    void postLoad();
    /// @}

  private:
    /** Slab index meaning "none" (end of an LRU chain, free entry). */
    static constexpr std::uint32_t kNullSlot = 0xffffffffu;

    /** Most block positions a restored image may index, so a crafted
     *  block number cannot size a huge row (256 MiB of rows). */
    static constexpr std::uint64_t kMaxIndexedBlocks = std::uint64_t{1}
                                                       << 26;

    /** One file's blocks: row[block] is the slot caching it, or
     *  kNullSlot. */
    using Row = std::vector<std::uint32_t>;

    /** The rows (node-based, so a row never moves; rows never shrink
     *  during a run) and a memo of the last file looked up, since
     *  kernel loops touch one file's blocks in runs. */
    struct Index
    {
        std::unordered_map<FileId, Row> rows;
        FileId lastFile = kNoFile;
        Row *lastRow = nullptr;
    };

    /** The row cell of @p key, or nullptr when no row reaches it. */
    std::uint32_t *cellOf(const BlockKey &key);

    /** (key, slot) of every dirty, valid, non-flushing block, in
     *  ascending key order. */
    std::vector<std::pair<BlockKey, std::uint32_t>> sortedDirty() const;

    void lruUnlink(CacheBlock &blk);
    void lruPushFront(CacheBlock &blk);

    std::deque<CacheBlock> slab_;
    std::vector<std::uint32_t> freeSlab_;
    std::uint32_t lruHead_ = kNullSlot;
    std::uint32_t lruTail_ = kNullSlot;
    std::size_t size_ = 0;
    std::size_t dirty_ = 0;
    SpuTable<std::size_t> perSpu_;
    // piso-lint: allow(checkpoint-field-coverage) -- derived from the
    // slab; rebuilt by postLoad().
    Index index_;
};

} // namespace piso

#endif // PISO_OS_BUFFER_CACHE_HH
