#ifndef PISO_OS_FILESYSTEM_HH
#define PISO_OS_FILESYSTEM_HH

/**
 * @file
 * A minimal extent-based file system layout.
 *
 * The disk experiments depend on *where* data sits: large files are
 * contiguous ("the sectors of a single file are often laid out
 * contiguously", Section 3.3), so a big copy can monopolise a C-SCAN
 * disk; pmake touches many small files scattered across the disk plus
 * one repeatedly-rewritten metadata sector. This module provides just
 * enough layout to reproduce those patterns: contiguous or scattered
 * extent allocation and a metadata sector per file.
 */

#include <cstdint>
#include <deque>
#include <map>
#include <string>

#include "src/sim/ids.hh"
#include "src/sim/random.hh"

namespace piso {

/** Placement policy for a new file's extent. */
enum class FilePlacement
{
    Sequential,  //!< next-fit after the previous allocation (contiguous
                 //!< stream of allocations packs together)
    Scattered,   //!< pseudo-random position on the disk (small source
                 //!< files spread around, like an aged file system)
};

/** One file: a single contiguous extent plus a metadata sector. */
struct FileInfo
{
    FileId id = kNoFile;
    std::string name;
    DiskId disk = 0;
    std::uint64_t startSector = 0;
    std::uint64_t sectors = 0;
    std::uint64_t metadataSector = 0;
    std::uint64_t bytes = 0;

    template <class Ar>
    void
    serialize(Ar &ar)
    {
        ar(id, name, disk, startSector, sectors, metadataSector, bytes);
    }
};

/**
 * Extent allocator and file table for all disks in the machine.
 * Blocks are fixed-size (default 4 KB = 8 sectors of 512 B).
 */
class FileSystem
{
  public:
    /**
     * @param sectorBytes Disk sector size (must match the disk model).
     * @param blockBytes  File-system block size.
     * @param seed        Seed for scattered placement.
     */
    FileSystem(std::uint32_t sectorBytes = 512,
               std::uint32_t blockBytes = 4096,
               std::uint64_t seed = 12345);

    /** Declare a disk and its capacity; reserves a small metadata zone
     *  at the front. Must be called before creating files on it. */
    void addDisk(DiskId disk, std::uint64_t totalSectors);

    /**
     * Create a file of @p bytes on @p disk.
     * @return the new file's id.
     */
    FileId createFile(std::string name, DiskId disk, std::uint64_t bytes,
                      FilePlacement placement = FilePlacement::Sequential);

    /**
     * Reserve a raw extent (e.g. per-SPU swap space) of @p bytes.
     * Returned as a FileInfo with no metadata sector semantics.
     */
    FileId createExtent(std::string name, DiskId disk, std::uint64_t bytes,
                        FilePlacement placement = FilePlacement::Sequential);

    const FileInfo &file(FileId id) const;

    std::uint32_t blockBytes() const { return blockBytes_; }
    std::uint32_t
    sectorsPerBlock() const
    {
        return blockBytes_ / sectorBytes_;
    }

    /** Number of blocks spanned by [offset, offset+bytes) in @p id. */
    std::uint64_t blockCount(FileId id, std::uint64_t offset,
                             std::uint64_t bytes) const;

    /** First block index covering @p offset. */
    std::uint64_t blockOf(std::uint64_t offset) const;

    /** Absolute disk sector of block @p blockNo of file @p id. */
    std::uint64_t blockSector(FileId id, std::uint64_t blockNo) const;

    /** Free sectors at @p disk's next-fit frontier: the room left
     *  for Sequential files and extents. Scattered files land at
     *  random positions and do not reduce it. */
    std::uint64_t freeSectors(DiskId disk) const;

    /** Checkpoint: full file table, allocator pointers and the
     *  scattered-placement RNG (files are created at run time, so the
     *  table cannot be replayed from configuration alone). */
    template <class Ar>
    void
    serialize(Ar &ar)
    {
        ar(rng_, disks_, files_);
    }

  private:
    struct DiskSpace
    {
        std::uint64_t totalSectors = 0;
        std::uint64_t nextFree = 0;       //!< next-fit pointer
        std::uint64_t nextMetadata = 0;   //!< metadata zone pointer
        std::uint64_t metadataEnd = 0;
        std::uint64_t allocated = 0;

        template <class Ar>
        void
        serialize(Ar &ar)
        {
            ar(totalSectors, nextFree, nextMetadata, metadataEnd,
               allocated);
        }
    };

    FileId allocate(std::string name, DiskId disk, std::uint64_t bytes,
                    FilePlacement placement, bool withMetadata);

    // piso-lint: allow(checkpoint-field-coverage) -- geometry
    // configuration, identical after deterministic setup replay.
    std::uint32_t sectorBytes_;
    // piso-lint: allow(checkpoint-field-coverage) -- geometry
    // configuration, identical after deterministic setup replay.
    std::uint32_t blockBytes_;
    Rng rng_;
    std::map<DiskId, DiskSpace> disks_;
    /** Indexed by FileId. A deque never moves its elements, so file()
     *  references stay valid and growth copies no records. */
    std::deque<FileInfo> files_;
};

} // namespace piso

#endif // PISO_OS_FILESYSTEM_HH
