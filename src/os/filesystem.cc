#include "src/os/filesystem.hh"

#include "src/util/log.hh"

namespace piso {

FileSystem::FileSystem(std::uint32_t sectorBytes, std::uint32_t blockBytes,
                       std::uint64_t seed)
    : sectorBytes_(sectorBytes), blockBytes_(blockBytes), rng_(seed)
{
    if (sectorBytes_ == 0 || blockBytes_ == 0 ||
        blockBytes_ % sectorBytes_ != 0) {
        PISO_FATAL("block size ", blockBytes_,
                   " must be a multiple of sector size ", sectorBytes_);
    }
}

void
FileSystem::addDisk(DiskId disk, std::uint64_t totalSectors)
{
    if (disks_.count(disk))
        PISO_FATAL("disk ", disk, " already added to the file system");
    DiskSpace space;
    space.totalSectors = totalSectors;
    // Reserve ~0.2% at the front as the metadata zone (inodes,
    // directories) so metadata writes seek away from data extents.
    space.metadataEnd = std::max<std::uint64_t>(totalSectors / 512, 64);
    space.nextMetadata = 0;
    space.nextFree = space.metadataEnd;
    disks_[disk] = space;
}

FileId
FileSystem::allocate(std::string name, DiskId disk, std::uint64_t bytes,
                     FilePlacement placement, bool withMetadata)
{
    auto it = disks_.find(disk);
    if (it == disks_.end())
        PISO_FATAL("unknown disk ", disk, " for file '", name, "'");
    DiskSpace &space = it->second;

    std::uint64_t blocks = (bytes + blockBytes_ - 1) / blockBytes_;
    if (blocks == 0)
        blocks = 1;
    const std::uint32_t perBlock = sectorsPerBlock();
    const std::uint64_t sectors = blocks * perBlock;

    std::uint64_t start;
    if (placement == FilePlacement::Scattered) {
        // One draw for a block-aligned position in the data zone, with
        // no collision check: scattered extents may overlap each other
        // and the next-fit region. A file that fills the zone exactly
        // has one place to go and draws nothing.
        const std::uint64_t span = space.totalSectors - space.metadataEnd;
        if (sectors > span)
            PISO_FATAL("file '", name, "' larger than disk ", disk);
        start = space.metadataEnd;
        if (sectors < span)
            start +=
                (rng_.uniformInt(span - sectors) / perBlock) * perBlock;
    } else {
        if (space.nextFree + sectors > space.totalSectors)
            PISO_FATAL("disk ", disk, " out of space for '", name, "'");
        start = space.nextFree;
        space.nextFree += sectors;
    }
    space.allocated += sectors;

    FileInfo info;
    info.id = static_cast<FileId>(files_.size());
    info.name = std::move(name);
    info.disk = disk;
    info.startSector = start;
    info.sectors = sectors;
    info.bytes = bytes;
    if (withMetadata) {
        if (space.nextMetadata >= space.metadataEnd)
            space.nextMetadata = 0; // metadata sectors are reused
        info.metadataSector = space.nextMetadata++;
    }
    files_.push_back(info);
    return info.id;
}

FileId
FileSystem::createFile(std::string name, DiskId disk, std::uint64_t bytes,
                       FilePlacement placement)
{
    return allocate(std::move(name), disk, bytes, placement, true);
}

FileId
FileSystem::createExtent(std::string name, DiskId disk, std::uint64_t bytes,
                         FilePlacement placement)
{
    return allocate(std::move(name), disk, bytes, placement, false);
}

const FileInfo &
FileSystem::file(FileId id) const
{
    if (id < 0 || static_cast<std::size_t>(id) >= files_.size())
        PISO_PANIC("unknown file id ", id);
    return files_[static_cast<std::size_t>(id)];
}

std::uint64_t
FileSystem::blockCount(FileId id, std::uint64_t offset,
                       std::uint64_t bytes) const
{
    const FileInfo &f = file(id);
    if (offset + bytes > f.sectors * sectorBytes_) {
        PISO_PANIC("access [", offset, ", +", bytes, ") beyond file '",
                   f.name, "'");
    }
    if (bytes == 0)
        return 0;
    const std::uint64_t first = offset / blockBytes_;
    const std::uint64_t last = (offset + bytes - 1) / blockBytes_;
    return last - first + 1;
}

std::uint64_t
FileSystem::blockOf(std::uint64_t offset) const
{
    return offset / blockBytes_;
}

std::uint64_t
FileSystem::blockSector(FileId id, std::uint64_t blockNo) const
{
    const FileInfo &f = file(id);
    const std::uint64_t sector =
        f.startSector + blockNo * sectorsPerBlock();
    if (sector >= f.startSector + f.sectors)
        PISO_PANIC("block ", blockNo, " beyond file '", f.name, "'");
    return sector;
}

std::uint64_t
FileSystem::freeSectors(DiskId disk) const
{
    auto it = disks_.find(disk);
    if (it == disks_.end())
        PISO_FATAL("unknown disk ", disk);
    return it->second.totalSectors - it->second.nextFree;
}

} // namespace piso
