/**
 * @file
 * Unit tests for the extent-based file system layout.
 */

#include <gtest/gtest.h>

#include "src/os/filesystem.hh"

using namespace piso;

namespace {

FileSystem
makeFs()
{
    FileSystem fs;
    fs.addDisk(0, 2000000);
    return fs;
}

} // namespace

TEST(FileSystem, BlockGeometry)
{
    FileSystem fs;
    EXPECT_EQ(fs.blockBytes(), 4096u);
    EXPECT_EQ(fs.sectorsPerBlock(), 8u);
}

TEST(FileSystem, CreateFileRecordsSize)
{
    FileSystem fs = makeFs();
    const FileId id = fs.createFile("a", 0, 10000);
    const FileInfo &f = fs.file(id);
    EXPECT_EQ(f.bytes, 10000u);
    EXPECT_EQ(f.sectors, 3u * 8u); // 3 blocks
    EXPECT_EQ(f.disk, 0);
}

TEST(FileSystem, SequentialFilesAreAdjacent)
{
    FileSystem fs = makeFs();
    const FileId a = fs.createFile("a", 0, 4096);
    const FileId b = fs.createFile("b", 0, 4096);
    EXPECT_EQ(fs.file(b).startSector,
              fs.file(a).startSector + fs.file(a).sectors);
}

TEST(FileSystem, ScatteredFilesSpread)
{
    FileSystem fs = makeFs();
    std::vector<std::uint64_t> starts;
    for (int i = 0; i < 20; ++i) {
        const FileId id =
            fs.createFile("s" + std::to_string(i), 0, 4096,
                          FilePlacement::Scattered);
        starts.push_back(fs.file(id).startSector);
    }
    // The spread of scattered starts should cover a large span.
    const auto [mn, mx] = std::minmax_element(starts.begin(), starts.end());
    EXPECT_GT(*mx - *mn, 100000u);
}

TEST(FileSystem, ZeroByteFileStillGetsABlock)
{
    FileSystem fs = makeFs();
    const FileId id = fs.createFile("z", 0, 0);
    EXPECT_EQ(fs.file(id).sectors, 8u);
}

TEST(FileSystem, MetadataSectorInFrontZone)
{
    FileSystem fs = makeFs();
    const FileId a = fs.createFile("a", 0, 4096);
    const FileId b = fs.createFile("b", 0, 4096);
    EXPECT_LT(fs.file(a).metadataSector, 2000000u / 512 + 64);
    EXPECT_NE(fs.file(a).metadataSector, fs.file(b).metadataSector);
    // Data extents start past the metadata zone.
    EXPECT_GE(fs.file(a).startSector, fs.file(a).metadataSector);
}

TEST(FileSystem, BlockSectorMapsThroughExtent)
{
    FileSystem fs = makeFs();
    const FileId id = fs.createFile("a", 0, 5 * 4096);
    const FileInfo &f = fs.file(id);
    EXPECT_EQ(fs.blockSector(id, 0), f.startSector);
    EXPECT_EQ(fs.blockSector(id, 4), f.startSector + 32);
}

TEST(FileSystem, BlockCountSpansPartialBlocks)
{
    FileSystem fs = makeFs();
    const FileId id = fs.createFile("a", 0, 10 * 4096);
    EXPECT_EQ(fs.blockCount(id, 0, 4096), 1u);
    EXPECT_EQ(fs.blockCount(id, 0, 4097), 2u);
    EXPECT_EQ(fs.blockCount(id, 4095, 2), 2u); // straddles boundary
    EXPECT_EQ(fs.blockCount(id, 8192, 0), 0u);
}

TEST(FileSystem, CreateExtentHasNoMetadataChurn)
{
    FileSystem fs = makeFs();
    const FileId swap = fs.createExtent("swap", 0, 1 << 20);
    EXPECT_EQ(fs.file(swap).sectors, (1u << 20) / 512);
}

TEST(FileSystem, FreeSectorsDecrease)
{
    FileSystem fs = makeFs();
    const std::uint64_t before = fs.freeSectors(0);
    fs.createFile("a", 0, 1 << 20);
    EXPECT_EQ(fs.freeSectors(0), before - (1u << 20) / 512);
}

TEST(FileSystem, MultipleDisksIndependent)
{
    FileSystem fs;
    fs.addDisk(0, 1000000);
    fs.addDisk(1, 1000000);
    const FileId a = fs.createFile("a", 0, 4096);
    const FileId b = fs.createFile("b", 1, 4096);
    EXPECT_EQ(fs.file(a).disk, 0);
    EXPECT_EQ(fs.file(b).disk, 1);
    EXPECT_EQ(fs.file(a).startSector, fs.file(b).startSector);
}

TEST(FileSystem, ErrorsOnUnknownDiskOrFile)
{
    FileSystem fs = makeFs();
    EXPECT_THROW(fs.createFile("x", 9, 4096), std::runtime_error);
    EXPECT_THROW(fs.freeSectors(7), std::runtime_error);
    EXPECT_DEATH(fs.file(1234), "unknown file");
}

TEST(FileSystem, DiskFullIsFatal)
{
    FileSystem fs;
    fs.addDisk(0, 1024);
    EXPECT_THROW(fs.createFile("big", 0, 10 << 20), std::runtime_error);
}

TEST(FileSystem, AccessBeyondFilePanics)
{
    FileSystem fs = makeFs();
    const FileId id = fs.createFile("a", 0, 4096);
    EXPECT_DEATH(fs.blockCount(id, 0, 2 * 4096 + 1), "beyond");
    EXPECT_DEATH(fs.blockSector(id, 5), "beyond");
}

TEST(FileSystem, DuplicateDiskRejected)
{
    FileSystem fs = makeFs();
    EXPECT_THROW(fs.addDisk(0, 100), std::runtime_error);
}

TEST(FileSystem, ScatteredFileFillingTheDataZoneDrawsNothing)
{
    // 1024 sectors: the metadata zone takes the first 64, leaving a
    // 960-sector (120-block) data zone.
    const std::uint64_t zone = (1024 - 64) * 512;
    FileSystem fs;
    fs.addDisk(0, 1024);
    const FileId full =
        fs.createFile("full", 0, zone, FilePlacement::Scattered);
    EXPECT_EQ(fs.file(full).startSector, 64u);
    EXPECT_EQ(fs.file(full).sectors, 960u);

    // The next scattered file lands where it would have without the
    // full one: filling the zone consumed no draw.
    FileSystem fresh;
    fresh.addDisk(0, 1024);
    const FileId a = fs.createFile("a", 0, 4096, FilePlacement::Scattered);
    const FileId b =
        fresh.createFile("a", 0, 4096, FilePlacement::Scattered);
    EXPECT_EQ(fs.file(a).startSector, fresh.file(b).startSector);

    // One block short of the zone still draws: two possible starts.
    const FileId c =
        fs.createFile("c", 0, zone - 4096, FilePlacement::Scattered);
    EXPECT_TRUE(fs.file(c).startSector == 64u ||
                fs.file(c).startSector == 72u);
}

TEST(FileSystem, FreeSectorsIgnoresScatteredFiles)
{
    FileSystem fs = makeFs();
    const std::uint64_t before = fs.freeSectors(0);
    fs.createFile("s", 0, 1 << 20, FilePlacement::Scattered);
    EXPECT_EQ(fs.freeSectors(0), before);
}

TEST(FileSystem, FileReferencesSurviveGrowth)
{
    FileSystem fs = makeFs();
    const FileInfo *first = &fs.file(fs.createFile("f0", 0, 512));
    for (int i = 1; i <= 100000; ++i) {
        ASSERT_EQ(fs.createFile("f", 0, 512, FilePlacement::Scattered),
                  i);
    }
    ASSERT_EQ(&fs.file(0), first);
    EXPECT_EQ(first->name, "f0");
    EXPECT_EQ(fs.file(100000).id, 100000);
}
