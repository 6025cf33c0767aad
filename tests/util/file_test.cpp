// util/file: whole-file reads and publishFile's replace-by-unlink-and-rename,
// including the targets it must write in place (FIFO, symlink) and never
// unlink.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <filesystem>
#include <set>
#include <stdexcept>
#include <string>

#include "util/file.h"

namespace xlv::util {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  TempDir() {
    static int counter = 0;
    path = fs::temp_directory_path() /
           ("xlv-file-test-" + std::to_string(::getpid()) + "-" + std::to_string(counter++));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string operator/(const std::string& name) const { return (path / name).string(); }
  std::set<std::string> names() const {
    std::set<std::string> out;
    for (const auto& e : fs::directory_iterator(path)) out.insert(e.path().filename().string());
    return out;
  }
};

TEST(File, PublishOverAnExistingFileLeavesExactlyTheNewBytes) {
  TempDir dir;
  const std::string target = dir / "out.xlv";
  publishFile(target, std::string(4096, 'o'));
  publishFile(target, "new");
  EXPECT_EQ(readFile(target), "new");
  EXPECT_EQ(dir.names(), std::set<std::string>{"out.xlv"}) << "a temp file was left behind";
}

TEST(File, PublishIntoAMissingDirectoryThrowsAndLeavesNothing) {
  TempDir dir;
  const std::string target = dir / "missing/out.xlv";
  try {
    publishFile(target, "bytes");
    FAIL() << "publishFile into a missing directory returned";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("cannot write '" + target + "'"), std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(dir.names().empty());
}

TEST(File, AFifoTargetIsWrittenInPlaceAndStaysAFifo) {
  TempDir dir;
  const std::string fifo = dir / "fifo";
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  // The reader opens first (non-blocking), so the writer's open cannot
  // block and a wrong implementation fails instead of hanging.
  const int reader = ::open(fifo.c_str(), O_RDONLY | O_NONBLOCK);
  ASSERT_GE(reader, 0);
  publishFile(fifo, "through the fifo");
  std::string received;
  char buf[64];
  for (ssize_t n; (n = ::read(reader, buf, sizeof buf)) > 0;) {
    received.append(buf, static_cast<std::size_t>(n));
  }
  ::close(reader);
  EXPECT_EQ(received, "through the fifo");
  struct stat st{};
  ASSERT_EQ(::lstat(fifo.c_str(), &st), 0);
  EXPECT_TRUE(S_ISFIFO(st.st_mode)) << "the FIFO was replaced";
  EXPECT_EQ(dir.names(), std::set<std::string>{"fifo"});
}

TEST(File, ASymlinkTargetStaysASymlinkAndItsFileGetsTheBytes) {
  TempDir dir;
  const std::string real = dir / "real.xlv";
  const std::string link = dir / "link.xlv";
  publishFile(real, "old bytes, longer than the new ones");
  fs::create_symlink(real, link);
  publishFile(link, "new");
  EXPECT_TRUE(fs::is_symlink(link));
  EXPECT_EQ(readFile(real), "new");
  EXPECT_EQ(dir.names(), (std::set<std::string>{"link.xlv", "real.xlv"}));
}

TEST(File, ReadingAMissingPathThrowsOrReturnsNullopt) {
  TempDir dir;
  const std::string missing = dir / "nope";
  try {
    readFile(missing);
    FAIL() << "readFile of a missing path returned";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "cannot read '" + missing + "'");
  }
  EXPECT_FALSE(tryReadFile(missing).has_value());
  EXPECT_FALSE(tryReadFile(dir.path.string()).has_value()) << "a directory reads to no end";
}

}  // namespace
}  // namespace xlv::util
