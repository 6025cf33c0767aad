#include "util/file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <stdexcept>

namespace xlv::util {

std::optional<std::string> tryReadFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return std::nullopt;
  std::string out;
  char buf[1 << 16];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof buf)) > 0 || (n < 0 && errno == EINTR)) {
    if (n > 0) out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  if (n < 0) return std::nullopt;  // e.g. EISDIR: opened, but not readable to the end
  return out;
}

std::string readFile(const std::string& path) {
  std::optional<std::string> bytes = tryReadFile(path);
  if (!bytes) throw std::runtime_error("cannot read '" + path + "'");
  return std::move(*bytes);
}

void publishFile(const std::string& path, std::string_view bytes) {
  struct stat st{};
  const bool inPlace = ::lstat(path.c_str(), &st) == 0 && !S_ISREG(st.st_mode);
  // The pid keeps processes sharing a directory apart, the sequence this
  // process's threads. The ArtifactStore's orphan sweep matches this form.
  static std::atomic<std::uint64_t> seq{0};
  const std::string temp = inPlace ? path
                                   : path + ".tmp." + std::to_string(::getpid()) + "-" +
                                         std::to_string(seq.fetch_add(1) + 1);
  const int flags = O_WRONLY | O_CREAT | O_CLOEXEC | (inPlace ? O_TRUNC : O_EXCL);
  const int fd = ::open(temp.c_str(), flags, 0666);
  if (fd < 0) {
    throw std::runtime_error("cannot write '" + path + "': " + std::strerror(errno));
  }
  int err = 0;
  for (std::string_view rest = bytes; !rest.empty() && err == 0;) {
    const ssize_t n = ::write(fd, rest.data(), rest.size());
    if (n >= 0) rest.remove_prefix(static_cast<std::size_t>(n));
    else if (errno != EINTR) err = errno;
  }
  if (::close(fd) != 0 && err == 0) err = errno;  // a failed close can report a lost write
  if (err == 0 && !inPlace) {
    ::unlink(path.c_str());  // a missing target is fine; rename reports the rest
    if (::rename(temp.c_str(), path.c_str()) != 0) err = errno;
  }
  if (err != 0) {
    if (!inPlace) ::unlink(temp.c_str());
    throw std::runtime_error("cannot write '" + path + "': " + std::strerror(err));
  }
}

}  // namespace xlv::util
