// Whole-file reads and writes for the tools, the artifact store, the native
// backend and the serve engine's spec handoff.
//
// publishFile never truncates a regular file in place: a concurrent reader
// sees the old file, no file or the new file, never a torn one. Unlinking
// before the rename also keeps ext4's auto_da_alloc heuristic from
// flushing the new data, which it does on replace-by-truncate and on
// rename-over (tens of ms per file). Nothing is fsynced.
#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace xlv::util {

/// The whole file, or nullopt when it cannot be opened or read to the end.
std::optional<std::string> tryReadFile(const std::string& path);

/// The whole file; throws std::runtime_error("cannot read '<path>'").
std::string readFile(const std::string& path);

/// Replace `path` with `bytes`: write `<path>.tmp.<pid>-<seq>` beside it,
/// unlink `path`, rename the temp file onto it. The new file takes the
/// umask mode, as with `mv`. A target that exists and is not a regular
/// file (a character device such as /dev/null, a FIFO, a symlink) is
/// opened and written in place instead, and is never unlinked. On failure
/// the temp file is removed and std::runtime_error("cannot write '<path>':
/// <strerror>") is thrown.
void publishFile(const std::string& path, std::string_view bytes);

}  // namespace xlv::util
