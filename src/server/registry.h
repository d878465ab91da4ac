#ifndef TRANSPWR_SERVER_REGISTRY_H
#define TRANSPWR_SERVER_REGISTRY_H

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/error.h"
#include "store/archive.h"

namespace transpwr {
namespace server {

/// Thrown when a request names an archive, dataset, or chunk that does
/// not exist. Separate from StreamError (which means "exists but is
/// corrupt/unreadable") so the protocol layer can answer kErrNotFound /
/// HTTP 404 vs kErrBadState / HTTP 502 without string matching.
class NotFoundError : public Error {
 public:
  explicit NotFoundError(const std::string& what) : Error(what) {}
};

/// Shared per-archive reader handles for the server. Every concurrent
/// connection that touches archive `name` gets the *same*
/// store::ArchiveReader, so the mmap, the lazy-verification bitmap, and
/// the process-wide decoded-chunk cache are shared across clients — a
/// hot ROI is opened, checksummed, and decoded once per process, not
/// once per request.
///
/// Entries are keyed by archive *identity*, the PR 8 tuple
/// (device, inode, size, mtime) hashed by store::file_archive_id — the
/// same identity the chunk cache keys on. open() re-stats the file on
/// every call: when the identity on disk no longer matches the cached
/// reader's, the stale handle is dropped and the archive re-opened, so a
/// rewritten file is picked up on the next request without a restart
/// (in-flight requests keep their shared_ptr and finish against the old
/// mapping, which stays valid until the last reference dies).
class ArchiveRegistry {
 public:
  /// `dir` is the served directory; archive names are plain file names
  /// inside it (no subdirectories).
  explicit ArchiveRegistry(std::string dir);

  /// Sorted names of regular files in the directory that carry the TPAR
  /// head magic. Unreadable or non-archive files are skipped, not
  /// errors — the directory may hold logs or half-written `.part`
  /// files.
  std::vector<std::string> list() const;

  /// Shared reader for `name`, opening (or re-opening) it on demand.
  /// Throws ParamError on a malformed name (path separators, "..",
  /// empty) and StreamError when the file is missing or not a valid
  /// archive.
  std::shared_ptr<store::ArchiveReader> open(const std::string& name);

  /// Drop every cached handle (tests; also invoked on shutdown so mmaps
  /// are released deterministically).
  void clear();

  const std::string& dir() const { return dir_; }

 private:
  struct Entry {
    std::uint64_t identity = 0;
    std::shared_ptr<store::ArchiveReader> reader;
  };

  /// Validated absolute path for an archive name.
  std::string path_for(const std::string& name) const;

  std::string dir_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> open_;
};

}  // namespace server
}  // namespace transpwr

#endif  // TRANSPWR_SERVER_REGISTRY_H
