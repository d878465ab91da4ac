#include "server/registry.h"

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/error.h"
#include "obs/obs.h"
#include "store/chunk_cache.h"

namespace transpwr {
namespace server {
namespace {

constexpr std::uint32_t kTparMagic = 0x31415054;  // "TPA1", head of archives

/// Does the file start with the TPAR head magic? Cheap 4-byte probe used
/// by list() so directory listings only advertise actual archives.
bool has_tpar_magic(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return false;
  std::uint32_t magic = 0;
  bool ok = std::fread(&magic, sizeof magic, 1, f) == 1;
  std::fclose(f);
  return ok && magic == kTparMagic;
}

}  // namespace

ArchiveRegistry::ArchiveRegistry(std::string dir) : dir_(std::move(dir)) {
  struct stat st{};
  if (::stat(dir_.c_str(), &st) != 0 || !S_ISDIR(st.st_mode))
    throw ParamError("serve: " + dir_ + " is not a directory");
}

std::string ArchiveRegistry::path_for(const std::string& name) const {
  if (name.empty() || name == "." || name == ".." ||
      name.find('/') != std::string::npos ||
      name.find('\0') != std::string::npos)
    throw ParamError("serve: malformed archive name");
  return dir_ + "/" + name;
}

std::vector<std::string> ArchiveRegistry::list() const {
  DIR* d = ::opendir(dir_.c_str());
  if (!d) throw StreamError("serve: cannot read directory " + dir_);
  std::vector<std::string> names;
  while (dirent* e = ::readdir(d)) {
    std::string name = e->d_name;
    if (name == "." || name == "..") continue;
    std::string path = dir_ + "/" + name;
    struct stat st{};
    if (::stat(path.c_str(), &st) != 0 || !S_ISREG(st.st_mode)) continue;
    if (!has_tpar_magic(path)) continue;
    names.push_back(std::move(name));
  }
  ::closedir(d);
  std::sort(names.begin(), names.end());
  return names;
}

std::shared_ptr<store::ArchiveReader> ArchiveRegistry::open(
    const std::string& name) {
  const std::string path = path_for(name);

  struct stat st{};
  if (::stat(path.c_str(), &st) != 0)
    throw NotFoundError("serve: no such archive: " + name);
  if (!S_ISREG(st.st_mode))
    throw NotFoundError("serve: not a regular file: " + name);
  const std::uint64_t identity = store::file_archive_id(
      static_cast<std::uint64_t>(st.st_dev),
      static_cast<std::uint64_t>(st.st_ino),
      static_cast<std::uint64_t>(st.st_size),
      static_cast<std::uint64_t>(st.st_mtim.tv_sec) * 1000000000ull +
          static_cast<std::uint64_t>(st.st_mtim.tv_nsec));

  std::lock_guard<std::mutex> lock(mu_);
  auto it = open_.find(name);
  if (it != open_.end() && it->second.identity == identity) {
    obs::counter_add("server.registry_hits");
    return it->second.reader;
  }
  // Miss, or the file on disk was rewritten since we opened it: open a
  // fresh reader under this identity. (Opening inside the lock keeps
  // concurrent first touches from mapping the same archive twice; opens
  // are O(directory), so the hold is short.)
  auto reader = std::make_shared<store::ArchiveReader>(path);
  obs::counter_add(it == open_.end() ? "server.registry_opens"
                                     : "server.registry_reopens");
  open_[name] = Entry{identity, reader};
  return reader;
}

void ArchiveRegistry::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  open_.clear();
}

}  // namespace server
}  // namespace transpwr
