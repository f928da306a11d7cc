#include "store/result_cache.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>

namespace impact::store {

namespace {

/// A boolean env knob: exactly "0" or "1"; unset or empty keeps
/// `fallback`. Any other value is an operator typo — warn and keep the
/// default rather than guess ("false" must not mean true).
bool env_flag(const char* name, bool fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  const std::string_view text(value);
  if (text == "0") return false;
  if (text == "1") return true;
  std::fprintf(stderr, "store: %s='%s' ignored (expected 0 or 1); using %d\n",
               name, value, fallback ? 1 : 0);
  return fallback;
}

}  // namespace

ResultCache::Options ResultCache::options_from_env() {
  Options options;
  options.enabled = env_flag("IMPACT_STORE", true);
  options.verify = env_flag("IMPACT_STORE_VERIFY", false);
  if (const char* dir = std::getenv("IMPACT_STORE_DIR");
      dir != nullptr && *dir != '\0') {
    options.disk_dir = dir;
  }
  return options;
}

ResultCache::ResultCache(Options options) : options_(std::move(options)) {
  if (!options_.disk_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options_.disk_dir, ec);
    if (ec) {
      std::fprintf(stderr,
                   "store: cannot create IMPACT_STORE_DIR '%s' (%s); "
                   "falling back to in-memory cache\n",
                   options_.disk_dir.c_str(), ec.message().c_str());
      options_.disk_dir.clear();
    }
  }
}

std::optional<Record> ResultCache::lookup(const Fingerprint& fp,
                                          std::string* raw_bytes) {
  if (!options_.enabled) return std::nullopt;
  std::scoped_lock lock(mu_);
  auto it = entries_.find(fp);
  bool from_disk = false;
  if (it == entries_.end() && !options_.disk_dir.empty()) {
    if (std::optional<std::string> bytes = disk_read(fp)) {
      it = entries_.emplace(fp, std::move(*bytes)).first;
      from_disk = true;
    }
  }
  if (it == entries_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  std::optional<Record> record = parse(it->second);
  if (!record || record->fp != fp) {
    // A corrupt record must degrade to a miss, never crash the sweep.
    ++stats_.rejected;
    ++stats_.misses;
    entries_.erase(it);
    return std::nullopt;
  }
  ++stats_.hits;
  if (from_disk) ++stats_.disk_hits;
  if (raw_bytes != nullptr) *raw_bytes = it->second;
  return record;
}

bool ResultCache::contains(const Fingerprint& fp) {
  if (!options_.enabled) return false;
  std::scoped_lock lock(mu_);
  if (entries_.contains(fp)) return true;
  if (options_.disk_dir.empty()) return false;
  std::error_code ec;
  return std::filesystem::exists(disk_path(fp), ec) && !ec;
}

void ResultCache::store(const Record& record) {
  if (!options_.enabled) return;
  std::string bytes = serialize(record);
  std::scoped_lock lock(mu_);
  if (!options_.disk_dir.empty()) disk_write(record.fp, bytes);
  entries_[record.fp] = std::move(bytes);
  ++stats_.stored;
}

ResultCache::Stats ResultCache::stats() const {
  std::scoped_lock lock(mu_);
  return stats_;
}

std::string ResultCache::disk_path(const Fingerprint& fp) const {
  return options_.disk_dir + "/" + fp.hex() + ".rec";
}

std::optional<std::string> ResultCache::disk_read(
    const Fingerprint& fp) const {
  std::ifstream in(disk_path(fp), std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!in.good() && !in.eof()) return std::nullopt;
  return std::move(buffer).str();
}

void ResultCache::disk_write(const Fingerprint& fp,
                             const std::string& bytes) {
  // Temp file + fsync + rename + directory fsync: readers never observe a
  // partial record, and once this returns the record survives power loss
  // — the rename is only durable after its directory entry is synced, and
  // the data only after the file itself is. (The old tmp+rename-without-
  // fsync version could lose a "committed" record entirely: the rename
  // could land while the data pages never did.) Equal fingerprints imply
  // equal bytes, so concurrent writers racing on the same temp name are
  // harmless.
  const std::string final_path = disk_path(fp);
  const std::string tmp_path = final_path + ".tmp";
  {
    const int fd = ::open(tmp_path.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) {
      std::fprintf(stderr, "store: cannot write '%s'\n", tmp_path.c_str());
      return;
    }
    std::size_t put = 0;
    while (put < bytes.size()) {
      const ssize_t got =
          ::write(fd, bytes.data() + put, bytes.size() - put);
      if (got <= 0) {
        std::fprintf(stderr, "store: short write to '%s'\n",
                     tmp_path.c_str());
        ::close(fd);
        return;
      }
      put += static_cast<std::size_t>(got);
    }
    if (::fsync(fd) != 0) {
      std::fprintf(stderr, "store: cannot fsync '%s'\n", tmp_path.c_str());
      ::close(fd);
      return;
    }
    ++stats_.fsyncs;
    ::close(fd);
  }
  std::error_code ec;
  std::filesystem::rename(tmp_path, final_path, ec);
  if (ec) {
    std::fprintf(stderr, "store: cannot rename '%s' -> '%s' (%s)\n",
                 tmp_path.c_str(), final_path.c_str(), ec.message().c_str());
    return;
  }
  const int dirfd =
      ::open(options_.disk_dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dirfd >= 0) {
    if (::fsync(dirfd) == 0) ++stats_.fsyncs;
    ::close(dirfd);
  }
}

}  // namespace impact::store
