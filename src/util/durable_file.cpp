#include "util/durable_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "util/fault_injector.h"
#include "util/retry.h"

namespace xtest::util {

namespace {

std::string tmp_prefix(const std::string& file, const std::string& tag) {
  return file + ".tmp." + (tag.empty() ? "" : tag + ".");
}

}  // namespace

void write_durably(const std::string& path, std::string_view data,
                   const std::string& what, const char* fault_scope,
                   const std::string& tag) {
  const std::string tmp =
      tmp_prefix(path, tag) + std::to_string(static_cast<long>(::getpid()));
  const auto site = [fault_scope](const char* step) {
    if (fault_scope != nullptr)
      FaultInjector::global().maybe_fail(std::string(fault_scope) + step);
  };
  const auto fail = [&what](const std::string& doing) {
    throw std::runtime_error(what + ": " + doing + ": " +
                             std::strerror(errno));
  };
  int fd = -1;
  try {
    site(".open");
    fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) fail("cannot open " + tmp);
    site(".write");
    if (!write_full(fd, data.data(), data.size()))
      fail("write failed for " + tmp);
    // The rename below publishes the file; without this fsync a crash
    // could publish a name whose *contents* never reached the disk.
    site(".fsync");
    if (::fsync(fd) != 0) fail("fsync failed for " + tmp);
    const int closed = ::close(fd);
    fd = -1;
    if (closed != 0) fail("close failed for " + tmp);
    site(".rename");
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
      fail("cannot rename " + tmp + " to " + path);
  } catch (...) {
    if (fd >= 0) ::close(fd);
    ::unlink(tmp.c_str());
    throw;
  }
  // Make the rename itself durable.
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  const std::string dir = parent.empty() ? "." : parent.string();
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

void remove_stale_tmps(const std::string& path, const std::string& tag) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path p(path);
  const fs::path dir =
      p.parent_path().empty() ? fs::path(".") : p.parent_path();
  const std::string prefix = tmp_prefix(p.filename().string(), tag);
  fs::directory_iterator it(dir, ec);
  if (ec) return;
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) != 0) continue;
    const std::string pid_part = name.substr(prefix.size());
    if (pid_part.empty() ||
        pid_part.find_first_not_of("0123456789") != std::string::npos)
      continue;
    fs::remove(entry.path(), ec);
  }
}

std::optional<std::string> read_whole_file(const std::string& path,
                                           const std::string& what) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::string text;
  char buf[4096];
  while (in.read(buf, sizeof buf)) text.append(buf, sizeof buf);
  text.append(buf, static_cast<std::size_t>(in.gcount()));
  if (in.bad())
    throw std::runtime_error(what + " " + path + ": read error: " +
                             std::strerror(errno));
  return text;
}

}  // namespace xtest::util
