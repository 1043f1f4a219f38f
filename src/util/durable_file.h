// Crash-durable whole-file records.
//
// Every durable record in the tree -- campaign checkpoints and the serve
// job queue -- is rewritten whole: the new contents go to a pid-unique tmp
// file, which is fsync'd and renamed over the target, and then the
// directory entry is fsync'd.  A crash at any point therefore leaves either
// the previous or the new complete file, never a torn one.  The loaders
// read the whole file back and salvage a damaged tail themselves.

#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace xtest::util {

/// Writes `data` to the pid-unique tmp "<path>.tmp.<pid>" (with a `tag`:
/// "<path>.tmp.<tag>.<pid>"), fsyncs it, renames it over `path`, then
/// fsyncs the directory (best effort: some filesystems refuse to open a
/// directory for fsync).  On failure the tmp is removed and
/// std::runtime_error is thrown, its message prefixed with `what`.  A
/// non-null `fault_scope` adds the fault-injection sites "<scope>.open",
/// "<scope>.write", "<scope>.fsync" and "<scope>.rename", each fired just
/// before its step.
void write_durably(const std::string& path, std::string_view data,
                   const std::string& what, const char* fault_scope = nullptr,
                   const std::string& tag = "");

/// Removes the tmps a crashed write_durably(path, ..., tag) left behind.
/// Only names of exactly that tag match (untagged: a digits-only suffix),
/// so writers with their own tags sharing a directory -- or even a path
/// -- can never delete each other's in-flight tmps.
void remove_stale_tmps(const std::string& path, const std::string& tag = "");

/// The whole contents of `path`, or nullopt when it cannot be opened (a
/// fresh start).  A read error part-way through throws std::runtime_error
/// prefixed with `what`: a half-read file must not be mistaken for a
/// short one.
std::optional<std::string> read_whole_file(const std::string& path,
                                           const std::string& what);

}  // namespace xtest::util
