// The manifest line codec: one record as `tag field field ...`,
// whitespace-separated.
//
// The cache manager's changelog (service/cache_manager.hpp) and the
// daemon's publication journal (service/daemon.hpp) both use this syntax
// for their record payloads; framing, checksums and replay are the
// changelog's job (support/changelog.hpp).
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace distapx {

/// One manifest line: a tag and its fields ("F ab12... 97" ->
/// tag="F", fields={"ab12...", "97"}).
struct ManifestRecord {
  std::string tag;
  std::vector<std::string> fields;
};

/// The record as one line, trailing newline included ("F ab12... 97\n").
std::string format_manifest_line(const ManifestRecord& record);

/// Inverse of format_manifest_line for one line (no trailing newline
/// required): nullopt for a blank/torn line.
std::optional<ManifestRecord> parse_manifest_line(std::string_view line);

}  // namespace distapx
