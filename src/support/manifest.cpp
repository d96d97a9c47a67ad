#include "support/manifest.hpp"

#include <sstream>

namespace distapx {

std::string format_manifest_line(const ManifestRecord& record) {
  std::string line = record.tag;
  for (const std::string& f : record.fields) {
    line += ' ';
    line += f;
  }
  line += '\n';
  return line;
}

std::optional<ManifestRecord> parse_manifest_line(std::string_view line) {
  std::istringstream tokens{std::string(line)};
  ManifestRecord record;
  if (!(tokens >> record.tag)) return std::nullopt;  // blank or torn line
  std::string field;
  while (tokens >> field) record.fields.push_back(std::move(field));
  return record;
}

}  // namespace distapx
