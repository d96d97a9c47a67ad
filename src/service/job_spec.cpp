#include "service/job_spec.hpp"

#include <fstream>
#include <sstream>

#include "graph/genspec.hpp"
#include "service/algorithms.hpp"
#include "support/parse.hpp"

namespace distapx::service {

namespace {

[[noreturn]] void fail(const std::string& why) { throw JobError(why); }

std::uint64_t parse_uint(const std::string& key, const std::string& tok,
                         std::uint64_t max_value) {
  const auto value = parse_uint_strict(tok, max_value);
  if (!value) {
    fail(key + "=" + tok + " is not an integer in [0, " +
         std::to_string(max_value) + "]");
  }
  return *value;
}

double parse_double(const std::string& key, const std::string& tok) {
  const auto value = parse_double_strict(tok);
  if (!value) fail(key + "=" + tok + " is not a finite number");
  return *value;
}

/// "F:C" or "C" -> (first, count).
void parse_seeds(const std::string& tok, JobSpec& spec) {
  const auto colon = tok.find(':');
  if (colon == std::string::npos) {
    spec.first_seed = 1;
    spec.num_seeds = static_cast<std::uint32_t>(
        parse_uint("seeds", tok, 1u << 24));
  } else {
    spec.first_seed = parse_uint("seeds", tok.substr(0, colon), UINT64_MAX);
    spec.num_seeds = static_cast<std::uint32_t>(
        parse_uint("seeds", tok.substr(colon + 1), 1u << 24));
  }
  if (spec.num_seeds == 0) fail("seeds=" + tok + " requests zero runs");
}

/// "congest", "congest:MULT" or "local".
sim::BandwidthPolicy parse_policy(const std::string& tok) {
  if (tok == "local") return sim::BandwidthPolicy::local();
  const std::string prefix = "congest";
  if (tok == prefix) return sim::BandwidthPolicy::congest(32);
  if (tok.rfind(prefix + ":", 0) == 0) {
    const auto mult = static_cast<std::uint32_t>(parse_uint(
        "policy", tok.substr(prefix.size() + 1), 1u << 20));
    if (mult == 0) fail("policy=" + tok + " has a zero multiplier");
    return sim::BandwidthPolicy::congest(mult);
  }
  fail("policy=" + tok + " (want congest[:MULT] or local)");
}

}  // namespace

const Algorithm& validate_job_spec(const JobSpec& spec) {
  if (!(spec.eps > 0)) fail("eps must be positive");
  if (spec.max_w <= 0) fail("maxw must be positive");
  if (spec.algorithm.empty()) fail("missing required key algo=");
  const Algorithm* algorithm = find_algorithm(spec.algorithm);
  if (algorithm == nullptr) {
    fail("unknown algorithm \"" + spec.algorithm + "\"");
  }
  if (spec.gen_spec.empty() == spec.graph_file.empty()) {
    fail("exactly one of gen= / file= is required");
  }
  if (spec.num_seeds == 0) fail("a job needs at least one seed");
  return *algorithm;
}

JobSpec parse_job_line(const std::string& line) {
  JobSpec spec;
  std::istringstream is(line);
  std::string token;
  while (is >> token) {
    const auto eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      fail("token \"" + token + "\" is not key=value");
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (value.empty()) fail("empty value for key \"" + key + "\"");
    if (key == "gen") {
      try {
        gen::parse_spec(value);  // validate family/arity/values up front
      } catch (const gen::SpecError& e) {
        fail(e.what());
      }
      spec.gen_spec = value;
    } else if (key == "file") {
      spec.graph_file = value;
    } else if (key == "algo") {
      spec.algorithm = value;
    } else if (key == "seeds") {
      parse_seeds(value, spec);
    } else if (key == "name") {
      spec.name = value;
    } else if (key == "gseed") {
      spec.graph_seed = parse_uint(key, value, UINT64_MAX);
    } else if (key == "policy") {
      spec.policy = parse_policy(value);
    } else if (key == "eps") {
      spec.eps = parse_double(key, value);
    } else if (key == "maxw") {
      spec.max_w = static_cast<Weight>(parse_uint(key, value, 1u << 30));
    } else if (key == "rounds") {
      spec.max_rounds = static_cast<std::uint32_t>(
          parse_uint(key, value, 1u << 30));
    } else {
      fail("unknown key \"" + key + "\"");
    }
  }
  validate_job_spec(spec);
  return spec;
}

std::vector<JobSpec> parse_job_file(std::istream& is) {
  std::vector<JobSpec> jobs;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    try {
      jobs.push_back(parse_job_line(line));
    } catch (const JobError& e) {
      fail("line " + std::to_string(line_no) + ": " + e.what());
    }
    if (jobs.back().name.empty()) {
      jobs.back().name = "job" + std::to_string(jobs.size() - 1);
    }
  }
  return jobs;
}

std::vector<JobSpec> load_job_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) fail("cannot open job file " + path);
  return parse_job_file(is);
}

}  // namespace distapx::service
