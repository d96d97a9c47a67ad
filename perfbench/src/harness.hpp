// The benchmark's in-process parts: the reference rows every response is
// checked against, the closed-loop load generator, and the traced
// per-layer pass.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/socket.hpp"
#include "stream.hpp"

namespace perfbench {

/// Expected runs CSVs, computed by an uncached in-process BatchServer.
/// Rows are memoized per job line, so a request's expected CSV is the
/// header plus its jobs' row blocks in order: the runs table is one block
/// of rows per job, in submission order.
class Reference {
 public:
  explicit Reference(unsigned threads);

  /// Computes the rows of every job in `reqs` not already known, spread
  /// over the reference's threads.
  void prepare(const std::vector<Request>& reqs);
  /// True when every job of `r` has been prepared.
  [[nodiscard]] bool covers(const Request& r) const;
  /// The runs CSV the server must return for `r`; requires covers(r).
  [[nodiscard]] std::string runs_csv(const Request& r) const;

 private:
  unsigned threads_;
  std::string header_;
  std::unordered_map<std::string, std::string> rows_;  ///< job line -> rows
};

/// One SUBMIT as the load generator saw it.
struct Sample {
  std::uint64_t index = 0;  ///< request index in the stream
  double latency_ms = 0;    ///< SUBMIT written -> RESULT/ERR read
  double done_s = 0;        ///< reply time since the phase started
  bool ok = false;          ///< RESULT (and, once checked, the right rows)
  bool checked = false;     ///< compared against the reference yet
  std::string runs_csv;     ///< kept until checked
};

struct LoadResult {
  std::vector<Sample> samples;
  double wall_s = 0;  ///< first SUBMIT -> last reply
};

/// Closed loop: `connections` clients, each sending its next SUBMIT only
/// after the previous reply, take request indices from `next` until
/// `seconds` have passed (seconds <= 0: until `limit` indices are taken).
/// Request i is (*fixed)[i] when `fixed` is set, else stream.at(i).
/// Responses whose rows `ref` already covers are checked inline; the
/// rest keep their runs CSV for check_samples().
LoadResult run_closed_loop(const distapx::net::Endpoint& ep,
                           const RequestStream& stream,
                           const std::vector<Request>* fixed,
                           std::atomic<std::uint64_t>& next,
                           std::uint64_t limit, unsigned connections,
                           double seconds, const Reference& ref);

/// Prepares the reference for every unchecked sample and checks it.
void check_samples(const RequestStream& stream,
                   const std::vector<Request>* fixed,
                   std::vector<Sample>& samples, Reference& ref);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

struct TracedResult {
  Metrics metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// The per-layer pass: the stream's requests through each layer's public
/// functions in-process under benchmark spans, then through an in-process
/// SocketServer with the program's own tracing on and off. Spans are
/// written to `work_dir`/spans.txt when the pass ends.
TracedResult traced_pass(const RequestStream& stream, double seconds,
                         const std::string& work_dir, Reference& ref);

/// Per-run cost of every catalogue row (threads=1, mean and coefficient
/// of variation over 9 seeds): the probe behind the table1-cold sizes.
void print_probe();

}  // namespace perfbench
