#include "service/daemon.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>
#include <thread>

#include "service/batch_server.hpp"
#include "service/job_spec.hpp"
#include "service/report_sink.hpp"
#include "support/failpoint.hpp"
#include "support/fsutil.hpp"
#include "support/log.hpp"
#include "support/manifest.hpp"

namespace distapx::service {

namespace fs = std::filesystem;

namespace {

void ensure_dir(const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec || !fs::is_directory(dir)) {
    throw JobError("cannot create spool directory " + dir + ": " +
                   ec.message());
  }
}

/// fsutil::move_file (rename, or temp-copy + rename across filesystems —
/// a half-copied job file must never become visible in done/failed).
/// Throws JobError: a job file that cannot leave the spool would
/// otherwise be re-served on every poll cycle forever.
void move_file(const fs::path& from, const fs::path& to) {
  try {
    fsutil::move_file(from, to);
  } catch (const fs::filesystem_error& e) {
    throw JobError("cannot move " + from.string() + " to " + to.string() +
                   ": " + e.code().message());
  }
}

/// Durable publication (temp + fdatasync + rename + dir fsync, per the
/// process durability knob). Must not silently truncate *or tear*: a
/// short runs.csv surviving a power loss would be a corrupt determinism
/// witness that looks published.
void write_text(const fs::path& path, const std::string& text) {
  std::string err;
  if (!fsutil::write_file_durable(path, text, &err)) {
    throw JobError("cannot write " + path.string() + ": " + err);
  }
}

/// True iff every published artifact of `name` exists in done/ — the
/// resume precondition (a P record with a missing done-file means the
/// predecessor died mid-publication; recompute from scratch instead).
bool publication_complete(const fs::path& done, const std::string& name) {
  std::error_code ec;
  return fs::is_regular_file(done / (name + ".summary.csv"), ec) &&
         fs::is_regular_file(done / (name + ".runs.csv"), ec) &&
         fs::is_regular_file(done / (name + ".report.txt"), ec);
}

}  // namespace

Daemon::Daemon(DaemonOptions opts) : opts_(std::move(opts)) {
  if (opts_.spool_dir.empty()) throw JobError("daemon needs a spool dir");
  if (opts_.registry != nullptr) {
    reg_ = opts_.registry;
  } else {
    own_registry_ = std::make_unique<metrics::Registry>();
    reg_ = own_registry_.get();
  }
  ensure_dir(opts_.spool_dir);
  ensure_dir(opts_.spool_dir + "/done");
  ensure_dir(opts_.spool_dir + "/failed");
  if (!opts_.cache_dir.empty()) {
    cache_.emplace(opts_.cache_dir, opts_.cache_budget, reg_);
  } else if (opts_.cache_budget != 0) {
    throw JobError("cache_budget needs a cache_dir");
  }

  try {
    journal_.emplace(opts_.spool_dir + "/journal");
  } catch (const ChangelogError& e) {
    throw JobError("cannot open spool journal in " + opts_.spool_dir + ": " +
                   e.what());
  }
  // Replay the predecessor's claim/publish records: a `P` without its `D`
  // is a job whose results were published but whose spool move never
  // durably completed.
  const auto apply = [this](const std::string& payload) {
    const auto rec = parse_manifest_line(payload);
    if (!rec || rec->fields.empty()) return;
    if (rec->tag == "P") {
      published_.insert(rec->fields[0]);
    } else if (rec->tag == "D") {
      published_.erase(rec->fields[0]);
    }
  };
  for (const std::string& p : journal_->replayed().snapshot) apply(p);
  for (const std::string& p : journal_->replayed().tail) apply(p);
  // A claim whose job file already left the spool crashed *after* the
  // move, before its D record: the work is fully done — settle it now.
  // What survives in published_ is picked up by process_file as a resume.
  for (auto it = published_.begin(); it != published_.end();) {
    std::error_code ec;
    if (fs::is_regular_file(fs::path(opts_.spool_dir) / (*it + ".job"), ec)) {
      ++it;
    } else {
      it = published_.erase(it);
    }
  }
  // Compact: the journal restarts as a snapshot of still-pending claims,
  // so it never accumulates a long-lived daemon's full history.
  std::vector<std::string> pending;
  pending.reserve(published_.size());
  for (const std::string& name : published_) pending.push_back("P " + name);
  std::sort(pending.begin(), pending.end());
  journal_->snapshot(pending);
}

JobFileReport Daemon::process_file(const std::string& path) {
  const fs::path job_path(path);
  JobFileReport report;
  report.name = job_path.stem().string();
  const fs::path done = fs::path(opts_.spool_dir) / "done";
  const fs::path failed = fs::path(opts_.spool_dir) / "failed";

  // Per-file trace: one root span covering claim-to-move, with parse /
  // publish children here and per-seed cache-lookup / compute /
  // cache-store children recorded by the BatchServer workers.
  std::optional<trace::Collector> tracer;
  std::uint32_t file_span = 0;
  if (trace::enabled() &&
      (opts_.trace_sink != nullptr || opts_.slow_ms != 0)) {
    tracer.emplace(++trace_seq_, "spool");
    file_span = tracer->begin("serve-file");
    tracer->annotate(file_span, "file", report.name);
  }
  const std::uint64_t trace_id = tracer ? tracer->id() : 0;
  const auto finish_trace = [&](const char* outcome) {
    if (!tracer) return;
    tracer->annotate(file_span, "outcome", outcome);
    tracer->end(file_span);
    trace::complete(*tracer, opts_.trace_sink, opts_.slow_ms);
  };

  try {
    // Resume: a crashed predecessor journaled `P name` and the done files
    // are complete — the only thing missing is the spool move. Finish it
    // without recomputing and without touching one published byte, so no
    // consumer can ever observe a second (even bit-identical) publication.
    if (published_.count(report.name) != 0 &&
        publication_complete(done, report.name)) {
      move_file(job_path, done / job_path.filename());
      journal_->append("D " + report.name);
      published_.erase(report.name);
      report.ok = true;
      report.resumed = true;
      reg_->counter("spool_resumed_total").inc();
      reg_->counter("spool_files_served_total").inc();
      logx::info("job_file_resumed",
                 {{"file", report.name}, {"trace", trace_id}});
      finish_trace("resumed");
      return report;
    }

    BatchOptions batch_opts;
    batch_opts.threads = opts_.threads;
    batch_opts.cache = cache();
    batch_opts.registry = reg_;
    batch_opts.trace = tracer ? &*tracer : nullptr;
    batch_opts.trace_parent = file_span;
    BatchServer server(batch_opts);
    std::uint32_t parse_span = 0;
    if (tracer) parse_span = tracer->begin("parse", file_span);
    server.submit_all(load_job_file(path));
    if (tracer) tracer->end(parse_span);
    if (server.num_jobs() == 0) throw JobError("job file contains no jobs");
    const BatchResult result = server.serve();

    report.ok = true;
    report.runs = result.total_runs;
    report.cache_hits = result.cache_hits;
    report.computed = result.computed;
    report.materialized = result.materialized;
    report.wall_seconds = result.wall_seconds;

    // Publish results before moving the job file: a crash between the two
    // leaves the file in the spool to be re-served (idempotent thanks to
    // the cache), never a consumed-but-unreported job. Rendering goes
    // through the shared report sink, so these bytes are the same ones
    // the socket server returns in a RESULT frame.
    std::uint32_t publish_span = 0;
    if (tracer) publish_span = tracer->begin("publish", file_span);
    const RenderedResult rendered =
        render_result(job_path.filename().string(), result);
    write_text(done / (report.name + ".summary.csv"), rendered.summary_csv);
    write_text(done / (report.name + ".runs.csv"), rendered.runs_csv);
    write_text(done / (report.name + ".report.txt"), rendered.report_txt);
    // `P name` lands durably (the append fdatasyncs) before the move: a
    // crash anywhere in the publish->move window is now recoverable as a
    // resume instead of a recompute-and-republish. An append failure only
    // costs that recoverability — the publication itself already
    // succeeded — so it degrades, not throws.
    if (!journal_->append("P " + report.name)) {
      logx::warn("spool_journal_append_failed", {{"file", report.name}});
    }
    failpoint::hit("daemon_publish_move");
    move_file(job_path, done / job_path.filename());
    journal_->append("D " + report.name);
    if (tracer) {
      tracer->annotate(publish_span, "runs", report.runs);
      tracer->end(publish_span);
    }
    reg_->counter("spool_files_served_total").inc();
    logx::info("job_file_served", {{"file", report.name},
                                   {"runs", report.runs},
                                   {"cache_hits", report.cache_hits},
                                   {"computed", report.computed},
                                   {"materialized", report.materialized},
                                   {"trace", trace_id}});
    finish_trace("served");
  } catch (const failpoint::Failure&) {
    // A simulated crash must behave like a real one: unwind out of the
    // daemon entirely rather than being quarantined as a bad job file.
    throw;
  } catch (const std::exception& e) {
    // Quarantine: the diagnostic (with its line number, for parse errors)
    // lands next to the offending file and the daemon keeps serving.
    report.ok = false;
    report.error = e.what();
    reg_->counter("spool_files_quarantined_total").inc();
    logx::warn("job_file_quarantined", {{"file", report.name},
                                        {"err", report.error},
                                        {"trace", trace_id}});
    finish_trace("quarantined");
    try {
      write_text(failed / (report.name + ".error"), report.error + "\n");
      move_file(job_path, failed / job_path.filename());
    } catch (const std::exception&) {
      // Even the quarantine failed (spool subdirs unwritable, disk
      // full). Pin the file so the poll loop does not re-serve it
      // forever; the operator sees the fault in the returned report.
      stuck_.insert(job_path.filename().string());
    }
  }
  return report;
}

std::vector<JobFileReport> Daemon::drain_once() {
  // Claim order is lexicographic on the file name, never directory order:
  // a drained spool produces the same sequence of reports on every
  // platform and filesystem.
  std::vector<fs::path> batch;
  std::error_code ec;
  for (fs::directory_iterator it(opts_.spool_dir, ec), end;
       !ec && it != end; it.increment(ec)) {
    if (it->is_regular_file(ec) && it->path().extension() == ".job" &&
        stuck_.count(it->path().filename().string()) == 0) {
      batch.push_back(it->path());
    }
  }
  std::sort(batch.begin(), batch.end());

  std::vector<JobFileReport> reports;
  for (const fs::path& p : batch) {
    if (stop_.load()) break;
    if (opts_.max_files != 0 && served_ >= opts_.max_files) break;
    reports.push_back(process_file(p.string()));
    ++served_;
  }
  return reports;
}

std::uint32_t next_idle_wait_ms(std::uint32_t current_ms,
                                std::uint32_t cap_ms) noexcept {
  if (current_ms == 0) return cap_ms < 1 ? cap_ms : 1;
  const std::uint32_t doubled =
      current_ms > cap_ms / 2 ? cap_ms : current_ms * 2;
  return doubled < cap_ms ? doubled : cap_ms;
}

std::vector<JobFileReport> Daemon::run() {
  const fs::path sentinel = fs::path(opts_.spool_dir) / "stop";
  std::vector<JobFileReport> all;
  std::uint32_t wait_ms = 0;  // backoff state; 0 = just saw activity
  // /healthz on an admin endpoint sharing this registry reads these.
  metrics::Gauge& ready = reg_->gauge("ready");
  ready.set(1);
  logx::info("daemon_started", {{"spool", opts_.spool_dir}});
  for (;;) {
    std::error_code ec;
    if (fs::exists(sentinel, ec)) {
      fs::remove(sentinel, ec);
      break;
    }
    auto reports = drain_once();
    // Exponential idle backoff: a scan that found work resets the wait
    // (more files often follow a burst), every empty scan doubles it up
    // to poll_ms. An idle daemon settles at one stat per poll_ms instead
    // of a fixed-rate scan loop, and a busy one re-scans immediately.
    wait_ms = reports.empty() ? next_idle_wait_ms(wait_ms, opts_.poll_ms) : 0;
    all.insert(all.end(), std::make_move_iterator(reports.begin()),
               std::make_move_iterator(reports.end()));
    if (stop_.load()) break;
    if (opts_.max_files != 0 && served_ >= opts_.max_files) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(wait_ms));
  }
  ready.set(0);
  logx::info("daemon_stopped", {{"served", served_}});
  return all;
}

}  // namespace distapx::service
