// The app table behind run_app.
//
// Each entry builds its app at test scale, executes the declared pipeline
// and returns the output digest the equality gate compares (byte stream
// for bzip2/dedup, checksum for ferret). Inputs are test-scale: the
// conformance matrix and the sanitizer CI run every app on every backend.
#include "apps/registry.hpp"

#include <map>
#include <mutex>
#include <stdexcept>
#include <string>

#include "apps/bzip2/bzip2.hpp"
#include "apps/dedup/dedup.hpp"
#include "apps/ferret/ferret.hpp"
#include "sched/watchdog.hpp"
#include "util/datagen.hpp"

namespace hq::apps {

namespace {

pipe::exec_options options(const app_params& p) {
  pipe::exec_options opt;
  opt.workers = p.workers;
  opt.seed = p.seed;
  return opt;
}

std::string run_bzip2(const app_params& p, pipe::backend b,
                      pipe::exec_result* ex) {
  bzip2::config cfg;
  cfg.input_bytes = 256u << 10;
  cfg.block_bytes = 8u << 10;
  cfg.threads = p.workers;
  cfg.seed ^= p.seed;
  const auto input = util::gen_text(cfg.input_bytes, cfg.seed);
  bzip2::result r;
  pipe::graph g;
  bzip2::describe_pipeline(cfg, input, &r, g);
  *ex = pipe::execute(g, b, options(p));
  return {r.output.begin(), r.output.end()};
}

std::string run_dedup(const app_params& p, pipe::backend b,
                      pipe::exec_result* ex) {
  dedup::config cfg;
  cfg.input_bytes = 1u << 20;
  cfg.coarse_bytes = 64u << 10;
  cfg.fine_avg_log2 = 11;
  cfg.fine_min = 256;
  cfg.fine_max = 8u << 10;
  cfg.threads = p.workers;
  cfg.seed ^= p.seed;
  const auto input =
      util::gen_archive(cfg.input_bytes, cfg.dup_fraction, cfg.seed);
  dedup::dedup_table table;
  dedup::result r;
  pipe::graph g;
  dedup::describe_pipeline(cfg, input, &table, &r, g);
  *ex = pipe::execute(g, b, options(p));
  return {r.output.begin(), r.output.end()};
}

std::string run_ferret(const app_params& p, pipe::backend b,
                       pipe::exec_result* ex) {
  ferret::config cfg;
  cfg.num_images = 96;
  cfg.image_wh = 16;
  cfg.db_entries = 256;
  cfg.dims = 32;
  cfg.topk = 8;
  cfg.threads = p.workers;
  cfg.seed ^= p.seed;
  const ferret::feature_db db = ferret::build_db(cfg);
  std::uint64_t checksum = 0;
  pipe::graph g;
  ferret::describe_pipeline(cfg, db, &checksum, g);
  *ex = pipe::execute(g, b, options(p));
  return std::to_string(checksum);
}

/// Builds the app from `p`, executes it on `b` into `*ex` and returns its
/// output digest; a failing run throws out of pipe::execute.
struct app_entry {
  const char* name;
  std::string (*run)(const app_params& p, pipe::backend b,
                     pipe::exec_result* ex);
};

constexpr app_entry kApps[] = {
    {"bzip2", run_bzip2},
    {"dedup", run_dedup},
    {"ferret", run_ferret},
};

}  // namespace

app_run run_app(const std::string& name, pipe::backend b, const app_params& p) {
  const app_entry* app = nullptr;
  for (const app_entry& e : kApps)
    if (name == e.name) app = &e;
  if (app == nullptr)
    throw std::out_of_range("apps::run_app: unknown app '" + name + "'");

  app_run out;
  // Serial-elision reference digest, memoized per (app, seed).
  {
    static std::mutex mu;
    static std::map<std::string, std::string> references;
    const std::string key = name + "|" + std::to_string(p.seed);
    std::unique_lock<std::mutex> lk(mu);
    auto it = references.find(key);
    if (it == references.end()) {
      lk.unlock();
      app_params ref_p = p;
      ref_p.workers = 1;
      pipe::exec_result ref_ex;
      std::string digest = app->run(ref_p, pipe::backend::serial, &ref_ex);
      lk.lock();
      it = references.emplace(key, std::move(digest)).first;
    }
    out.reference = it->second;
  }

  // A failing run is a reportable result, not a crash of the harness: map
  // the backend's rethrown exception onto exec.outcome/error. The digest is
  // left empty (partial output must not masquerade as a result), so ok
  // stays false. graph_error still propagates — a miswired pipeline is a
  // caller bug, not a run outcome.
  try {
    out.digest = app->run(p, b, &out.exec);
    out.ok = out.digest == out.reference;
  } catch (const pipe::graph_error&) {
    throw;
  } catch (const stall_error& e) {
    out.exec.outcome = pipe::run_outcome::stalled;
    out.exec.error = e.what();
  } catch (const std::exception& e) {
    out.exec.outcome = pipe::run_outcome::failed;
    out.exec.error = e.what();
  }
  return out;
}

}  // namespace hq::apps
