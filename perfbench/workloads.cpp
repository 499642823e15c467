/// \file workloads.cpp
/// \brief The four workloads (why each exists: perfbench/README.md).
///
///   fig2_inproc    the paper's Fig. 2 grid through run_campaign on the pool
///   bus_baselines  UD/ED/PROP on large graphs under bus and link contention
///   isolate_small  run_supervised_campaign over many few-sample cells
///   serve_mixed    an in-process daemon + one remote worker, closed loop
///
/// Every unit checks its own results: fingerprints of cold and warm passes
/// must agree, a seeded cell is replayed on the reference scheduler core or
/// in-process, and every serve reply is compared with the in-process stats
/// of its cell.  main.cpp additionally compares unit fingerprints with the
/// ones recorded in fingerprints.json for the development and held-out
/// seeds.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "campaign/campaign.hpp"
#include "campaign/pool.hpp"
#include "serve/client.hpp"
#include "serve/remote_worker.hpp"
#include "serve/server.hpp"
#include "supervise/supervisor.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using feast::CampaignResult;
using feast::CampaignSpec;
using feast::CellState;
using feast::CellStats;

CampaignSpec parse_spec(const std::string& text) {
  std::istringstream in(text);
  return CampaignSpec::parse(in);
}

std::vector<feast::Strategy> parse_strategies(const CampaignSpec& spec) {
  std::vector<feast::Strategy> out;
  for (const std::string& s : spec.strategies) out.push_back(feast::parse_strategy_spec(s));
  return out;
}

/// Every CellStats field at full precision, through the manifest
/// fingerprint renderer: equal text iff equal results.
std::string stats_text(const CellStats& stats) {
  feast::Manifest manifest;
  manifest.cells.emplace_back().stats = stats;
  return feast::manifest_fingerprint(manifest);
}

/// manifest_fingerprint of a finished run, through the manifest format.
std::string fingerprint_of(const CampaignSpec& spec, const CampaignResult& result) {
  std::ostringstream text;
  feast::write_manifest(text, spec, result);
  std::istringstream in(text.str());
  return feast::manifest_fingerprint(feast::read_manifest(in));
}

std::string hex_of(const std::string& text) {
  return feast::hash_hex(feast::fnv1a64(text));
}

/// Installs \p sink for the scope when it is set.
class MaybeSink {
 public:
  explicit MaybeSink(obs::Sink* sink) {
    if (sink != nullptr) scoped_.emplace(*sink);
  }

 private:
  std::optional<obs::ScopedSink> scoped_;
};

void note(UnitResult& u, std::string error) {
  ++u.failed;
  u.errors.push_back(std::move(error));
}

/// Accounts one pass of a campaign: every cell must end in \p want.
/// Returns the number of cells that did.
std::uint64_t account_pass(UnitResult& u, const CampaignResult& result, CellState want,
                           std::vector<double>& latencies, const char* pass) {
  std::uint64_t settled = 0;
  for (const feast::CellOutcome& cell : result.cells) {
    ++u.attempted;
    if (cell.state != want) {
      note(u, std::string(pass) + " cell " + cell.strategy_label + " procs=" +
                  std::to_string(cell.n_procs) + " ended " + feast::to_string(cell.state) +
                  (cell.error.empty() ? "" : ": " + cell.error));
      continue;
    }
    latencies.push_back(cell.wall_ms);
    ++settled;
  }
  return settled;
}

/// Seed of the set-up warm-up work, the same for every benchmark seed.
constexpr std::uint64_t kWarmUpSeed = 0xFEA57;

/// Runs \p spec cold (\p run appends the call's bench span and returns
/// its result), then once warm on the same cache.  The cold pass is the
/// workload: it alone feeds runs_per_s, cells_per_s and the latency
/// percentiles.  The warm re-run exists only so warm_p50_ms has samples
/// (cache-hit cells), and it must reproduce the cold run's manifest
/// fingerprint.  Returns the cold run.
template <typename Run>
CampaignResult cold_and_warm(UnitResult& u, const CampaignSpec& spec,
                             std::vector<BenchSpan>& spans, Run run) {
  const double cpu0 = cpu_ms_now();
  const CampaignResult cold = run();
  u.cpu_ms += cpu_ms_now() - cpu0;
  const BenchSpan cold_span = spans.back();
  u.compute_windows.emplace_back(cold_span.start, cold_span.end);
  u.cold_wall_ms += ms_between(cold_span.start, cold_span.end);
  u.wall_ms += ms_between(cold_span.start, cold_span.end);
  u.computed_runs += cold.computed * static_cast<std::uint64_t>(spec.batch.samples);
  u.cells += account_pass(u, cold, CellState::Computed, u.cold_ms, "cold");
  const CampaignResult warm = run();
  u.wall_ms += ms_between(spans.back().start, spans.back().end);
  account_pass(u, warm, CellState::Cached, u.warm_ms, "warm");
  if (fingerprint_of(spec, warm) != fingerprint_of(spec, cold)) {
    note(u, "warm re-run fingerprint differs from cold");
  }
  return cold;
}

// ------------------------------------------------------- in-process campaigns

/// fig2_inproc and bus_baselines: a unit is one cold run_campaign per spec
/// (fresh cache) followed by a warm re-run of the same spec on that cache.
class InProcessCampaigns final : public Workload {
 public:
  using SpecTexts = std::vector<std::string> (*)(std::uint64_t seed, bool smoke);

  InProcessCampaigns(const Options& options, SpecTexts texts)
      : options_(options), texts_(texts) {}

  unsigned pool_threads() const override { return threads_; }
  std::string window_span() const override { return "run_campaign"; }

  void setup() override {
    // Pool start-up plus a warm-up campaign of the workload's own shape (its
    // first strategy over every size), so thread creation, the per-thread
    // scheduler arenas and first-touch page faults are set-up, not
    // measurement, and steady compute outweighs the jitter of starting
    // threads.  The warm-up graphs do not depend on the seed: set-up does
    // the same work for every seed.
    threads_ = std::max(1u, std::thread::hardware_concurrency());
    feast::WorkStealingPool::global().resize(threads_);
    feast::set_parallelism(threads_);
    CampaignSpec warm =
        parse_spec(texts_(kWarmUpSeed, options_.smoke).front());
    warm.strategies.resize(1);
    feast::CampaignOptions co;
    co.threads = threads_;
    feast::run_campaign(warm, co);
  }

  void teardown() override { feast::WorkStealingPool::global().resize(1); }

  UnitResult run_unit(std::size_t index, obs::Sink* sink,
                      std::vector<BenchSpan>& spans) override {
    UnitResult u;
    const std::uint64_t unit_seed = derive_seed(options_.seed, index);
    const fs::path dir = fs::path(options_.work_dir) / ("unit" + std::to_string(index));
    std::string fingerprints;
    const std::vector<std::string> texts = texts_(unit_seed, options_.smoke);
    for (std::size_t i = 0; i < texts.size(); ++i) {
      const CampaignSpec spec = parse_spec(texts[i]);
      const fs::path cache_dir = dir / ("cache" + std::to_string(i));
      feast::CampaignOptions co;
      co.threads = threads_;

      const auto timed_run = [&] {
        MaybeSink scoped(sink);
        const auto t0 = Clock::now();
        feast::ResultCache cache(cache_dir);
        co.cache = &cache;
        CampaignResult result = feast::run_campaign(spec, co);
        spans.push_back({"run_campaign", t0, Clock::now()});
        return result;
      };
      const CampaignResult cold = cold_and_warm(u, spec, spans, timed_run);
      fingerprints += fingerprint_of(spec, cold);

      // Replay one seeded cell on the reference scheduler core: the
      // scheduler is the one layer here with a retained oracle.
      CampaignSpec reference = spec;
      reference.context.core = feast::SchedulerCore::Reference;
      const auto strategies = parse_strategies(spec);
      const std::size_t cell = derive_seed(unit_seed, 1000 + i) % cold.cells.size();
      const std::size_t si = cell / spec.sizes.size();
      const int n_procs = spec.sizes[cell % spec.sizes.size()];
      const CellStats ref =
          feast::execute_campaign_cell(reference, strategies[si], n_procs, nullptr).stats;
      if (stats_text(ref) != stats_text(cold.cells[cell].stats)) {
        note(u, "cell " + std::to_string(cell) + " differs from the reference core");
      }
    }
    u.fingerprint = hex_of(fingerprints);
    std::error_code ec;
    fs::remove_all(dir, ec);
    return u;
  }

 private:
  Options options_;
  SpecTexts texts_;
  unsigned threads_ = 1;
};

std::string seed_line(std::uint64_t seed) { return "seed = " + std::to_string(seed) + "\n"; }

/// The paper's Fig. 2 grid: PURE/NORM x CCNE/CCAA over N = 2..16, MDET,
/// 40-60-subtask graphs (the generator defaults).
std::vector<std::string> fig2_specs(std::uint64_t seed, bool smoke) {
  return {"name = fig2-inproc\nscenario = MDET\n" + seed_line(seed) +
          (smoke ? "samples = 2\nsizes = 2, 4\n"
                 : "samples = 32\nsizes = 2, 4, 6, 8, 10, 12, 14, 16\n") +
          "strategies = pure:ccne, pure:ccaa, norm:ccne, norm:ccaa\n"};
}

/// UD/ED/PROP on 80-120-subtask graphs with CCR 2, under the shared bus and
/// then point-to-point links.
std::vector<std::string> bus_specs(std::uint64_t seed, bool smoke) {
  std::vector<std::string> out;
  for (const char* contention : {"bus", "links"}) {
    out.push_back(std::string("name = bus-baselines-") + contention +
                  "\ncontention = " + contention + "\n" + seed_line(seed) +
                  "subtasks = 80:120\nccr = 2\nstrategies = ud, ed, prop\n" +
                  (smoke ? "samples = 2\nsizes = 8\n" : "samples = 32\nsizes = 8, 16, 32\n"));
  }
  return out;
}

// ---------------------------------------------------------- supervised path

/// isolate_small: a unit is one cold supervised campaign (empty cache, so
/// every cell is computed and stored) and a warm supervised re-run whose
/// workers all hit the cache.  Compute is small on purpose: spawn,
/// watchdog, harvest, shard parse and manifest checkpoint dominate.
class IsolateSmall final : public Workload {
 public:
  explicit IsolateSmall(const Options& options) : options_(options) {}

  int supervise_workers() const override { return kWorkers; }
  std::string window_span() const override { return "run_supervised_campaign"; }

  void setup() override {
    // One supervised campaign of the workload's cells at one sample each:
    // the first worker spawn pages the feastc binary in, which every later
    // spawn then finds warm.  The supervisor polls its workers every 10 ms,
    // so one cell's time is quantized; over many cells the phases average.
    const fs::path dir = fs::path(options_.work_dir) / "setup";
    CampaignSpec spec = parse_spec(spec_text(kWarmUpSeed));
    spec.batch.samples = 1;
    run(spec, dir, /*cache=*/false, nullptr);
    std::error_code ec;
    fs::remove_all(dir, ec);
  }

  void teardown() override {}

  UnitResult run_unit(std::size_t index, obs::Sink* sink,
                      std::vector<BenchSpan>& spans) override {
    UnitResult u;
    const std::uint64_t unit_seed = derive_seed(options_.seed, index);
    const fs::path dir = fs::path(options_.work_dir) / ("unit" + std::to_string(index));
    const CampaignSpec spec = parse_spec(spec_text(unit_seed));

    const std::string fp = fingerprint_of(
        spec, cold_and_warm(u, spec, spans, [&] { return run(spec, dir, true, sink, &spans); }));
    // Supervised results must be byte-identical to an in-process run of
    // the same spec; its cell times are the base of supervise.overhead.
    feast::CampaignOptions co;
    co.threads = std::max(1u, std::thread::hardware_concurrency());
    const CampaignResult inproc = feast::run_campaign(spec, co);
    for (const feast::CellOutcome& cell : inproc.cells) u.inproc_cell_ms.push_back(cell.wall_ms);
    if (fingerprint_of(spec, inproc) != fp) note(u, "supervised fingerprint differs from in-process");
    u.fingerprint = hex_of(fp);
    std::error_code ec;
    fs::remove_all(dir, ec);
    return u;
  }

 private:
  static constexpr int kWorkers = 2;

  std::string spec_text(std::uint64_t seed) const {
    // Small campaigns, so a run draws many graph batches: a unit's cells
    // all share its few graphs, and their cost varies with the graphs.
    // One kind of compute in every cell, so cell times have one mode: cheap
    // baseline cells would be timed mostly by the cache store's fsync.
    return "name = isolate-small\nscenario = MDET\n" + seed_line(seed) +
           "strategies = pure:ccne, norm:ccne\n" +
           (options_.smoke ? "samples = 2\nsizes = 2, 4\n"
                           : "samples = 4\nsizes = 2, 4, 6, 8, 10, 12, 14, 16\n");
  }

  CampaignResult run(const CampaignSpec& spec, const fs::path& dir, bool cache,
                     obs::Sink* sink, std::vector<BenchSpan>* spans = nullptr) {
    fs::create_directories(dir);
    const fs::path spec_path = dir / "spec.txt";
    if (!fs::exists(spec_path)) std::ofstream(spec_path) << spec.canonical_text();
    feast::supervise::SupervisorOptions sup;
    sup.workers = kWorkers;
    sup.cell_timeout_s = 60.0;
    sup.feastc_path = FEAST_FEASTC_PATH;
    sup.spec_path = spec_path.string();
    sup.cache_dir = (dir / "cache").string();
    sup.no_cache = !cache;
    sup.work_dir = (dir / "work").string();
    sup.backoff.seed = spec.batch.seed;
    feast::CampaignOptions co;
    co.manifest_path = (dir / "manifest.json").string();
    MaybeSink scoped(sink);
    const auto t0 = Clock::now();
    CampaignResult result = feast::supervise::run_supervised_campaign(spec, co, sup);
    if (spans != nullptr) spans->push_back({"run_supervised_campaign", t0, Clock::now()});
    return result;
  }

  Options options_;
};

// ------------------------------------------------------------------- serve

/// Parses one "name": [count, mean, stddev, min, max, ci95] reply field.
bool read_summary(const feast::JsonValue& root, const char* name, feast::StatSummary& out) {
  const feast::JsonValue* v = root.find(name);
  if (v == nullptr || v->type != feast::JsonValue::Type::Array || v->array.size() != 6) {
    return false;
  }
  double f[6];
  for (std::size_t i = 0; i < 6; ++i) {
    const feast::JsonValue& e = v->array[i];
    if (e.type == feast::JsonValue::Type::Number) f[i] = e.number;
    else if (e.type == feast::JsonValue::Type::String) f[i] = std::strtod(e.string.c_str(), nullptr);
    else return false;
  }
  out.count = static_cast<std::size_t>(f[0]);
  out.mean = f[1];
  out.stddev = f[2];
  out.min = f[3];
  out.max = f[4];
  out.ci95_half_width = f[5];
  return true;
}

/// serve_mixed: one daemon (1 local WorkerPool worker) plus one remote
/// peer over loopback, driven by a closed loop of two client connections.
/// A unit is one round of /v1/cell requests over a fresh spec: fresh cells
/// (computed by a worker and stored), cells pre-warmed into the daemon's
/// disk cache before the round (cache reads), and repeats of cells already
/// requested in the round (memo or in-flight dedup hits).
class ServeMixed final : public Workload {
 public:
  explicit ServeMixed(const Options& options) : options_(options) {}
  ~ServeMixed() override { stop(); }

  int supervise_workers() const override { return 1; }
  std::string window_span() const override { return "round"; }
  bool warm_in_traffic() const override { return true; }
  std::vector<BenchSpan> setup_spans() const override { return setup_spans_; }

  void setup() override {
    base_ = fs::path(options_.work_dir) / ("serve" + std::to_string(setups_++));
    feast::serve::ServeOptions so;
    so.work_dir = (base_ / "daemon").string();
    so.cache_dir = (base_ / "cache").string();
    so.feastc_path = FEAST_FEASTC_PATH;
    so.workers = 1;
    so.max_queue = 1024;
    so.max_connections = 64;
    so.cell_timeout_s = 60.0;
    server_ = std::make_unique<feast::serve::Server>(so);
    auto t0 = Clock::now();
    server_->start();
    setup_spans_.push_back({"server_start", t0, Clock::now()});
    reactor_ = std::thread([this] { server_->run(); });

    worker_stop_.store(false);
    feast::serve::RemoteWorkerOptions wo;
    wo.port = server_->port();
    wo.name = "bench-remote";
    wo.work_dir = (base_ / "remote").string();
    wo.cache_dir = (base_ / "remote-cache").string();
    wo.feastc_path = FEAST_FEASTC_PATH;
    wo.poll_ms = 5;
    wo.backoff.seed = options_.seed;
    t0 = Clock::now();
    worker_ = std::thread([this, wo] {
      feast::serve::run_remote_worker(wo, &worker_stop_, nullptr);
    });
    while (server_->stats().remote_workers < 1) {
      if (ms_between(t0, Clock::now()) > 30e3) throw std::runtime_error("remote worker did not register");
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    setup_spans_.push_back({"worker_register", t0, Clock::now()});

    // Cache pre-warm: one warm-up cell, on graphs that do not depend on the
    // seed, computed in-process into the daemon's disk cache and then read
    // back through it.  Its compute outweighs the jitter of starting
    // threads, and a cache read waits on no worker, so set-up does not
    // depend on the phase of the reactor's or the remote worker's polling.
    // Each round's own pre-warm happens before that round, untimed, so
    // set-up does the same work for every seed.
    const std::string warm_up =
        "name = serve-warm-up\nscenario = MDET\nstrategies = pure:ccne\nsizes = 4\nsamples = 32\n" +
        seed_line(kWarmUpSeed);
    const CampaignSpec warm = parse_spec(warm_up);
    {
      feast::ResultCache cache(base_ / "cache");
      feast::execute_campaign_cell(warm, parse_strategies(warm).front(), warm.sizes.front(),
                                   &cache);
    }
    const feast::serve::HttpReply reply = feast::serve::http_request(
        "127.0.0.1", server_->port(), "POST", "/v1/cell",
        "{\"spec\": \"" + feast::json_escape(warm_up) + "\", \"cell\": 0}", "", 120.0);
    if (!reply.ok() || reply.status != 200 ||
        reply.body.find("\"cached\"") == std::string::npos) {
      throw std::runtime_error("serve warm-up request failed: " + reply.error + reply.body);
    }
    round_ = Round{};
  }

  void teardown() override {
    stop();
    std::error_code ec;
    fs::remove_all(base_, ec);
  }

  UnitResult run_unit(std::size_t index, obs::Sink* sink,
                      std::vector<BenchSpan>& spans) override {
    if (round_.index != index) prepare(index);
    UnitResult u;
    const std::vector<std::size_t> stream = request_stream(index);

    struct Reply {
      Clock::time_point start, end;
      feast::serve::HttpReply http;
    };
    std::vector<Reply> replies(stream.size());
    std::vector<std::string> bodies;
    for (const std::size_t cell : stream) {
      bodies.push_back("{\"spec\": \"" + feast::json_escape(round_.text) +
                       "\", \"cell\": " + std::to_string(cell) + "}");
    }
    const feast::serve::ServeStatsSnapshot before = server_->stats();
    const double cpu0 = cpu_ms_now();
    Clock::time_point t0;
    {
      MaybeSink scoped(sink);
      const std::uint16_t port = server_->port();
      // The closed loop over requests [from, to): each client sends the
      // next request only after its previous reply.
      const auto run_phase = [&](std::size_t from, std::size_t to) {
        std::atomic<std::size_t> next{from};
        const auto client = [&](int id) {
          const std::string name = "bench-client-" + std::to_string(id);
          for (std::size_t i; (i = next.fetch_add(1)) < to;) {
            replies[i].start = Clock::now();
            replies[i].http = feast::serve::http_request("127.0.0.1", port, "POST",
                                                         "/v1/cell", bodies[i], name, 120.0);
            replies[i].end = Clock::now();
          }
        };
        std::vector<std::thread> clients;
        for (int c = 0; c < kClients; ++c) clients.emplace_back(client, c);
        for (std::thread& t : clients) t.join();
      };
      const std::size_t settled = stream.size() - round_.plan.size();
      t0 = Clock::now();
      run_phase(0, settled);
      run_phase(settled, stream.size());
    }
    const auto t1 = Clock::now();
    const double cpu1 = cpu_ms_now();
    const feast::serve::ServeStatsSnapshot after = server_->stats();
    spans.push_back({"round", t0, t1});
    u.compute_windows.emplace_back(t0, t1);
    for (const Reply& r : replies) spans.push_back({"http_request", r.start, r.end});
    u.wall_ms = u.cold_wall_ms = ms_between(t0, t1);
    u.cpu_ms = cpu1 - cpu0;
    u.serve_dedup = after.dedup_hits - before.dedup_hits;
    u.serve_cache_hits = after.cache_hits - before.cache_hits;
    u.serve_dispatched = after.dispatched - before.dispatched;
    u.serve_shed = after.shed - before.shed;
    u.serve_requeued = after.requeued - before.requeued;
    u.serve_workers_lost = after.workers_lost - before.workers_lost;

    // Verification: every reply against the in-process stats of its cell.
    std::vector<bool> seen(round_.plan.size(), false);
    std::vector<std::optional<CellStats>> answered(round_.plan.size());
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const std::size_t cell = stream[i];
      const Reply& r = replies[i];
      const bool first = !seen[cell];
      seen[cell] = true;
      ++u.attempted;
      const double ms = ms_between(r.start, r.end);
      const bool cold = first && !round_.prewarmed[cell];
      (cold ? u.cold_ms : u.warm_ms).push_back(ms);
      if (!r.http.ok() || r.http.status != 200) {
        note(u, "cell " + std::to_string(cell) + ": status " + std::to_string(r.http.status) +
                    " " + r.http.error + r.http.body);
        continue;
      }
      ++u.cells;
      CellStats got;
      std::string state;
      try {
        const feast::JsonValue root = feast::parse_json(r.http.body);
        if (const feast::JsonValue* s = root.find("state")) state = s->string;
        const feast::JsonValue* inf = root.find("infeasible_runs");
        if (!read_summary(root, "max_lateness", got.max_lateness) ||
            !read_summary(root, "end_to_end", got.end_to_end) ||
            !read_summary(root, "makespan", got.makespan) ||
            !read_summary(root, "min_laxity", got.min_laxity) || inf == nullptr) {
          throw std::runtime_error("missing stats");
        }
        got.infeasible_runs = static_cast<std::size_t>(inf->number);
      } catch (const std::exception& e) {
        note(u, "cell " + std::to_string(cell) + ": bad reply: " + e.what());
        continue;
      }
      if (first && state != (round_.prewarmed[cell] ? "cached" : "computed")) {
        note(u, "cell " + std::to_string(cell) + ": first reply state '" + state + "'");
      }
      if (!answered[cell]) answered[cell] = got;
      if (stats_text(got) != stats_text(expected(cell, u))) {
        note(u, "cell " + std::to_string(cell) + ": reply stats differ from in-process");
      }
    }
    std::size_t fresh = 0;
    for (std::size_t c = 0; c < round_.plan.size(); ++c) fresh += round_.prewarmed[c] ? 0 : 1;
    u.computed_runs = fresh * static_cast<std::uint64_t>(round_.spec.batch.samples);

    // The round's fingerprint: its replies rendered as a manifest.
    feast::Manifest manifest;
    manifest.spec_hash_hex = hex_of(round_.spec.canonical_text());
    manifest.samples = round_.spec.batch.samples;
    for (std::size_t c = 0; c < round_.plan.size(); ++c) {
      feast::CellOutcome outcome;
      outcome.strategy_label = round_.strategies[round_.plan[c].strategy_index].label;
      outcome.n_procs = round_.plan[c].n_procs;
      if (answered[c]) outcome.stats = *answered[c];
      manifest.cells.push_back(std::move(outcome));
    }
    u.fingerprint = hex_of(feast::manifest_fingerprint(manifest));
    return u;
  }

 private:
  static constexpr int kClients = 2;

  struct Round {
    std::size_t index = ~std::size_t{0};
    std::string text;
    CampaignSpec spec;
    std::vector<feast::Strategy> strategies;
    std::vector<feast::PlannedCell> plan;
    std::vector<bool> prewarmed;
    std::vector<std::optional<CellStats>> stats;  ///< In-process results.
  };

  void stop() {
    if (worker_.joinable()) {
      worker_stop_.store(true);
      worker_.join();
    }
    if (reactor_.joinable()) {
      server_->request_stop();
      reactor_.join();
    }
    server_.reset();
  }

  /// Builds round \p index and pre-warms its seeded subset of cells into
  /// the daemon's disk cache, in-process.
  void prepare(std::size_t index) {
    Round round;
    round.index = index;
    round.text = "name = serve-mixed\nscenario = MDET\nstrategies = pure:ccne, norm:ccaa, ud\n" +
                 seed_line(derive_seed(options_.seed, index)) +
                 (options_.smoke ? "samples = 1\nsizes = 2, 4\n" : "samples = 4\nsizes = 2, 4, 8, 16\n");
    round.spec = parse_spec(round.text);
    round.strategies = parse_strategies(round.spec);
    round.plan = feast::plan_cells(round.spec, round.strategies);
    round.prewarmed.assign(round.plan.size(), false);
    round.stats.assign(round.plan.size(), std::nullopt);
    // Half of each strategy's sizes, so every round pre-warms (and leaves
    // fresh) the same mix of cheap and expensive strategies.
    feast::ResultCache cache(base_ / "cache");
    const std::size_t sizes = round.spec.sizes.size();
    for (std::size_t si = 0; si < round.strategies.size(); ++si) {
      const std::vector<std::size_t> order =
          shuffled(sizes, derive_seed(round.spec.batch.seed, 1 + si));
      for (std::size_t k = 0; k < sizes / 2; ++k) {
        const feast::PlannedCell& p = round.plan[si * sizes + order[k]];
        round.prewarmed[p.index] = true;
        round.stats[p.index] = feast::execute_campaign_cell(
            round.spec, round.strategies[si], p.n_procs, &cache).stats;
      }
    }
    round_ = std::move(round);
  }

  /// In-process stats of \p cell, computed on first use; the time of that
  /// computation is the in-process base of supervise.overhead.
  const CellStats& expected(std::size_t cell, UnitResult& u) {
    if (!round_.stats[cell]) {
      const feast::PlannedCell& p = round_.plan[cell];
      const auto t0 = Clock::now();
      round_.stats[cell] = feast::execute_campaign_cell(
          round_.spec, round_.strategies[p.strategy_index], p.n_procs, nullptr).stats;
      u.inproc_cell_ms.push_back(ms_between(t0, Clock::now()));
    }
    return *round_.stats[cell];
  }

  static std::vector<std::size_t> shuffled(std::size_t n, std::uint64_t seed) {
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    for (std::size_t i = n; i > 1; --i) {
      std::swap(order[i - 1], order[derive_seed(seed, i) % i]);
    }
    return order;
  }

  /// Every cell of the round once, in seeded order, with as many repeats
  /// inserted after the cell's first request (memo hits, or dedup waits
  /// while the first is in flight); then, once all of those are answered,
  /// as many repeats again (memo hits).  Half the cells are pre-warmed, so
  /// a sixth of the requests compute.  The mix is chosen, not observed: no
  /// recorded request log exists, and bench/perf_serve's stream (252 of 256
  /// requests memo hits) is the memo-dominated mix this workload replaces.
  std::vector<std::size_t> request_stream(std::size_t index) const {
    const std::uint64_t seed = derive_seed(round_.spec.batch.seed, 2 + index);
    const std::size_t cells = round_.plan.size();
    std::vector<std::size_t> stream = shuffled(cells, seed);
    for (std::size_t k = 0; k < cells; ++k) {
      const std::size_t at = 1 + derive_seed(seed, 100 + k) % stream.size();
      const std::size_t of = stream[derive_seed(seed, 200 + k) % at];
      stream.insert(stream.begin() + static_cast<std::ptrdiff_t>(at), of);
    }
    for (std::size_t k = 0; k < cells; ++k) stream.push_back(derive_seed(seed, 300 + k) % cells);
    return stream;
  }

  Options options_;
  std::size_t setups_ = 0;
  fs::path base_;
  std::unique_ptr<feast::serve::Server> server_;
  std::thread reactor_;
  std::atomic<bool> worker_stop_{false};
  std::thread worker_;
  std::vector<BenchSpan> setup_spans_;
  Round round_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const Options& options) {
  if (options.workload == "fig2_inproc") {
    return std::make_unique<InProcessCampaigns>(options, fig2_specs);
  }
  if (options.workload == "bus_baselines") {
    return std::make_unique<InProcessCampaigns>(options, bus_specs);
  }
  if (options.workload == "isolate_small") return std::make_unique<IsolateSmall>(options);
  if (options.workload == "serve_mixed") return std::make_unique<ServeMixed>(options);
  throw std::invalid_argument("unknown workload " + options.workload);
}

}  // namespace perfbench
