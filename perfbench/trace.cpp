/// \file trace.cpp
/// \brief The per-layer split of a traced run.
///
/// Reads the obs::Sink aggregates and its captured events (through the
/// Chrome trace exporter), lines them up with the benchmark's own spans
/// around the public calls, and reports each layer's work, busy time and
/// waste per traced unit.  Self time of a bench span is its duration minus
/// the part of it that its child spans cover (the union over every thread).
#include <algorithm>
#include <map>
#include <sstream>

#include "bench.hpp"
#include "util/json.hpp"

namespace perfbench {
namespace {

using obs::Counter;
using obs::Span;

/// One captured span instance, in ms since the sink's epoch.
struct Event {
  double start = 0.0;
  double end = 0.0;
  double dur() const { return end - start; }
};

std::map<Span, std::map<int, std::vector<Event>>> read_events(const obs::Sink& sink) {
  std::map<std::string, Span> by_name;
  for (std::size_t i = 0; i < obs::kSpanCount; ++i) {
    by_name[obs::to_string(static_cast<Span>(i))] = static_cast<Span>(i);
  }
  std::ostringstream json;
  sink.write_chrome_trace(json);
  std::map<Span, std::map<int, std::vector<Event>>> events;
  const feast::JsonValue root = feast::parse_json(json.str());
  for (const feast::JsonValue& e : root.find("traceEvents")->array) {
    const feast::JsonValue* ph = e.find("ph");
    if (ph == nullptr || ph->string != "X") continue;
    const auto it = by_name.find(e.find("name")->string);
    if (it == by_name.end()) continue;
    const double ts = e.find("ts")->number / 1e3;
    events[it->second][static_cast<int>(e.find("tid")->number)].push_back(
        {ts, ts + e.find("dur")->number / 1e3});
  }
  return events;
}

/// Length of the union of \p intervals clipped to [from, to].
double covered(std::vector<Event> intervals, double from, double to) {
  std::sort(intervals.begin(), intervals.end(),
            [](const Event& a, const Event& b) { return a.start < b.start; });
  double total = 0.0;
  double reach = from;
  for (const Event& e : intervals) {
    const double s = std::max(e.start, reach);
    const double t = std::min(e.end, to);
    if (t > s) {
      total += t - s;
      reach = t;
    }
  }
  return total;
}

}  // namespace

std::vector<Metric> layer_metrics(const TraceInput& in) {
  const obs::Report report = in.sink->report();
  const auto events = read_events(*in.sink);
  const double units = static_cast<double>(std::max<std::size_t>(1, in.traced.size()));
  const auto since_epoch = [&](Clock::time_point t) { return ms_between(in.sink_epoch, t); };

  const auto total_ms = [&](Span s) { return report.total_ms({s}); };
  const auto per_unit = [&](Counter c) { return double(report.counter_value(c)) / units; };
  const auto all_of = [&](Span s) {
    std::vector<Event> out;
    if (const auto it = events.find(s); it != events.end()) {
      for (const auto& [tid, list] : it->second) out.insert(out.end(), list.begin(), list.end());
    }
    return out;
  };
  const auto durations = [&](const std::vector<Event>& list, double scale) {
    std::vector<double> out;
    for (const Event& e : list) out.push_back(e.dur() * scale);
    return out;
  };
  const auto p50_ms = [&](Span s) { return percentile(durations(all_of(s), 1.0), 0.5); };
  const auto p50_us = [&](Span s) { return percentile(durations(all_of(s), 1e3), 0.5); };

  // The window spans bound the layer work of each unit.
  double window_ms = 0.0;
  std::vector<Event> windows;
  for (const BenchSpan& b : in.spans) {
    if (b.name != in.window_span) continue;
    windows.push_back({since_epoch(b.start), since_epoch(b.end)});
    window_ms += ms_between(b.start, b.end);
  }
  /// Mean self time per unit of the window spans named \p name, whose
  /// children are the \p child events of every thread.
  const auto self_ms = [&](const std::string& name, Span child) {
    const std::vector<Event> children = all_of(child);
    double total = 0.0;
    for (const BenchSpan& b : in.spans) {
      if (b.name != name) continue;
      const double from = since_epoch(b.start);
      const double to = since_epoch(b.end);
      total += (to - from) - covered(children, from, to);
    }
    return total / units;
  };

  // campaign: pool-task time over threads x wall, each thread's tasks
  // merged first (a task can run nested parallel_for work inline).
  double pool_busy = 0.0;
  if (const auto it = events.find(Span::PoolTask); it != events.end()) {
    for (const auto& [tid, list] : it->second) {
      for (const Event& w : windows) pool_busy += covered(list, w.start, w.end);
    }
  }

  // supervise: attempts inside compute windows are cells a worker computed;
  // their median minus the in-process median of the same cells is the
  // per-cell cost of running out of process.
  const std::vector<Event> attempts = all_of(Span::SuperviseAttempt);
  std::vector<double> compute_attempts;
  std::vector<double> inproc;
  for (const UnitResult& u : in.traced) {
    inproc.insert(inproc.end(), u.inproc_cell_ms.begin(), u.inproc_cell_ms.end());
    for (const auto& [from, to] : u.compute_windows) {
      for (const Event& a : attempts) {
        if (a.start >= since_epoch(from) && a.end <= since_epoch(to)) {
          compute_attempts.push_back(a.dur());
        }
      }
    }
  }
  double attempt_total = 0.0;
  for (const Event& a : attempts) attempt_total += a.dur();
  const double overhead = compute_attempts.empty() || inproc.empty()
                              ? 0.0
                              : percentile(compute_attempts, 0.5) - percentile(inproc, 0.5);

  // serve: the dispatches that went to a worker are the longest ones; their
  // median minus the median worker time is the wait before a worker took
  // the cell.
  std::vector<double> worker_ms = durations(attempts, 1.0);
  for (const double d : durations(all_of(Span::ServeLease), 1.0)) worker_ms.push_back(d);
  std::vector<double> dispatch_ms = durations(all_of(Span::ServeDispatch), 1.0);
  std::sort(dispatch_ms.rbegin(), dispatch_ms.rend());
  dispatch_ms.resize(std::min(dispatch_ms.size(), worker_ms.size()));
  const double queue_wait = dispatch_ms.empty() ? 0.0
                                                : std::max(0.0, percentile(dispatch_ms, 0.5) -
                                                                    percentile(worker_ms, 0.5));

  double dedup = 0.0, cache_hits = 0.0, dispatched = 0.0, shed = 0.0,
         requeued = 0.0, lost = 0.0, cold_ops = 0.0, ops = 0.0;
  for (const UnitResult& u : in.traced) {
    dedup += double(u.serve_dedup);
    cache_hits += double(u.serve_cache_hits);
    dispatched += double(u.serve_dispatched);
    shed += double(u.serve_shed);
    requeued += double(u.serve_requeued);
    lost += double(u.serve_workers_lost);
    cold_ops += double(u.cold_ms.size());
    ops += double(u.cold_ms.size() + u.warm_ms.size());
  }
  // Median over the repeated set-ups, as setup_s is.
  const auto setup_ms = [&](const std::string& name) {
    std::vector<double> ms;
    for (const BenchSpan& b : in.setup_spans) {
      if (b.name == name) ms.push_back(ms_between(b.start, b.end));
    }
    return percentile(ms, 0.5);
  };

  // Tracing overhead: wall per unit of work, traced over untraced.
  const auto wall_per_op = [](const std::vector<UnitResult>& list) {
    double wall = 0.0, work = 0.0;
    for (const UnitResult& u : list) {
      wall += u.wall_ms;
      work += double(u.cold_ms.size() + u.warm_ms.size());
    }
    return work > 0.0 ? wall / work : 0.0;
  };
  const double untraced_cost = wall_per_op(in.untraced);
  const double traced_cost = wall_per_op(in.traced);

  const double phase_ms = report.total_ms(
      {Span::Generate, Span::Distribute, Span::Validate, Span::Schedule, Span::Stats});
  const double hits = double(report.counter_value(Counter::CacheHit));
  const double misses = double(report.counter_value(Counter::CacheMiss));

  return {
      {"taskgraph.generate_ms", total_ms(Span::Generate) / units, "ms"},
      {"taskgraph.generate_calls", double(all_of(Span::Generate).size()) / units, "count"},
      {"core.distribute_ms", total_ms(Span::Distribute) / units, "ms"},
      {"core.distribute_calls", double(all_of(Span::Distribute).size()) / units, "count"},
      {"core.distribute_p50_us", p50_us(Span::Distribute), "us"},
      {"core.distribute_p95_us", percentile(durations(all_of(Span::Distribute), 1e3), 0.95), "us"},
      {"core.distribute_share", phase_ms > 0.0 ? total_ms(Span::Distribute) / phase_ms : 0.0,
       "ratio"},
      {"core.validate_ms", total_ms(Span::Validate) / units, "ms"},
      {"sched.schedule_ms", total_ms(Span::Schedule) / units, "ms"},
      {"sched.prepare_ms", total_ms(Span::SchedPrepare) / units, "ms"},
      {"sched.place_ms", total_ms(Span::SchedPlace) / units, "ms"},
      {"sched.gap_probe", per_unit(Counter::BusGapProbe), "count"},
      {"sched.ready_push", per_unit(Counter::ReadyPush), "count"},
      {"experiment.stats_ms", total_ms(Span::Stats) / units, "ms"},
      {"experiment.cell_ms_p50", p50_ms(Span::CellRun), "ms"},
      {"campaign.pool_busy_frac",
       in.pool_threads > 0 && window_ms > 0.0 ? pool_busy / (in.pool_threads * window_ms) : 0.0,
       "ratio"},
      {"campaign.pool_steal", per_unit(Counter::PoolSteal), "count"},
      {"campaign.pool_sleep", per_unit(Counter::PoolSleep), "count"},
      {"campaign.run_self_ms", self_ms("run_campaign", Span::PoolTask), "ms"},
      {"campaign.cache_lookup_us_p50", p50_us(Span::CacheLookup), "us"},
      {"campaign.cache_store_us_p50", p50_us(Span::CacheStore), "us"},
      {"campaign.cache_hit_ratio", hits + misses > 0.0 ? hits / (hits + misses) : 0.0, "ratio"},
      {"supervise.spawns", per_unit(Counter::SuperviseSpawn), "count"},
      {"supervise.attempt_ms_p50", p50_ms(Span::SuperviseAttempt), "ms"},
      {"supervise.retries", per_unit(Counter::SuperviseRetry), "count"},
      {"supervise.busy_frac",
       in.supervise_workers > 0 && window_ms > 0.0
           ? attempt_total / (in.supervise_workers * window_ms)
           : 0.0,
       "ratio"},
      {"supervise.overhead_ms_p50", overhead, "ms"},
      {"supervise.run_self_ms", self_ms("run_supervised_campaign", Span::SuperviseAttempt), "ms"},
      {"serve.request_ms_p50", p50_ms(Span::ServeRequest), "ms"},
      {"serve.dispatch_ms_p50", p50_ms(Span::ServeDispatch), "ms"},
      {"serve.queue_wait_ms_p50", queue_wait, "ms"},
      {"serve.lease_ms_p50", p50_ms(Span::ServeLease), "ms"},
      {"serve.dedup_ratio", ops > 0.0 ? dedup / ops : 0.0, "ratio"},
      {"serve.cache_hits", cache_hits / units, "count"},
      {"serve.dispatched", dispatched / units, "count"},
      {"serve.shed", shed / units, "count"},
      {"serve.requeued", requeued / units, "count"},
      {"serve.workers_lost", lost / units, "count"},
      {"serve.start_ms", setup_ms("server_start"), "ms"},
      {"serve.register_ms", setup_ms("worker_register"), "ms"},
      {"bench.cold_share", ops > 0.0 ? cold_ops / ops : 0.0, "ratio"},
      {"obs.trace_overhead_pct",
       untraced_cost > 0.0 ? (traced_cost / untraced_cost - 1.0) * 100.0 : 0.0, "%"},
  };
}

}  // namespace perfbench
