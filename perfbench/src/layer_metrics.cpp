#include "layer_metrics.hpp"

namespace perfbench {

using alphawan::RxDisposition;

namespace {

double span_ms(const Tracer& tracer, std::string_view name,
               std::uint64_t op) {
  const auto totals = tracer.total_by_op(name);
  const auto it = totals.find(op);
  return it == totals.end() ? 0.0 : it->second;
}

double median_or_zero(const std::vector<double>& samples) {
  return samples.empty() ? 0.0 : median(samples);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void LayerSamples::op_ms(bool traced, double ms) {
  (traced ? traced_ms_ : untraced_ms_).push_back(ms);
}

void LayerSamples::window(const Tracer& tracer, std::uint64_t op, bool traced,
                          const ReplayResult& replay, bool fixed) {
  receive_ms_.push_back(replay.receive_ms);
  ingest_ms_.push_back(replay.ingest_ms);
  if (replay.counts.events > 0) {
    ns_per_event_.push_back(replay.receive_ms * 1e6 /
                            static_cast<double>(replay.counts.events));
  }
  if (traced) {
    const double window = span_ms(tracer, "sim.run_window", op);
    window_ms_.push_back(window);
    self_ms_.push_back(window - replay.receive_ms - replay.ingest_ms);
    record_ms_.push_back(span_ms(tracer, "sim.record", op));
    radio_share_.push_back(ratio(replay.receive_ms, window));
  }
  if (fixed) fixed_counts_.add(replay.counts);
}

void LayerSamples::shard_stats(const alphawan::ShardWindowStats& stats,
                               std::size_t link_rows) {
  shard_stats_ = stats;
  link_rows_ = link_rows;
}

void LayerSamples::round(const Tracer& tracer, std::uint64_t op, bool traced,
                         const RoundFigures& figures) {
  figures_ = figures;
  const double build = span_ms(tracer, "core.build_instance", op);
  const double solve = span_ms(tracer, "core.solve_cp", op);
  build_ms_.push_back(build);
  solve_ms_.push_back(solve);
  evals_per_s_.push_back(
      ratio(static_cast<double>(figures.ga_evaluations), solve / 1e3));
  if (traced) {
    parse_ms_.push_back(span_ms(tracer, "core.parse_logs", op));
    estimate_ms_.push_back(span_ms(tracer, "core.estimate", op));
    upgrade_ms_.push_back(span_ms(tracer, "core.upgrade", op));
    solve_share_.push_back(ratio(solve, span_ms(tracer, "core.round", op)));
  }
}

void LayerSamples::emit(Report& report, const Summary& ops) const {
  const RadioCounts& c = fixed_counts_;
  const auto n = [&](RxDisposition d) {
    return static_cast<double>(c.count(d));
  };
  double consumed = 0.0;
  for (const auto& [d, count] : c.outcomes) {
    if (alphawan::consumed_decoder(d)) consumed += static_cast<double>(count);
  }
  report.metric("radio.receive_ms", median_or_zero(receive_ms_), "ms");
  report.metric("radio.ns_per_event", median_or_zero(ns_per_event_), "ns");
  report.metric("radio.events", static_cast<double>(c.events), "count");
  report.metric("radio.delivered", n(RxDisposition::kDelivered), "count");
  report.metric("radio.decoded_foreign", n(RxDisposition::kDecodedForeign),
                "count");
  report.metric("radio.decoder_busy", n(RxDisposition::kDroppedDecoderBusy),
                "count");
  report.metric("radio.collision", n(RxDisposition::kDroppedCollision),
                "count");
  report.metric("radio.low_snr", n(RxDisposition::kDroppedLowSnr), "count");
  report.metric("radio.not_detected", n(RxDisposition::kNotDetected),
                "count");
  report.metric("radio.frontend_rejected",
                n(RxDisposition::kRejectedFrontEnd), "count");
  report.metric("radio.decoder_yield",
                ratio(n(RxDisposition::kDelivered), consumed), "ratio");
  report.metric("radio.window_share", median_or_zero(radio_share_), "ratio");

  report.metric("sim.window_ms", median_or_zero(window_ms_), "ms");
  report.metric("sim.self_ms", median_or_zero(self_ms_), "ms");
  report.metric("sim.record_ms", median_or_zero(record_ms_), "ms");
  report.metric("sim.resident_rows",
                static_cast<double>(shard_stats_.resident_rows), "count");
  report.metric("sim.boundary_rows",
                static_cast<double>(shard_stats_.boundary_rows), "count");
  report.metric("sim.boundary_events",
                static_cast<double>(shard_stats_.boundary_events), "count");
  report.metric("sim.campaign_prr", campaign_prr_, "ratio");

  report.metric("phy.link_rows", static_cast<double>(link_rows_), "count");
  report.metric("phy.events_per_pkt",
                ratio(static_cast<double>(c.events),
                      static_cast<double>(c.packets)),
                "events/pkt");

  report.metric("net.ingest_ms", median_or_zero(ingest_ms_), "ms");
  report.metric("net.uplinks", static_cast<double>(c.uplinks), "count");
  report.metric("net.dup_ratio",
                ratio(static_cast<double>(c.uplinks),
                      static_cast<double>(c.unique_delivered)),
                "ratio");
  // Equal to net.uplinks by construction: the replay fails the window
  // unless it reproduces every record the real servers logged.
  report.metric("net.log_records", static_cast<double>(c.uplinks), "count");

  report.metric("core.parse_ms", median_or_zero(parse_ms_), "ms");
  report.metric("core.estimate_ms", median_or_zero(estimate_ms_), "ms");
  report.metric("core.upgrade_ms", median_or_zero(upgrade_ms_), "ms");
  report.metric("core.build_ms", median_or_zero(build_ms_), "ms");
  report.metric("core.solve_ms", median_or_zero(solve_ms_), "ms");
  report.metric("core.solve_share", median_or_zero(solve_share_), "ratio");
  report.metric("core.ga_evaluations",
                static_cast<double>(figures_.ga_evaluations), "count");
  report.metric("core.evals_per_s", median_or_zero(evals_per_s_), "1/s");
  report.metric("core.cp_nodes", static_cast<double>(figures_.cp_nodes),
                "count");
  report.metric("core.objective", figures_.objective, "cost");

  report.metric("backhaul.master_sim_s", figures_.master_sim_s, "sim_s");
  report.metric("backhaul.push_sim_s", figures_.push_sim_s, "sim_s");
  report.metric("backhaul.reboot_sim_s", figures_.reboot_sim_s, "sim_s");

  report.metric("baselines.configure_ms", configure_ms_, "ms");

  report.metric("trace.ops", static_cast<double>(ops.count), "count");
  report.metric("trace.op_ms_p50", median_or_zero(traced_ms_), "ms");
  report.metric("trace.op_ms_max", ops.max, "ms");
  report.metric("trace.overhead_ms",
                median_or_zero(traced_ms_) - median_or_zero(untraced_ms_),
                "ms");
}

}  // namespace perfbench
