#include "net/node.h"

#include "crypto/hash_chain.h"

namespace sstsp::net {

namespace {
/// Trace-id range seed for a node: the node id in the high bits keeps the
/// per-node channel counters disjoint, so lifecycle ids stay unique across
/// the whole deployment (and 0 stays reserved for "no beacon").
[[nodiscard]] std::uint64_t trace_id_base(mac::NodeId id) {
  return (static_cast<std::uint64_t>(id) + 1) << 40;
}
}  // namespace

mac::PhyParams NodeRuntime::live_phy(const mac::PhyParams& phy) {
  mac::PhyParams live = phy;
  // The private channel only carries the node's own frames to the wire tap:
  // loss and range belong to the real network now, not the model.
  live.packet_error_rate = 0.0;
  live.radio_range_m = 0.0;
  return live;
}

clk::HardwareClock NodeRuntime::make_clock(const NodeConfig& cfg) {
  if (!cfg.emulate_clock) {
    return clk::HardwareClock(clk::DriftModel::from_ppm(cfg.drift_ppm),
                              cfg.offset_us);
  }
  // Per-node deterministic draw, independent of every other consumer and
  // of which process hosts the node.
  sim::Rng rng = sim::Rng(cfg.seed).substream("node-clock", cfg.id);
  const auto drift = clk::DriftModel::uniform(rng, cfg.max_drift_ppm);
  const double offset =
      rng.uniform(-cfg.initial_offset_us, cfg.initial_offset_us);
  return clk::HardwareClock(drift, offset);
}

NodeConfig node_config(const run::Scenario& s, NodeConfig base) {
  base.total_nodes = s.num_nodes;
  base.seed = s.seed;
  base.sstsp = s.sstsp;
  base.phy = s.phy;
  base.max_drift_ppm = s.max_drift_ppm;
  base.initial_offset_us = s.initial_offset_us;
  return base;
}

NodeRuntime::NodeRuntime(sim::Simulator& sim, Transport& transport,
                         const NodeConfig& config)
    : sim_(sim),
      transport_(transport),
      config_(config),
      channel_(sim, live_phy(config.phy)) {
  channel_.seed_trace_ids(trace_id_base(config_.id));

  // The station registers itself as channel index 0...
  station_ = std::make_unique<proto::Station>(
      sim_, channel_, config_.id, make_clock(config_), mac::Position{});
  // ...and the wire tap, co-located, as index 1.  Being the only *other*
  // station, it receives every local transmission (half-duplex excludes
  // the sender itself) after the frame's air time + receive latency.
  channel_.add_station(mac::Position{},
                       [this](const mac::Frame& frame, const mac::RxInfo&) {
                         on_local_frame(frame);
                       });

  // Trust bootstrap: every node of the deployment derives the same anchor
  // directory from the shared seed (see core/key_directory.h).
  for (int i = 0; i < config_.total_nodes; ++i) {
    const auto id = static_cast<mac::NodeId>(i);
    directory_.register_node(
        id, crypto::ChainParams{crypto::derive_seed(config_.seed, id),
                                config_.sstsp.chain_length});
  }

  core::Sstsp::Options options;
  options.calibrated_boot = true;
  options.start_as_reference = config_.start_as_reference;
  station_->set_protocol(std::make_unique<core::Sstsp>(
      *station_, config_.sstsp, directory_, options));

  transport_.set_rx_handler(
      [this](std::span<const std::uint8_t> bytes, const RxMeta& meta) {
        on_datagram(bytes, meta);
      });
}

void NodeRuntime::start() { station_->power_on(); }

void NodeRuntime::start_telemetry(
    const obs::TelemetrySampler::Options& options, sim::SimTime until,
    obs::TelemetrySampler::EmitFn emit) {
  sampler_ = std::make_unique<obs::TelemetrySampler>(
      options, [this, emit = std::move(emit)](const obs::TelemetrySample& s) {
        if (observers_ != nullptr && observers_->flight() != nullptr) {
          observers_->flight()->on_sample(s);
        }
        if (emit) emit(s);
      });
  telemetry_period_ = sim::SimTime::from_sec_double(options.interval_s);
  telemetry_until_ = until;
  sim_.after(telemetry_period_, [this] { telemetry_tick(); });
}

void NodeRuntime::telemetry_tick() {
  emit_telemetry_sample();
  if (sim_.now() + telemetry_period_ <= telemetry_until_) {
    sim_.after(telemetry_period_, [this] { telemetry_tick(); });
  }
}

void NodeRuntime::emit_telemetry_sample() {
  obs::TelemetrySample s;
  s.node = static_cast<std::int64_t>(config_.id);
  s.nodes_total = config_.total_nodes;
  const bool awake = station_->awake();
  s.nodes_awake = awake ? 1 : 0;
  s.nodes_synced = awake && station_->protocol().is_synchronized() ? 1 : 0;
  if (awake && station_->protocol().is_reference()) {
    s.reference = s.node;
  }
  // Per-node samples carry no offset error: a live node has no ground
  // truth to compare against (the swarm's cluster samples do).
  s.queue_depth = sim_.events_pending();
  if (observers_ != nullptr) observers_->stamp(s);
  sampler_->emit(sim_.now().to_sec(), std::move(s),
                 obs::telemetry_cumulative(station_->protocol().stats(),
                                           sim_.events_processed()));
}

void NodeRuntime::on_local_frame(const mac::Frame& frame) {
  // The frame's timestamps describe this tap event's *scheduled* instant,
  // but the datagram physically leaves whenever the OS dispatches the
  // sendto.  Real beacon hardware stamps at the antenna so the two
  // coincide; here the transport measures the dispatch lateness against
  // the schedule per peer copy and publishes it in the envelope for the
  // receiver to compensate (no-op on virtual-time transports, which
  // deliver exactly on schedule).
  TxMeta meta;
  if (wall_now_) {
    meta.has_schedule = true;
    meta.scheduled = sim_.now();
    // A host stall between the scheduled instant and this dispatch makes
    // the beacon stale: skip it like a missed TBTT window rather than
    // feed receivers replay-shaped evidence (see kMaxTxLatenessUs).
    if ((wall_now_() - meta.scheduled).to_us() > kMaxTxLatenessUs) {
      ++stats_.stale_frames_dropped;
      return;
    }
  }
  ++stats_.frames_sent;
  const std::vector<std::uint8_t> datagram = encode_datagram(frame);
  if (!transport_.send(datagram, meta)) {
    // Already accounted in the transport's send_errors; nothing to retry —
    // beacons are periodic soft state.
  }
}

void NodeRuntime::on_datagram(std::span<const std::uint8_t> bytes,
                              const RxMeta& meta) {
  const DecodeOutcome outcome = decode_datagram(bytes);
  if (!outcome.ok()) {
    ++stats_.decode_errors;
    ++decode_error_by_kind_[static_cast<std::size_t>(outcome.error)];
    return;
  }
  const mac::Frame& frame = *outcome.frame;
  if (frame.sender == config_.id) {
    // Own multicast echo: the live stand-in for half-duplex suppression.
    ++stats_.self_frames_dropped;
    return;
  }
  ++stats_.frames_received;
  if (!station_->awake() || !station_->has_protocol()) return;

  // Arrival-instant RxInfo on the same timeline the protocol's timers run
  // on.  The nominal delay is the same receiver-side compensation constant
  // a simulated delivery carries (air time + nominal propagation + nominal
  // receive latency), plus what the real path adds on top of the modelled
  // one:
  //   * wire_latency_us — the expected transport hop (operator constant);
  //   * the sender's self-reported dispatch lateness — the envelope's
  //     emulation-metadata stand-in for hardware tx timestamping.
  // Symmetrically, the receiver backs its own wake-up latency out of the
  // arrival estimate (kernel rx timestamp via RxMeta), so only genuine
  // path jitter around wire_latency_us survives as the paper's epsilon.
  const sim::SimTime duration = frame.is_sstsp()
                                    ? channel_.phy().sstsp_beacon_duration
                                    : channel_.phy().tsf_beacon_duration;
  mac::RxInfo rx;
  const sim::SimTime now = wall_now_ ? wall_now_() : sim_.now();
  rx.delivered = now - sim::SimTime::from_ns(meta.rx_lateness_ns);
  rx.nominal_delay_us = channel_.nominal_delay_us(duration) +
                        config_.wire_latency_us +
                        static_cast<double>(outcome.tx_lateness_ns) / 1'000.0;
  // Ground-truth tx start is unknowable across the wire; the nominal
  // estimate is only used for RULE R's earlier-transmitter tie-break.
  rx.tx_start =
      rx.delivered - sim::SimTime::from_us_double(rx.nominal_delay_us);
  station_->protocol().on_receive(frame, rx);
}

NetRunStats NodeRuntime::net_stats() const {
  NetRunStats snapshot = stats_;
  snapshot.transport = transport_.stats();
  return snapshot;
}

}  // namespace sstsp::net
