//! The closed-loop consumer that drives the loader, and the figures the
//! spans of a traced window yield.

use std::sync::Arc;
use std::time::{Duration, Instant};

use netsim::TrafficMeter;
use pipeline::SampleProfile;
use sophon::loader::OffloadingLoader;
use sophon::OffloadPlan;
use storage::{FetchRequest, FetchTransport, ServerConfig, TcpStorageServer};

use crate::inputs::{digest_f32, Corpus, Inputs};
use crate::trace::{percentile, self_times_ns, Recorder, Span};
use crate::{host, layers, median, Metrics, Opts};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Batches a timed window delivers at least, so that ten lie beyond p90.
pub const MIN_BATCHES: u64 = 100;

/// One delivered batch: its epoch, the sample ids the loader put in it,
/// and the digest of each delivered sample tensor.
#[derive(Debug)]
pub struct Delivered {
    pub epoch: u64,
    pub ids: Vec<u64>,
    pub digests: Vec<u64>,
}

/// What one measured stretch of whole epochs produced.
#[derive(Debug, Default)]
pub struct Window {
    pub wall_s: f64,
    pub samples: u64,
    pub batches: u64,
    /// Consumer wait per batch: end of the previous consume callback to
    /// the start of this one.
    pub waits_ms: Vec<f64>,
    pub delivered: Vec<Delivered>,
    /// Samples in batches the loader failed to deliver.
    pub failed: u64,
    pub next_epoch: u64,
    /// Wall seconds of each whole epoch.
    pub epoch_s: Vec<f64>,
    /// Process CPU seconds of each whole epoch.
    pub epoch_cpu_s: Vec<f64>,
}

impl Window {
    /// Samples per second over the median epoch: every epoch delivers the
    /// whole corpus, and the median discards epochs a passing burst of
    /// host load slowed.
    pub fn epoch_rate(&self) -> f64 {
        self.epoch_samples() / median(&self.epoch_s)
    }

    /// CPU milliseconds per sample over the median epoch.
    pub fn epoch_cpu_ms_per_sample(&self) -> f64 {
        median(&self.epoch_cpu_s) * 1e3 / self.epoch_samples()
    }

    fn epoch_samples(&self) -> f64 {
        self.samples as f64 / self.epoch_s.len() as f64
    }
}

/// Runs whole epochs from `first_epoch` until at least `min_s` seconds and
/// `min_batches` batches have passed. The consumer digests every sample
/// and then sleeps out the rest of `step`, the modelled GPU step.
pub fn run_epochs<T: FetchTransport>(
    loader: &mut OffloadingLoader<T>,
    rec: &Recorder,
    first_epoch: u64,
    min_s: f64,
    min_batches: u64,
    batch_size: usize,
    step: Duration,
) -> Window {
    let mut w = Window::default();
    let start = Instant::now();
    let mut prev_end = start;
    let mut epoch = first_epoch;
    loop {
        let epoch_start = Instant::now();
        let epoch_cpu = host::cpu_seconds();
        let order = loader.epoch_order(epoch);
        let chunks: Vec<&[u64]> = order.chunks(batch_size).collect();
        let mut b = 0usize;
        let result = loader.run_epoch(epoch, |batch| {
            let t0 = Instant::now();
            let t0_ns = rec.now_ns();
            w.waits_ms.push((t0 - prev_end).as_secs_f64() * 1e3);
            let digests = (0..batch.len()).map(|i| digest_f32(batch.sample(i))).collect();
            w.delivered.push(Delivered { epoch, ids: chunks[b].to_vec(), digests });
            if let Some(rest) = step.checked_sub(t0.elapsed()) {
                std::thread::sleep(rest);
            }
            prev_end = Instant::now();
            rec.record("step", t0_ns, rec.now_ns());
            w.samples += batch.len() as u64;
            w.batches += 1;
            b += 1;
            rec.set_batch(w.batches);
        });
        epoch += 1;
        w.epoch_s.push(epoch_start.elapsed().as_secs_f64());
        w.epoch_cpu_s.push(host::cpu_seconds() - epoch_cpu);
        if let Err(e) = result {
            eprintln!("epoch {} failed after {b} batches: {e}", epoch - 1);
            w.failed += (order.len() - b * batch_size) as u64;
            break;
        }
        if start.elapsed().as_secs_f64() >= min_s && w.batches >= min_batches {
            break;
        }
    }
    w.wall_s = start.elapsed().as_secs_f64();
    w.next_epoch = epoch;
    w
}

/// Per-batch figures from the spans of one or more client threads.
#[derive(Debug, Default)]
pub struct SpanFigures {
    /// Mean `loader.fetch` span.
    pub fetch_ms: f64,
    /// Mean of each fetch's slowest `fleet.node` child span.
    pub slowest_node_ms: f64,
    /// Mean self time of the fetch spans (fetch minus its node spans).
    pub fetch_self_ms: f64,
    /// Mean fetch return to consume start.
    pub suffix_ms: f64,
    /// (fetch + suffix + step) summed over threads, over wall × threads.
    pub overlap: f64,
    /// Sum of all node spans, for per-request node time.
    pub node_total_ms: f64,
}

/// Reads the per-batch figures from each thread's spans over a window of
/// `wall_s` seconds.
pub fn span_figures(threads: &[Vec<Span>], wall_s: f64) -> SpanFigures {
    let (mut fetch, mut slowest, mut self_t, mut suffix, mut step, mut node) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut fetches, mut suffixes) = (0u64, 0u64);
    for spans in threads {
        let self_times = self_times_ns(spans);
        let mut slowest_child = vec![0u64; spans.len()];
        for s in spans.iter().filter(|s| s.name == "fleet.node") {
            node += s.duration_ns();
            if let Some(p) = s.parent {
                slowest_child[p] = slowest_child[p].max(s.duration_ns());
            }
        }
        let mut last_fetch_end = None;
        for (i, s) in spans.iter().enumerate() {
            match s.name {
                "loader.fetch" => {
                    fetch += s.duration_ns();
                    slowest += slowest_child[i];
                    self_t += self_times[i];
                    fetches += 1;
                    last_fetch_end = Some(s.end_ns);
                }
                "step" => {
                    step += s.duration_ns();
                    if let Some(end) = last_fetch_end.take() {
                        suffix += s.start_ns.saturating_sub(end);
                        suffixes += 1;
                    }
                }
                _ => {}
            }
        }
    }
    let per = |total: u64, n: u64| total as f64 / 1e6 / n.max(1) as f64;
    SpanFigures {
        fetch_ms: per(fetch, fetches),
        slowest_node_ms: per(slowest, fetches),
        fetch_self_ms: per(self_t, fetches),
        suffix_ms: per(suffix, suffixes),
        overlap: (fetch + suffix + step) as f64 / 1e9 / (wall_s * threads.len() as f64),
        node_total_ms: node as f64 / 1e6,
    }
}

/// A built system under test: servers, loader and the counters read off
/// them.
pub trait LoaderSystem {
    type Transport: FetchTransport;

    fn loader(&mut self) -> &mut OffloadingLoader<Self::Transport>;

    /// Cumulative response bytes on the wire over all servers.
    fn wire(&self) -> u64;

    /// Cumulative requests served per node.
    fn node_requests(&self) -> Vec<u64>;

    /// Cumulative hedges, failovers and breaker reroutes.
    fn retries(&self) -> u64;

    /// Cumulative requests served and throttled.
    fn served_throttled(&self) -> (u64, u64);

    fn shutdown(self);
}

/// What building a system produced besides the system.
pub struct Built<S> {
    pub system: S,
    pub profiles: Vec<SampleProfile>,
    pub plan: OffloadPlan,
    pub profile_s: f64,
    pub plan_s: f64,
}

/// A loader-driven workload.
pub struct LoaderWorkload<S> {
    pub batch_size: usize,
    /// The modelled GPU step per batch.
    pub step: Duration,
    pub server: ServerConfig,
    /// Storage nodes; the link figure counts each node's own link.
    pub nodes: usize,
    /// Loads the corpus into the servers, profiles, plans, binds and
    /// connects.
    pub build: fn(&Corpus, &Arc<Recorder>) -> Built<S>,
    /// The simulator's samples per second for the same configuration.
    pub predict: fn(&Corpus, &[SampleProfile], &OffloadPlan) -> f64,
}

/// Counter readings at one instant.
struct Counters {
    wire: u64,
    nodes: Vec<u64>,
    retries: u64,
    served: u64,
    throttled: u64,
}

fn counters<S: LoaderSystem>(s: &S) -> Counters {
    let (served, throttled) = s.served_throttled();
    Counters { wire: s.wire(), nodes: s.node_requests(), retries: s.retries(), served, throttled }
}

/// Bytes of the length prefix each frame carries outside the payload the
/// server's meter counts.
pub const FRAME_PREFIX: u64 = 4;

/// A server's response bytes on the wire: payloads (frame header and CRC
/// included) plus each frame's length prefix.
pub fn wire_bytes(meter: &TrafficMeter) -> u64 {
    meter.bytes() + FRAME_PREFIX * meter.messages()
}

/// Requests a server completed and throttled, over all tenants.
pub fn served_throttled(server: &TcpStorageServer) -> (u64, u64) {
    server.tenant_stats().values().fold((0, 0), |(s, t), v| (s + v.completed, t + v.throttled))
}

/// Checks every delivered sample against the no-offload reference and
/// returns the samples in batches with any mismatch.
pub fn verify(inputs: &mut Inputs, windows: &[&Window]) -> u64 {
    let batches: Vec<&Delivered> = windows.iter().flat_map(|w| &w.delivered).collect();
    let keys: Vec<(u64, u64)> =
        batches.iter().flat_map(|d| d.ids.iter().map(|&id| (d.epoch, id))).collect();
    let refs = inputs.references(&crate::pipeline(), &keys);
    let mut refs = refs.iter();
    let mut bad = 0u64;
    for d in batches {
        let expected: Vec<u64> = refs.by_ref().take(d.ids.len()).copied().collect();
        if expected != d.digests {
            eprintln!("epoch {} batch {:?}: output differs from the reference", d.epoch, d.ids);
            bad += d.ids.len() as u64;
        }
    }
    bad
}

/// Builds the system, runs a warm-up epoch and the timed window(s), checks
/// the outputs and reports either the end-to-end or the per-layer metrics.
pub fn run_loader_workload<S: LoaderSystem>(
    wl: &LoaderWorkload<S>,
    inputs: &mut Inputs,
    opts: &Opts,
    m: &mut Metrics,
) {
    let rec = Recorder::new(opts.trace);
    m.keep_spans(&rec);
    let (built, setup_s) = if opts.trace {
        ((wl.build)(&inputs.corpus, &rec), f64::NAN)
    } else {
        repeat_setup(|| (wl.build)(&inputs.corpus, &rec), |b: Built<S>| b.system.shutdown())
    };
    let Built { mut system, profiles, plan, profile_s, plan_s } = built;
    rec.set_enabled(false);

    let bs = wl.batch_size;
    // The seed picks the run's epochs, and with them every epoch's sample
    // order and augmentation keys.
    let first_epoch = opts.seed << 20;
    let warm = run_epochs(system.loader(), &rec, first_epoch, 0.0, 0, bs, wl.step);
    let before = counters(&system);
    let w =
        run_epochs(system.loader(), &rec, warm.next_epoch, opts.seconds, MIN_BATCHES, bs, wl.step);
    let after = counters(&system);
    let live = w.epoch_rate();
    // Read before the output check, whose reference runs are not the
    // system's memory.
    let peak_rss_mb = host::peak_rss_mb();

    let mut traced = None;
    if opts.trace {
        rec.set_enabled(true);
        let tw =
            run_epochs(system.loader(), &rec, w.next_epoch, opts.seconds, MIN_BATCHES, bs, wl.step);
        rec.set_enabled(false);
        let t_after = counters(&system);
        traced = Some((tw, t_after));
    }

    if let Some((tw, t_after)) = &traced {
        core_metrics(m, &profiles, &plan, profile_s, plan_s);
        let (predicted, simulate_s) =
            rec.time("cluster.simulate", || (wl.predict)(&inputs.corpus, &profiles, &plan));
        cluster_metrics(m, predicted, simulate_s, live);

        let f = span_figures(&[rec.spans()], tw.wall_s);
        let per_node: Vec<u64> =
            t_after.nodes.iter().zip(&after.nodes).map(|(a, b)| a - b).collect();
        loader_fleet_metrics(m, &f, &per_node, t_after.retries - after.retries);

        let epoch = w.next_epoch;
        let requests: Vec<FetchRequest> = system
            .loader()
            .epoch_order(epoch)
            .into_iter()
            .map(|id| FetchRequest::new(id, epoch, plan.split(id as usize)))
            .collect();
        let (exec_us, wire_us) =
            layers::replay(m, &inputs.corpus, &crate::pipeline(), &requests, bs);
        let served = t_after.served - after.served;
        let throttled = t_after.throttled - after.throttled;
        let node_us = f.node_total_ms * 1e3 / tw.samples as f64;
        storage_metrics(
            m,
            &inputs.corpus,
            wl.server,
            node_us,
            (exec_us, wire_us),
            (served, throttled),
        );
        let link_bytes_per_s = wl.server.bandwidth.bytes_per_second() * wl.nodes as f64;
        let util = (t_after.wire - after.wire) as f64 / (link_bytes_per_s * tw.wall_s);
        m.layer("netsim.link_utilization", util, "fraction");
        trace_metrics(m, live, tw.epoch_rate());
    }

    let mut windows = vec![&warm, &w];
    if let Some((tw, _)) = &traced {
        windows.push(tw);
    }
    let bad = verify(inputs, &windows);
    m.attempted = windows.iter().map(|w| w.samples + w.failed).sum();
    m.failed = windows.iter().map(|w| w.failed).sum::<u64>() + bad;

    if !opts.trace {
        m.e2e("samples_per_s", live, "samples/s");
        let p50 = percentile(&w.waits_ms, 50.0).expect("window delivers enough batches");
        let p90 = percentile(&w.waits_ms, 90.0).expect("window delivers enough batches");
        m.e2e("step_wait_p50_ms", p50, "ms");
        m.e2e("step_wait_p90_ms", p90, "ms");
        m.e2e(
            "wire_bytes_per_sample",
            (after.wire - before.wire) as f64 / w.samples as f64,
            "bytes",
        );
        m.e2e("cpu_ms_per_sample", w.epoch_cpu_ms_per_sample(), "ms");
        m.e2e("setup_s", setup_s, "s");
        m.e2e("peak_rss_mb", peak_rss_mb, "MB");
        println!("batches={} (p90 from {} waits)", w.batches, w.waits_ms.len());
    }
    system.shutdown();
}

/// The planner's figures: profiling and planning time, and what the plan
/// offloads and predicts on the wire.
pub fn core_metrics(
    m: &mut Metrics,
    profiles: &[SampleProfile],
    plan: &OffloadPlan,
    profile_s: f64,
    plan_s: f64,
) {
    let n = profiles.len() as f64;
    m.layer("core.profile_ms", profile_s * 1e3, "ms");
    m.layer("core.plan_ms", plan_s * 1e3, "ms");
    m.layer("core.offload_fraction", plan.offloaded_samples() as f64 / n, "fraction");
    let planned: u64 =
        profiles.iter().enumerate().map(|(i, p)| p.size_at(plan.split(i).offloaded_ops())).sum();
    m.layer("core.planned_bytes_per_sample", planned as f64 / n, "bytes");
}

/// The simulator's prediction for the workload, against the live rate.
pub fn cluster_metrics(m: &mut Metrics, predicted: f64, simulate_s: f64, live: f64) {
    m.layer("cluster.simulate_ms", simulate_s * 1e3, "ms");
    m.layer("cluster.predicted_samples_per_s", predicted, "samples/s");
    m.layer("cluster.live_over_predicted", live / predicted, "ratio");
}

/// Loader and fleet figures from the traced window's spans and the
/// per-node request counts over it.
pub fn loader_fleet_metrics(m: &mut Metrics, f: &SpanFigures, per_node: &[u64], retries: u64) {
    m.layer("loader.fetch_ms_per_batch", f.fetch_ms, "ms");
    m.layer("loader.suffix_ms_per_batch", f.suffix_ms, "ms");
    m.layer("loader.overlap", f.overlap, "ratio");
    m.layer("fleet.fetch_ms_per_batch", f.fetch_ms, "ms");
    m.layer("fleet.node_fetch_ms_per_batch", f.slowest_node_ms, "ms");
    m.layer("fleet.scatter_self_ms_per_batch", f.fetch_self_ms, "ms");
    let mean = per_node.iter().sum::<u64>() as f64 / per_node.len() as f64;
    let max = per_node.iter().copied().max().unwrap_or(0) as f64;
    m.layer("fleet.node_imbalance", max / mean.max(1.0), "ratio");
    m.layer("fleet.retries", retries as f64, "count");
}

/// Storage figures: the replayed costs folded into the per-request node
/// time, the idle-server probes and the serving counters.
pub fn storage_metrics(
    m: &mut Metrics,
    corpus: &Corpus,
    server: ServerConfig,
    node_us_per_req: f64,
    (exec_us, wire_us): (f64, f64),
    (served, throttled): (u64, u64),
) {
    // The server's cores run the executor in parallel, so its share of a
    // request's node time is the replayed cost over the core count.
    let turnaround = node_us_per_req - exec_us / server.cores as f64 - wire_us;
    m.layer("storage.turnaround_us_per_req", turnaround, "us");
    let rtt = layers::rtt_serial_p50_us(corpus, server, &crate::pipeline());
    m.layer("storage.rtt_serial_p50_us", rtt, "us");
    m.layer("storage.idle_cpu_pct", layers::idle_cpu_pct(), "%");
    m.layer("storage.served", served as f64, "count");
    m.layer("storage.throttled", throttled as f64, "count");
}

/// Tracing overhead: the traced window's rate against the untraced one's.
pub fn trace_metrics(m: &mut Metrics, untraced: f64, traced: f64) {
    m.layer("trace.untraced_samples_per_s", untraced, "samples/s");
    m.layer("trace.traced_samples_per_s", traced, "samples/s");
    m.layer("trace.overhead_frac", 1.0 - traced / untraced, "fraction");
}

/// Runs `build` [`SETUPS`] times, shutting down all but the last system.
/// Returns it with the median set-up time.
fn repeat_setup<B>(build: impl Fn() -> B, shutdown: impl Fn(B)) -> (B, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        if let Some(b) = last.take() {
            shutdown(b);
        }
        let t = Instant::now();
        last = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up ran"), median(&times))
}
