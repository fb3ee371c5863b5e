//! `tiny_raw_serving`: the same server used with many cheap requests
//! instead of a few expensive ones. A corpus of ~8 KB objects on one
//! 2-core unthrottled server; two client threads, one connection each,
//! each repeatedly fetching 32 raw objects with `fetch_many_requests`.
//!
//! Per-request costs are nearly all the work: the event-loop scan and idle
//! sleep, DWRR dispatch, wire encode + CRC and client demux.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use cluster::{simulate_epoch, ClusterConfig, EpochSpec, GpuModel, SampleWork};
use datasets::{AspectMix, ComplexityModel, DatasetSpec, SizeModel};
use netsim::Bandwidth;
use pipeline::{SampleProfile, SplitPoint, StageData};
use sophon::engine::PlanningContext;
use sophon::prelude::{Policy, SophonPolicy};
use sophon::OffloadPlan;
use storage::{FetchRequest, FetchTransport, ServerConfig, TcpStorageClient, TcpStorageServer};

use crate::drive::{self, span_figures, MIN_BATCHES};
use crate::inputs::{Corpus, Inputs, CORPUS_SEED};
use crate::trace::{percentile, Recorder, Timed};
use crate::{host, layers, median, Metrics, Opts};

pub const NAME: &str = "tiny_raw_serving";

const SAMPLES: usize = 512;
const BATCH: usize = 32;
const THREADS: usize = 2;
const CORES: usize = 2;
const LINK_GBPS: f64 = 40.0;
const GPU: GpuModel = GpuModel::Custom { seconds_per_image: 1e-9 };

/// The corpus size and the population it is drawn from: small
/// photographic objects with a median of about 8 KB.
pub fn corpus() -> (usize, DatasetSpec) {
    let spec = DatasetSpec {
        name: "tiny-objects".to_string(),
        seed: CORPUS_SEED,
        len: 0,
        sizes: SizeModel {
            median_bytes: 8_000.0,
            sigma: 0.5,
            min_bytes: 2_000.0,
            max_bytes: 32_000.0,
        },
        complexity: ComplexityModel { mean: 0.45, std: 0.18 },
        aspects: AspectMix::photographic(),
        quality_value: 85,
    };
    (SAMPLES, spec)
}

fn server_config() -> ServerConfig {
    ServerConfig {
        cores: CORES,
        bandwidth: Bandwidth::from_gbps(LINK_GBPS),
        ..ServerConfig::default()
    }
}

fn cluster_config() -> ClusterConfig {
    ClusterConfig::paper_testbed(CORES)
        .with_compute_cores(2)
        .with_bandwidth(Bandwidth::from_gbps(LINK_GBPS))
}

type Client = Timed<Timed<TcpStorageClient>>;

struct System {
    server: TcpStorageServer,
    clients: Vec<(Client, Arc<Recorder>)>,
    profiles: Vec<SampleProfile>,
    plan: OffloadPlan,
    profile_s: f64,
    plan_s: f64,
}

impl System {
    fn counters(&self) -> (u64, u64, u64) {
        let (served, throttled) = drive::served_throttled(&self.server);
        (drive::wire_bytes(&self.server.meter()), served, throttled)
    }

    fn shutdown(self) {
        drop(self.clients);
        self.server.shutdown();
    }
}

/// Loads the corpus, profiles and plans it like the other workloads (at
/// this bandwidth SOPHON offloads nothing, which is what makes every fetch
/// raw), binds the server and connects the clients.
fn build(corpus: &Corpus) -> System {
    let pipeline = crate::pipeline();
    let store = corpus.store();
    let t = Instant::now();
    let profiles = crate::profile(corpus, &pipeline);
    let profile_s = t.elapsed().as_secs_f64();
    let config = cluster_config();
    let ctx = PlanningContext::new(&profiles, &pipeline, &config, GPU, BATCH);
    let t = Instant::now();
    let plan = SophonPolicy::default().plan(&ctx).expect("SOPHON plans");
    let plan_s = t.elapsed().as_secs_f64();
    assert_eq!(plan.offloaded_samples(), 0, "the serving workload needs an all-raw plan");
    let server = TcpStorageServer::bind(store, server_config(), "127.0.0.1:0")
        .expect("storage server binds");
    let clients = (0..THREADS)
        .map(|_| {
            let rec = Recorder::new(false);
            let client = TcpStorageClient::connect(server.local_addr()).expect("client connects");
            let mut c =
                Timed::outer(&rec, "loader.fetch", Timed::child(&rec, "fleet.node", client));
            c.configure(corpus.dataset_seed, crate::pipeline()).expect("session configures");
            (c, rec)
        })
        .collect();
    System { server, clients, profiles, plan, profile_s, plan_s }
}

/// What one measured stretch of whole passes produced.
#[derive(Debug, Default)]
struct Window {
    wall_s: f64,
    cpu_s: f64,
    samples: u64,
    batches: u64,
    /// Per batch: submit to its last response.
    waits_ms: Vec<f64>,
    /// Wall seconds of each client's passes.
    pass_s: Vec<f64>,
    failed: u64,
    next_pass: u64,
}

impl Window {
    /// Responses per second over the median pass, with every client
    /// running its passes at once. The event loop drifts between a slow
    /// and a fast regime within a run; the median reports the one that
    /// prevails.
    fn pass_rate(&self) -> f64 {
        (THREADS * SAMPLES) as f64 / median(&self.pass_s)
    }
}

/// Each client's pass `pass` over the corpus, a seeded permutation.
fn pass_order(seed: u64, client: usize, pass: u64) -> Vec<u64> {
    let mut ids: Vec<u64> = (0..SAMPLES as u64).collect();
    let mut state = seed ^ (client as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ pass << 32;
    for i in (1..ids.len()).rev() {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        ids.swap(i, ((state >> 33) % (i as u64 + 1)) as usize);
    }
    ids
}

/// Every client runs whole passes over the corpus until `min_s` seconds
/// have gone by, checking each response against the stored object.
///
/// The clients move in lockstep, one batch each per round, like
/// data-parallel ranks that synchronise every step. Left to drift, their
/// relative phase decides whether the server's event loop ever idles, and
/// a run would settle at ~7k or ~20k responses/s by chance.
fn run_passes(sys: &mut System, corpus: &Corpus, seed: u64, first_pass: u64, min_s: f64) -> Window {
    let barrier = Barrier::new(THREADS);
    let stop = AtomicBool::new(false);
    let cpu0 = host::cpu_seconds();
    let start = Instant::now();
    let per_client: Vec<Window> = std::thread::scope(|s| {
        let handles: Vec<_> = sys
            .clients
            .iter_mut()
            .enumerate()
            .map(|(t, (client, rec))| {
                let (barrier, stop) = (&barrier, &stop);
                s.spawn(move || {
                    let mut w = Window::default();
                    let mut pass = first_pass;
                    loop {
                        let pass_start = Instant::now();
                        for chunk in pass_order(seed, t, pass).chunks(BATCH) {
                            let requests: Vec<FetchRequest> = chunk
                                .iter()
                                .map(|&id| FetchRequest::new(id, 0, SplitPoint::NONE))
                                .collect();
                            barrier.wait();
                            let t0 = Instant::now();
                            let result = client.fetch_many_requests(&requests);
                            w.waits_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                            let check_ns = rec.now_ns();
                            w.failed += match result {
                                Ok(responses) => mismatches(corpus, chunk, &responses),
                                Err(e) => {
                                    eprintln!("client {t}: batch failed: {e}");
                                    chunk.len() as u64
                                }
                            };
                            rec.record("step", check_ns, rec.now_ns());
                            w.samples += chunk.len() as u64;
                            w.batches += 1;
                            rec.set_batch(w.batches);
                        }
                        pass += 1;
                        w.pass_s.push(pass_start.elapsed().as_secs_f64());
                        // Every client must take the same decision.
                        if barrier.wait().is_leader() {
                            stop.store(start.elapsed().as_secs_f64() >= min_s, Ordering::SeqCst);
                        }
                        barrier.wait();
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                    }
                    w.next_pass = pass;
                    w
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread does not panic")).collect()
    });
    let mut w = Window { wall_s: start.elapsed().as_secs_f64(), ..Window::default() };
    w.cpu_s = host::cpu_seconds() - cpu0;
    for c in per_client {
        w.samples += c.samples;
        w.batches += c.batches;
        w.waits_ms.extend(c.waits_ms);
        w.pass_s.extend(c.pass_s);
        w.failed += c.failed;
        w.next_pass = w.next_pass.max(c.next_pass);
    }
    w
}

/// Requested objects that came back missing, twice or with other bytes.
fn mismatches(corpus: &Corpus, ids: &[u64], responses: &[storage::FetchResponse]) -> u64 {
    let mut by_id: HashMap<u64, &StageData> =
        responses.iter().map(|r| (r.sample_id, &r.data)).collect();
    ids.iter()
        .filter(|&&id| {
            !matches!(by_id.remove(&id), Some(StageData::Encoded(b)) if *b == corpus.objects[id as usize])
        })
        .count() as u64
}

/// Fresh servers per untraced run; each serves an equal share of the
/// timed window. Which core the scheduler gives the event loop can double
/// its rate for a server's whole life, so the figures are medians over
/// servers rather than one server's luck.
const SUBRUNS: u64 = 5;

pub fn run(opts: &Opts, m: &mut Metrics) {
    let (len, spec) = corpus();
    let inputs = Inputs::load(NAME, len, &spec);
    if opts.trace {
        run_traced(opts, m, &inputs.corpus);
    } else {
        run_untraced(opts, m, &inputs.corpus);
    }
}

fn run_untraced(opts: &Opts, m: &mut Metrics, corpus: &Corpus) {
    let (mut setup_s, mut rate, mut p50, mut p90, mut cpu) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut wire, mut samples) = (0u64, 0u64);
    for k in 0..SUBRUNS {
        let t = Instant::now();
        let mut sys = build(corpus);
        setup_s.push(t.elapsed().as_secs_f64());
        let warm = run_passes(&mut sys, corpus, opts.seed, k << 32, 0.0);
        let (wire0, _, _) = sys.counters();
        let w =
            run_passes(&mut sys, corpus, opts.seed, warm.next_pass, opts.seconds / SUBRUNS as f64);
        let (wire1, _, _) = sys.counters();
        sys.shutdown();
        assert!(w.batches >= MIN_BATCHES, "sub-run delivered only {} batches", w.batches);
        rate.push(w.pass_rate());
        p50.push(percentile(&w.waits_ms, 50.0).expect("sub-run delivers enough batches"));
        p90.push(percentile(&w.waits_ms, 90.0).expect("sub-run delivers enough batches"));
        cpu.push(w.cpu_s * 1e3 / w.samples as f64);
        wire += wire1 - wire0;
        samples += w.samples;
        m.attempted += warm.samples + w.samples;
        m.failed += warm.failed + w.failed;
    }
    let rss = host::peak_rss_mb();
    println!("sub-run samples/s: {:?}", rate.iter().map(|r| r.round()).collect::<Vec<_>>());
    m.e2e("samples_per_s", median(&rate), "samples/s");
    m.e2e("step_wait_p50_ms", median(&p50), "ms");
    m.e2e("step_wait_p90_ms", median(&p90), "ms");
    m.e2e("wire_bytes_per_sample", wire as f64 / samples as f64, "bytes");
    m.e2e("cpu_ms_per_sample", median(&cpu), "ms");
    m.e2e("setup_s", median(&setup_s), "s");
    m.e2e("peak_rss_mb", rss, "MB");
}

/// Pairs an untraced and a traced window on each of [`SUBRUNS`] fresh
/// servers: both windows of a pair run in the same server's regime, so the
/// pairs' rates give the tracing overhead.
fn run_traced(opts: &Opts, m: &mut Metrics, corpus: &Corpus) {
    let share = opts.seconds / SUBRUNS as f64;
    let (mut live, mut traced, mut spans) = (Vec::new(), Vec::new(), Vec::new());
    let (mut wire, mut served, mut throttled, mut samples, mut wall) = (0, 0, 0, 0, 0.0);
    let mut last = None;
    for k in 0..SUBRUNS {
        if let Some(sys) = last.take() {
            System::shutdown(sys);
        }
        let mut sys = build(corpus);
        let warm = run_passes(&mut sys, corpus, opts.seed, k << 32, 0.0);
        let w = run_passes(&mut sys, corpus, opts.seed, warm.next_pass, share);
        let (wire1, served1, throttled1) = sys.counters();
        sys.clients.iter().for_each(|(_, rec)| rec.set_enabled(true));
        let tw = run_passes(&mut sys, corpus, opts.seed, w.next_pass, share);
        sys.clients.iter().for_each(|(_, rec)| rec.set_enabled(false));
        let (wire2, served2, throttled2) = sys.counters();
        live.push(w.pass_rate());
        traced.push(tw.pass_rate());
        wire += wire2 - wire1;
        served += served2 - served1;
        throttled += throttled2 - throttled1;
        samples += tw.samples;
        wall += tw.wall_s;
        for (_, rec) in &sys.clients {
            spans.push(rec.spans());
            m.keep_spans(rec);
        }
        for x in [&warm, &w, &tw] {
            m.attempted += x.samples;
            m.failed += x.failed;
        }
        if k == 0 {
            drive::core_metrics(m, &sys.profiles, &sys.plan, sys.profile_s, sys.plan_s);
        }
        last = Some(sys);
    }
    let live = median(&live);

    let t = Instant::now();
    let works: Vec<SampleWork> =
        corpus.objects.iter().map(|o| SampleWork::new(0.0, o.len() as u64, 0.0)).collect();
    let stats = simulate_epoch(&cluster_config(), &EpochSpec::new(works, BATCH, GPU))
        .expect("simulator runs the epoch");
    let predicted = stats.samples as f64 / stats.epoch_seconds;
    drive::cluster_metrics(m, predicted, t.elapsed().as_secs_f64(), live);

    // Every client of every sub-run is one thread of the span figures, so
    // the wall each ran for is the mean traced window.
    let f = span_figures(&spans, wall / SUBRUNS as f64);
    drive::loader_fleet_metrics(m, &f, &[served], 0);

    let requests: Vec<FetchRequest> =
        (0..SAMPLES as u64).map(|id| FetchRequest::new(id, 0, SplitPoint::NONE)).collect();
    let replayed = layers::replay(m, corpus, &crate::pipeline(), &requests, BATCH);
    let node_us = f.node_total_ms * 1e3 / samples as f64;
    drive::storage_metrics(m, corpus, server_config(), node_us, replayed, (served, throttled));
    let link_bytes_per_s = Bandwidth::from_gbps(LINK_GBPS).bytes_per_second();
    m.layer("netsim.link_utilization", wire as f64 / (link_bytes_per_s * wall), "fraction");
    drive::trace_metrics(m, live, median(&traced));
    if let Some(sys) = last {
        sys.shutdown();
    }
}
