//! `oi_sophon_linkbound`: the paper's regime. An OpenImages-like corpus on
//! one 2-core server behind a 100 Mbps token-bucket link, planned by
//! SOPHON from stage-2 profiles at that bandwidth, read over one
//! connection by a loader with two suffix workers, and consumed at
//! ResNet-18's modelled GPU step.
//!
//! The executor's decode+crop prefix, the link and the plan's byte savings
//! carry the epoch; the batch-synchronous loader keeps fetch, suffix and
//! step serial, so any gain from overlapping them shows here.

use std::sync::Arc;
use std::time::Duration;

use cluster::{simulate_epoch, ClusterConfig, EpochSpec, GpuModel};
use datasets::DatasetSpec;
use netsim::Bandwidth;
use pipeline::SampleProfile;
use sophon::engine::PlanningContext;
use sophon::loader::{LoaderConfig, OffloadingLoader};
use sophon::prelude::{Policy, SophonPolicy};
use sophon::OffloadPlan;
use storage::{ServerConfig, TcpStorageClient, TcpStorageServer};

use crate::drive::{self, run_loader_workload, Built, LoaderSystem, LoaderWorkload};
use crate::inputs::{Corpus, Inputs, CORPUS_SEED};
use crate::trace::{Recorder, Timed};
use crate::{Metrics, Opts};

pub const NAME: &str = "oi_sophon_linkbound";

const SAMPLES: usize = 128;
/// Small batches keep ≥ 100 batches inside a 10 s window at ~80
/// samples/s.
const BATCH: usize = 8;
const LINK_MBPS: f64 = 50.0;
const CORES: usize = 2;
const GPU: GpuModel = GpuModel::ResNet18;

fn cluster_config() -> ClusterConfig {
    ClusterConfig::paper_testbed(CORES)
        .with_compute_cores(2)
        .with_bandwidth(Bandwidth::from_mbps(LINK_MBPS))
}

fn server_config() -> ServerConfig {
    ServerConfig {
        cores: CORES,
        bandwidth: Bandwidth::from_mbps(LINK_MBPS),
        ..ServerConfig::default()
    }
}

type Transport = Timed<Timed<TcpStorageClient>>;

struct System {
    server: TcpStorageServer,
    loader: OffloadingLoader<Transport>,
}

impl LoaderSystem for System {
    type Transport = Transport;

    fn loader(&mut self) -> &mut OffloadingLoader<Transport> {
        &mut self.loader
    }

    fn wire(&self) -> u64 {
        drive::wire_bytes(&self.server.meter())
    }

    fn node_requests(&self) -> Vec<u64> {
        vec![self.served_throttled().0]
    }

    fn retries(&self) -> u64 {
        0
    }

    fn served_throttled(&self) -> (u64, u64) {
        drive::served_throttled(&self.server)
    }

    fn shutdown(self) {
        drop(self.loader);
        self.server.shutdown();
    }
}

fn build(corpus: &Corpus, rec: &Arc<Recorder>) -> Built<System> {
    let pipeline = crate::pipeline();
    let store = corpus.store();
    let (profiles, profile_s) = rec.time("core.profile", || crate::profile(corpus, &pipeline));
    let config = cluster_config();
    let ctx = PlanningContext::new(&profiles, &pipeline, &config, GPU, BATCH);
    let (plan, plan_s) =
        rec.time("core.plan", || SophonPolicy::default().plan(&ctx).expect("SOPHON plans"));
    let server = TcpStorageServer::bind(store, server_config(), "127.0.0.1:0")
        .expect("storage server binds");
    let client = TcpStorageClient::connect(server.local_addr()).expect("client connects");
    let transport = Timed::outer(rec, "loader.fetch", Timed::child(rec, "fleet.node", client));
    let config = LoaderConfig {
        workers: 2,
        shuffle_seed: corpus.dataset_seed,
        ..LoaderConfig::new(corpus.dataset_seed, BATCH)
    };
    let loader = OffloadingLoader::new(transport, pipeline, plan.clone(), config)
        .expect("loader configures its session");
    Built { system: System { server, loader }, profiles, plan, profile_s, plan_s }
}

fn predict(_: &Corpus, profiles: &[SampleProfile], plan: &OffloadPlan) -> f64 {
    let works = plan.to_sample_works(profiles).expect("plan covers the profiles");
    let stats = simulate_epoch(&cluster_config(), &EpochSpec::new(works, BATCH, GPU))
        .expect("simulator runs the epoch");
    stats.samples as f64 / stats.epoch_seconds
}

/// The corpus size and the population it is drawn from.
pub fn corpus() -> (usize, DatasetSpec) {
    (SAMPLES, DatasetSpec::openimages_like(0, CORPUS_SEED))
}

pub fn run(opts: &Opts, m: &mut Metrics) {
    let (len, spec) = corpus();
    let mut inputs = Inputs::load(NAME, len, &spec);
    let wl = LoaderWorkload {
        batch_size: BATCH,
        step: Duration::from_secs_f64(GPU.seconds_per_batch(BATCH)),
        server: server_config(),
        nodes: 1,
        build,
        predict,
    };
    run_loader_workload(&wl, &mut inputs, opts, m);
}
