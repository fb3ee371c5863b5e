//! `in_fleet_cpubound`: an ImageNet-like corpus replicated over a 2-node
//! `MultiServerHarness` (replication 2, no hedging) on unthrottled
//! loopback, read through `FleetTransport` by a loader with two suffix
//! workers and no modelled GPU step.
//!
//! At this bandwidth the fleet plan offloads nothing, so every fetch is
//! raw: compute-side decode, the pipeline ops, the loader suffix and the
//! fleet scatter-gather do the work, and the executor prefix and the link
//! do none. It is the bypass case for the link-bound workload's
//! mechanisms, and the reverse.

use std::sync::Arc;
use std::time::Duration;

use cluster::{simulate_fleet_epoch, ClusterConfig, EpochSpec, GpuModel};
use datasets::DatasetSpec;
use fleet::{FleetTransport, ShardMap};
use netsim::Bandwidth;
use pipeline::SampleProfile;
use sophon::engine::PlanningContext;
use sophon::ext::sharding::{fleet_nodes, owner_lists, plan_for_fleet};
use sophon::loader::{LoaderConfig, OffloadingLoader};
use sophon::OffloadPlan;
use storage::{MultiServerHarness, ServerConfig};

use crate::drive::{run_loader_workload, Built, LoaderSystem, LoaderWorkload, FRAME_PREFIX};
use crate::inputs::{Corpus, Inputs, CORPUS_SEED};
use crate::trace::{Recorder, Timed};
use crate::{Metrics, Opts};

pub const NAME: &str = "in_fleet_cpubound";

const SAMPLES: usize = 384;
const BATCH: usize = 16;
const NODES: usize = 2;
const REPLICATION: usize = 2;
const CORES: usize = 2;
/// Loopback is not throttled in practice at this rate.
const LINK_GBPS: f64 = 40.0;
/// No modelled GPU step: the consumer only checks the batch.
const GPU: GpuModel = GpuModel::Custom { seconds_per_image: 1e-9 };

fn cluster_config() -> ClusterConfig {
    ClusterConfig::paper_testbed(CORES)
        .with_compute_cores(2)
        .with_bandwidth(Bandwidth::from_gbps(LINK_GBPS))
}

fn server_config() -> ServerConfig {
    ServerConfig {
        cores: CORES,
        bandwidth: Bandwidth::from_gbps(LINK_GBPS),
        ..ServerConfig::default()
    }
}

fn shard_map(corpus: &Corpus) -> ShardMap {
    ShardMap::new(NODES, REPLICATION, corpus.dataset_seed)
}

type Transport = Timed<FleetTransport>;

struct System {
    harness: MultiServerHarness,
    loader: OffloadingLoader<Transport>,
}

impl LoaderSystem for System {
    type Transport = Transport;

    fn loader(&mut self) -> &mut OffloadingLoader<Transport> {
        &mut self.loader
    }

    fn wire(&self) -> u64 {
        let total = self.harness.traffic_total();
        total.bytes + FRAME_PREFIX * total.messages
    }

    fn node_requests(&self) -> Vec<u64> {
        self.loader.transport().inner().stats().requests_per_node.clone()
    }

    fn retries(&self) -> u64 {
        let s = self.loader.transport().inner().stats();
        s.hedges_issued + s.failovers + s.breaker_reroutes
    }

    /// The harness does not expose its servers' tenant counters, so served
    /// requests are the fleet's own count and throttling shows as failed
    /// fetches instead.
    fn served_throttled(&self) -> (u64, u64) {
        (self.node_requests().iter().sum(), 0)
    }

    fn shutdown(self) {
        drop(self.loader);
        self.harness.shutdown();
    }
}

fn build(corpus: &Corpus, rec: &Arc<Recorder>) -> Built<System> {
    let pipeline = crate::pipeline();
    let store = corpus.store();
    let (profiles, profile_s) = rec.time("core.profile", || crate::profile(corpus, &pipeline));
    let config = cluster_config();
    let map = shard_map(corpus);
    let ctx = PlanningContext::new(&profiles, &pipeline, &config, GPU, BATCH);
    let (plan, plan_s) =
        rec.time("core.plan", || plan_for_fleet(&ctx, &map).expect("fleet plans").plan);
    let harness = MultiServerHarness::spawn(&store, NODES, server_config(), |id| map.owners(id))
        .expect("fleet binds");
    let clients = harness.clients().expect("fleet clients connect");
    let nodes = clients.into_iter().map(|c| Timed::child(rec, "fleet.node", c)).collect();
    let transport = Timed::outer(rec, "loader.fetch", FleetTransport::new(nodes, map, None));
    let config = LoaderConfig {
        workers: 2,
        shuffle_seed: corpus.dataset_seed,
        ..LoaderConfig::new(corpus.dataset_seed, BATCH)
    };
    let loader = OffloadingLoader::new(transport, pipeline, plan.clone(), config)
        .expect("loader configures its session");
    Built { system: System { harness, loader }, profiles, plan, profile_s, plan_s }
}

fn predict(corpus: &Corpus, profiles: &[SampleProfile], plan: &OffloadPlan) -> f64 {
    let config = cluster_config();
    let works = plan.to_sample_works(profiles).expect("plan covers the profiles");
    let owners = owner_lists(&shard_map(corpus), profiles.len());
    let stats = simulate_fleet_epoch(
        &config,
        &fleet_nodes(&config, NODES),
        &EpochSpec::new(works, BATCH, GPU),
        &owners,
        &[],
    )
    .expect("simulator runs the fleet epoch");
    stats.total.samples as f64 / stats.total.epoch_seconds
}

/// The corpus size and the population it is drawn from.
pub fn corpus() -> (usize, DatasetSpec) {
    (SAMPLES, DatasetSpec::imagenet_like(0, CORPUS_SEED))
}

pub fn run(opts: &Opts, m: &mut Metrics) {
    let (len, spec) = corpus();
    let mut inputs = Inputs::load(NAME, len, &spec);
    let wl = LoaderWorkload {
        batch_size: BATCH,
        step: Duration::ZERO,
        server: server_config(),
        nodes: NODES,
        build,
        predict,
    };
    run_loader_workload(&wl, &mut inputs, opts, m);
}
