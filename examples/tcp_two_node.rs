//! Two-node demo over **real TCP sockets**: a storage server bound to
//! 127.0.0.1 executes offloaded preprocessing prefixes; this process is the
//! compute node, fetching over the loopback with a 40 Mbps token-bucket cap
//! and finishing the pipeline locally.
//!
//! ```sh
//! cargo run --release --example tcp_two_node
//! ```

use std::time::Instant;

use cluster::{ClusterConfig, GpuModel};
use datasets::DatasetSpec;
use netsim::Bandwidth;
use pipeline::{CostModel, PipelineSpec, SampleKey, SplitPoint};
use sophon::engine::PlanningContext;
use sophon::prelude::*;
use storage::{ObjectStore, ServerConfig, TcpStorageClient, TcpStorageServer};

const SAMPLES: u64 = 32;

fn run_epoch(
    ds: &DatasetSpec,
    plan: &OffloadPlan,
    label: &str,
) -> Result<(f64, u64), Box<dyn std::error::Error>> {
    let pipeline = PipelineSpec::standard_train();
    let store = ObjectStore::materialize_dataset(ds, 0..SAMPLES);
    let server = TcpStorageServer::bind(
        store,
        ServerConfig { cores: 4, bandwidth: Bandwidth::from_mbps(40.0), ..ServerConfig::default() },
        "127.0.0.1:0",
    )?;
    let mut client = TcpStorageClient::connect(server.local_addr())?;
    client.configure(ds.seed, pipeline.clone())?;

    let start = Instant::now();
    let requests: Vec<_> = (0..SAMPLES).map(|id| (id, 0u64, plan.split(id as usize))).collect();
    let responses = client.fetch_many(&requests)?;
    for resp in responses {
        let split = SplitPoint::new(resp.ops_applied as usize);
        let key = SampleKey::new(ds.seed, resp.sample_id, 0);
        let _tensor = pipeline.run_suffix(resp.data, split, key)?;
    }
    let elapsed = start.elapsed().as_secs_f64();
    let wire = server.response_bytes();
    println!("{label:<8} wall {elapsed:>6.2}s   wire {:>8.2} MB", wire as f64 / 1e6);
    server.shutdown();
    Ok((elapsed, wire))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ds = DatasetSpec::mini(SAMPLES, 404);
    println!("materializing {SAMPLES} samples...");

    let pipeline = PipelineSpec::standard_train();
    let model = CostModel::realistic();
    let profiles = sophon::profiler::stage2::profile_corpus_live(&ds, &pipeline, &model, 0)?;
    let config = ClusterConfig::paper_testbed(4).with_bandwidth(Bandwidth::from_mbps(40.0));
    let ctx = PlanningContext::new(&profiles, &pipeline, &config, GpuModel::AlexNet, 8);
    let plan = SophonPolicy::without_stage1_gate().plan(&ctx)?;
    println!("SOPHON offloads {} of {SAMPLES} samples over TCP\n", plan.offloaded_samples());

    let (t_none, wire_none) = run_epoch(&ds, &OffloadPlan::none(SAMPLES as usize), "no-off")?;
    let (t_sophon, wire_sophon) = run_epoch(&ds, &plan, "sophon")?;
    println!(
        "\nover real sockets: {:.2}x fewer bytes, {:.2}x faster",
        wire_none as f64 / wire_sophon as f64,
        t_none / t_sophon
    );
    Ok(())
}
