//! Per-layer figures measured outside the live run: replays of single
//! layers on the workload's own requests and corpus, and small probes of
//! an idle server.

use std::time::{Duration, Instant};

use pipeline::batch::TensorBatch;
use pipeline::{AugmentRng, PipelineSpec, SampleKey, SplitPoint, StageData};
use storage::wire::{crc32, decode_response_framed, encode_response_into};
use storage::{
    FetchRequest, NearStorageExecutor, Response, ServerConfig, SessionConfig, TcpStorageClient,
    TcpStorageServer,
};

use crate::host;
use crate::inputs::Corpus;
use crate::trace::percentile;
use crate::Metrics;

/// Samples replayed per layer; enough for a stable mean, few enough to
/// keep the traced run short on the costliest corpus.
const REPLAY_SAMPLES: usize = 64;

/// Replays the executor, the wire codec and CRC on `requests`, and the
/// codec and each pipeline op on the corpus, adding their figures to `m`.
/// Returns the executor and the wire encode + decode time per request, in
/// microseconds.
pub fn replay(
    m: &mut Metrics,
    corpus: &Corpus,
    pipeline: &PipelineSpec,
    requests: &[FetchRequest],
    batch_size: usize,
) -> (f64, f64) {
    let requests = &requests[..requests.len().min(REPLAY_SAMPLES)];
    let n = requests.len() as f64;
    let executor = NearStorageExecutor::new(
        corpus.store(),
        SessionConfig { dataset_seed: corpus.dataset_seed, pipeline: pipeline.clone() },
    );
    let t = Instant::now();
    let responses: Vec<Response> = requests
        .iter()
        .map(|r| Response::Data(executor.execute(*r).expect("replayed request executes")))
        .collect();
    let exec_us = t.elapsed().as_secs_f64() * 1e6 / n;

    let mut frames: Vec<Vec<u8>> = vec![Vec::new(); responses.len()];
    let t = Instant::now();
    for (i, (resp, out)) in responses.iter().zip(frames.iter_mut()).enumerate() {
        encode_response_into(i as u32, resp, out);
    }
    let encode_us = t.elapsed().as_secs_f64() * 1e6 / n;
    let t = Instant::now();
    for frame in &frames {
        std::hint::black_box(decode_response_framed(frame).expect("replayed frame decodes"));
    }
    let decode_us = t.elapsed().as_secs_f64() * 1e6 / n;
    let bytes: usize = frames.iter().map(Vec::len).sum();
    let t = Instant::now();
    for frame in &frames {
        std::hint::black_box(crc32(frame));
    }
    let crc_mb_s = bytes as f64 / 1e6 / t.elapsed().as_secs_f64().max(1e-9);
    m.layer("storage.executor_us_per_req", exec_us, "us");
    m.layer("storage.wire_encode_us_per_req", encode_us, "us");
    m.layer("storage.wire_decode_us_per_req", decode_us, "us");
    m.layer("storage.crc_mb_per_s", crc_mb_s, "MB/s");

    let objects = &corpus.objects[..corpus.len().min(REPLAY_SAMPLES)];
    let t = Instant::now();
    for o in objects {
        std::hint::black_box(codec::decode(o).expect("stored object decodes"));
    }
    m.layer(
        "codec.decode_us_per_sample",
        t.elapsed().as_secs_f64() * 1e6 / objects.len() as f64,
        "us",
    );

    let mut op_ns = vec![0u128; pipeline.len()];
    let mut tensors = Vec::with_capacity(objects.len());
    for (id, o) in objects.iter().enumerate() {
        let key = SampleKey::new(corpus.dataset_seed, id as u64, 0);
        let mut data = StageData::Encoded(o.clone());
        for (idx, op) in pipeline.ops().iter().enumerate() {
            let mut rng = AugmentRng::for_op(key, idx);
            let t = Instant::now();
            data = op.apply(data, &mut rng).expect("pipeline op applies");
            op_ns[idx] += t.elapsed().as_nanos();
        }
        tensors.push(data);
    }
    for (op, ns) in pipeline.ops().iter().zip(&op_ns) {
        let name = match op.name() {
            "decode" => "pipeline.decode_us_per_sample",
            "random_resized_crop" => "pipeline.random_resized_crop_us_per_sample",
            "random_horizontal_flip" => "pipeline.random_horizontal_flip_us_per_sample",
            "to_tensor" => "pipeline.to_tensor_us_per_sample",
            "normalize" => "pipeline.normalize_us_per_sample",
            other => panic!("benchmark pipeline has an unexpected op {other}"),
        };
        m.layer(name, *ns as f64 / 1e3 / objects.len() as f64, "us");
    }
    let batches: Vec<&[StageData]> = tensors.chunks_exact(batch_size).collect();
    let t = Instant::now();
    for b in &batches {
        std::hint::black_box(TensorBatch::collate(b).expect("replayed batch collates"));
    }
    let collate_us = t.elapsed().as_secs_f64() * 1e6 / batches.len().max(1) as f64;
    m.layer("pipeline.collate_us_per_batch", collate_us, "us");
    (exec_us, encode_us + decode_us)
}

/// Median round trip of one-at-a-time raw fetches of the smallest object
/// on an otherwise idle server.
pub fn rtt_serial_p50_us(corpus: &Corpus, config: ServerConfig, pipeline: &PipelineSpec) -> f64 {
    const FETCHES: usize = 200;
    let server =
        TcpStorageServer::bind(corpus.store(), config, "127.0.0.1:0").expect("probe server binds");
    let mut client = TcpStorageClient::connect(server.local_addr()).expect("probe connects");
    client.configure(corpus.dataset_seed, pipeline.clone()).expect("probe configures");
    let req = FetchRequest::new(corpus.smallest(), 0, SplitPoint::NONE);
    let mut rtts = Vec::with_capacity(FETCHES);
    for i in 0..FETCHES + 20 {
        let t = Instant::now();
        let resp = client.fetch_request(req).expect("probe fetch succeeds");
        if i >= 20 {
            rtts.push(t.elapsed().as_secs_f64() * 1e6);
        }
        let StageData::Encoded(bytes) = resp.data else { panic!("raw fetch returns bytes") };
        assert_eq!(bytes, corpus.objects[req.sample_id as usize], "probe fetch is exact");
    }
    drop(client);
    server.shutdown();
    percentile(&rtts, 50.0).expect("probe has enough fetches")
}

/// Process CPU, in percent of one core, over one second in which the
/// caller's servers sit bound and idle.
pub fn idle_cpu_pct() -> f64 {
    std::thread::sleep(Duration::from_millis(100));
    let cpu0 = host::cpu_seconds();
    let t = Instant::now();
    std::thread::sleep(Duration::from_secs(1));
    (host::cpu_seconds() - cpu0) / t.elapsed().as_secs_f64() * 100.0
}
