//! The offloading data loader — the downstream-facing API.
//!
//! [`OffloadingLoader`] is what a training loop actually consumes: it wraps
//! a storage connection (any [`storage::FetchTransport`]: a TCP client or
//! a decorator stacked on one), an [`OffloadPlan`], and the preprocessing
//! pipeline, and yields collated NCHW [`TensorBatch`]es per epoch:
//!
//! 1. shuffles the sample order deterministically per epoch;
//! 2. the *issue stage*, on the caller's thread, asks the replan hook for a
//!    replacement plan and then issues the batch's fetches in one pipelined
//!    burst, attaching every sample's offload split (and optional
//!    re-compression directive) from the plan;
//! 3. the *delivery stage*, on one scoped thread, restores request order,
//!    unpacks re-compressed payloads, finishes the pipeline suffix locally on
//!    the suffix workers, collates, and hands each batch to the consumer in
//!    batch order.
//!
//! The transport never leaves the caller's thread, so it need not be
//! `Send`; the consumer callback runs on the delivery thread, so it must be.
//! A window of `PREFETCH_WINDOW` (2) batches gates the issue stage with the
//! stage-graph simulator's semantics (`cluster::sim`): the fetch of batch
//! `b` never starts before batch `b - 2` has been consumed. The link thus
//! carries batch `b + 1` while the suffix and the consumer's step run on
//! batch `b`.
//!
//! Augmentations remain keyed by `(dataset seed, sample, epoch)`, so the
//! batches are bit-identical to what an un-offloaded loader would produce —
//! the property `tests/end_to_end.rs` checks across the live stack.

use std::sync::mpsc::{self, Receiver, Sender};

use pipeline::batch::TensorBatch;
use pipeline::{PipelineSpec, SampleKey, SplitPoint, StageData};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use storage::{ClientError, FetchRequest, FetchResponse, FetchTransport};

use crate::OffloadPlan;

/// Batches the issue stage may run ahead of consumption: the fetch of batch
/// `b` waits until batch `b - PREFETCH_WINDOW` has been consumed. 1 would be
/// the batch-synchronous loop (the next fetch waits for the last consume);
/// 2 is the smallest window that overlaps the fetch of the next batch with
/// the suffix and step of the current one, which keeps a link-bound epoch's
/// link busy. A deeper window only holds more fetched batches in memory.
const PREFETCH_WINDOW: usize = 2;

/// Loader configuration.
#[derive(Debug, Clone)]
pub struct LoaderConfig {
    /// Dataset seed (keys augmentation streams; must match the server's
    /// session).
    pub dataset_seed: u64,
    /// Training batch size.
    pub batch_size: usize,
    /// Shuffle seed; the per-epoch order is derived from `(shuffle_seed,
    /// epoch)`.
    pub shuffle_seed: u64,
    /// When set, every offloaded image-stage transfer is re-encoded at this
    /// quality (the selective-compression extension).
    pub reencode_quality: Option<u8>,
    /// When set, raw (un-offloaded) fetches carry this fidelity cap: a
    /// server holding tiered encodings serves the tier prefix instead of
    /// the full stream (the brownout extension). Advisory for classic
    /// stores, which serve whole objects. `None` — the default — keeps
    /// every request byte-identical to a fidelity-unaware loader.
    pub max_tier: Option<u8>,
    /// Worker threads for the local pipeline suffix (1 = run inline).
    pub workers: usize,
}

impl LoaderConfig {
    /// A loader with the given dataset seed and batch size, no shuffling
    /// salt beyond the default, no re-compression, and two suffix workers.
    pub fn new(dataset_seed: u64, batch_size: usize) -> LoaderConfig {
        LoaderConfig {
            dataset_seed,
            batch_size,
            shuffle_seed: 0,
            reencode_quality: None,
            max_tier: None,
            workers: 2,
        }
    }
}

/// Errors from the loader.
#[derive(Debug)]
#[non_exhaustive]
pub enum LoaderError {
    /// The configured batch size is zero.
    ZeroBatchSize,
    /// The storage connection failed.
    Client(ClientError),
    /// A re-compressed payload failed to decode.
    Codec(codec::CodecError),
    /// The pipeline suffix failed.
    Pipeline(pipeline::PipelineError),
    /// Batch collation failed.
    Collate(pipeline::CollateError),
    /// The transport reported success but a requested sample is missing
    /// from its responses (a protocol violation, not a transient fault).
    MissingSample(u64),
    /// A replacement plan swapped in mid-epoch covers a different corpus
    /// size than the one it replaces.
    ReplanMismatch {
        /// Samples the active plan covers.
        expected: usize,
        /// Samples the replacement covers.
        got: usize,
    },
}

impl std::fmt::Display for LoaderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoaderError::ZeroBatchSize => write!(f, "batch size must be positive"),
            LoaderError::Client(e) => write!(f, "storage fetch failed: {e}"),
            LoaderError::Codec(e) => write!(f, "transfer decompress failed: {e}"),
            LoaderError::Pipeline(e) => write!(f, "pipeline suffix failed: {e}"),
            LoaderError::Collate(e) => write!(f, "collate failed: {e}"),
            LoaderError::MissingSample(id) => {
                write!(f, "transport omitted sample {id} from a successful batch")
            }
            LoaderError::ReplanMismatch { expected, got } => {
                write!(f, "replacement plan covers {got} samples, epoch has {expected}")
            }
        }
    }
}

impl std::error::Error for LoaderError {}

/// A data loader that fetches through a storage transport with per-sample
/// offloading.
#[derive(Debug)]
pub struct OffloadingLoader<T> {
    transport: T,
    pipeline: PipelineSpec,
    plan: OffloadPlan,
    config: LoaderConfig,
}

impl<T: FetchTransport> OffloadingLoader<T> {
    /// Configures the session on `transport` and builds the loader.
    ///
    /// # Errors
    ///
    /// [`LoaderError::ZeroBatchSize`] when `config.batch_size` is zero;
    /// otherwise propagates session-configuration failures.
    pub fn new(
        mut transport: T,
        pipeline: PipelineSpec,
        plan: OffloadPlan,
        config: LoaderConfig,
    ) -> Result<Self, LoaderError> {
        if config.batch_size == 0 {
            return Err(LoaderError::ZeroBatchSize);
        }
        transport.configure(config.dataset_seed, pipeline.clone()).map_err(LoaderError::Client)?;
        Ok(OffloadingLoader { transport, pipeline, plan, config })
    }

    /// The plan driving the offload directives.
    pub fn plan(&self) -> &OffloadPlan {
        &self.plan
    }

    /// The fidelity cap currently attached to raw fetches.
    pub fn max_tier(&self) -> Option<u8> {
        self.config.max_tier
    }

    /// Sets (or clears) the fidelity cap for subsequent raw fetches — the
    /// brownout controller's live actuator. Takes effect from the next
    /// batch; `None` restores full fidelity.
    pub fn set_max_tier(&mut self, cap: Option<u8>) {
        self.config.max_tier = cap;
    }

    /// The underlying transport (e.g. to read cache or retry counters off
    /// a decorated transport after an epoch).
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Mutable access to the underlying transport (e.g. to attach cache
    /// admission hints between epochs).
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    /// The deterministic sample order for `epoch` (Fisher–Yates over all
    /// plan-covered samples).
    pub fn epoch_order(&self, epoch: u64) -> Vec<u64> {
        let mut ids: Vec<u64> = (0..self.plan.len() as u64).collect();
        let mut rng = StdRng::seed_from_u64(
            self.config.shuffle_seed ^ epoch.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
        for i in (1..ids.len()).rev() {
            let j = rng.gen_range(0..=i);
            ids.swap(i, j);
        }
        ids
    }

    /// Runs one epoch, invoking `consume` with every collated batch in
    /// order. Returns the number of batches delivered.
    ///
    /// `consume` runs on the loader's delivery thread while the caller's
    /// thread fetches ahead, hence the `Send` bound.
    ///
    /// # Errors
    ///
    /// Stops at the first failing batch: every batch before it is consumed,
    /// none after it.
    pub fn run_epoch<F>(&mut self, epoch: u64, consume: F) -> Result<usize, LoaderError>
    where
        F: FnMut(TensorBatch) + Send,
    {
        self.run_epoch_with_replan(epoch, consume, |_| None)
    }

    /// [`OffloadingLoader::run_epoch`] with mid-epoch replanning:
    /// `replan(batch_index)` is called once per batch, in increasing order,
    /// when the batch is issued, and may hand back a replacement
    /// [`OffloadPlan`] that takes effect from that batch on (and stays the
    /// loader's plan afterwards). This is the degraded-mode hook — when a
    /// node's breaker opens partway through an epoch, the runtime swaps in
    /// a [`crate::ext::degraded::plan_degraded`] plan and the remaining
    /// batches route their offloads around the sick node.
    ///
    /// As in `cluster::stagegraph::run_stage_graph_adaptive`, a replan
    /// affects only batches not yet issued, and issue runs up to the
    /// prefetch window (2 batches) ahead of consumption: when `replan(b)`
    /// is called, batch `b - 1` may still be in the delivery stage, not yet
    /// consumed.
    ///
    /// Splits only choose *where* preprocessing runs, never *what* it
    /// computes, so a mid-epoch swap keeps batches bit-identical to an
    /// unswapped run.
    ///
    /// # Errors
    ///
    /// Stops at the first failing batch, after consuming every batch before
    /// it and none after it; a replacement plan of the wrong length is
    /// [`LoaderError::ReplanMismatch`].
    pub fn run_epoch_with_replan<F, R>(
        &mut self,
        epoch: u64,
        consume: F,
        replan: R,
    ) -> Result<usize, LoaderError>
    where
        F: FnMut(TensorBatch) + Send,
        R: FnMut(usize) -> Option<OffloadPlan>,
    {
        let order = self.epoch_order(epoch);
        let suffix = Suffix {
            pipeline: self.pipeline.clone(),
            dataset_seed: self.config.dataset_seed,
            epoch,
            workers: self.config.workers,
        };
        let (fetched_tx, fetched_rx) = mpsc::channel();
        let (consumed_tx, consumed_rx) = mpsc::channel();
        std::thread::scope(|scope| {
            let delivery = scope.spawn(move || suffix.deliver(fetched_rx, consumed_tx, consume));
            let issued = self.issue(epoch, &order, replan, fetched_tx, consumed_rx);
            let delivered =
                delivery.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic))?;
            // Only fetched batches reach delivery, so a delivery error is
            // always for an earlier batch than an issue error.
            issued.map(|()| delivered)
        })
    }

    /// The issue stage: fetches each batch of `order` under the prefetch
    /// gate and sends it to the delivery stage. Stops quietly when the
    /// delivery stage has stopped, which then reports why.
    fn issue<'o, R>(
        &mut self,
        epoch: u64,
        order: &'o [u64],
        mut replan: R,
        fetched: Sender<(&'o [u64], Vec<FetchResponse>)>,
        consumed: Receiver<()>,
    ) -> Result<(), LoaderError>
    where
        R: FnMut(usize) -> Option<OffloadPlan>,
    {
        let mut done = 0usize;
        for (b, chunk) in order.chunks(self.config.batch_size).enumerate() {
            // The gate: wait until batch `b - PREFETCH_WINDOW` is consumed.
            while done + PREFETCH_WINDOW <= b {
                if consumed.recv().is_err() {
                    return Ok(());
                }
                done += 1;
            }
            if let Some(next_plan) = replan(b) {
                if next_plan.len() != self.plan.len() {
                    return Err(LoaderError::ReplanMismatch {
                        expected: self.plan.len(),
                        got: next_plan.len(),
                    });
                }
                self.plan = next_plan;
            }
            let requests: Vec<FetchRequest> =
                chunk.iter().map(|&id| self.request(id, epoch)).collect();
            let responses =
                self.transport.fetch_many_requests(&requests).map_err(LoaderError::Client)?;
            if fetched.send((chunk, responses)).is_err() {
                return Ok(());
            }
        }
        Ok(())
    }

    /// The fetch request for sample `id` under the current plan.
    fn request(&self, id: u64, epoch: u64) -> FetchRequest {
        let split = self.plan.split(id as usize);
        let mut req = FetchRequest::new(id, epoch, split);
        // Only raw serves have tier boundaries to truncate at; leaving
        // offloaded requests untouched keeps their wire frames bit-identical
        // to a fidelity-unaware loader.
        if let Some(cap) = self.config.max_tier {
            if split == SplitPoint::NONE {
                req = req.with_max_tier(cap);
            }
        }
        // Re-compression only applies to stages the modality's codec can
        // shrink (raster-image transfers).
        if let Some(q) = self.config.reencode_quality {
            if split.is_offloaded()
                && pipeline::Modality::stage_supports_reencode(
                    &self.pipeline,
                    split.offloaded_ops(),
                )
            {
                req = req.with_reencode(q);
            }
        }
        req
    }
}

/// What the delivery stage needs to finish a batch: the loader's read-only
/// state for one epoch, never the transport.
struct Suffix {
    pipeline: PipelineSpec,
    dataset_seed: u64,
    epoch: u64,
    workers: usize,
}

impl Suffix {
    /// The delivery stage: finishes and consumes fetched batches in issue
    /// order, acknowledging each to the issue stage's gate. Returns the
    /// number consumed; on error it returns at once, which closes both
    /// channels and so stops the issue stage.
    fn deliver<F>(
        self,
        fetched: Receiver<(&[u64], Vec<FetchResponse>)>,
        consumed: Sender<()>,
        mut consume: F,
    ) -> Result<usize, LoaderError>
    where
        F: FnMut(TensorBatch),
    {
        let mut batches = 0usize;
        for (chunk, responses) in fetched {
            // Server workers answer out of order; restore request order so
            // batches are deterministic regardless of server parallelism.
            let mut by_id: std::collections::HashMap<u64, FetchResponse> =
                responses.into_iter().map(|r| (r.sample_id, r)).collect();
            let responses: Vec<FetchResponse> = chunk
                .iter()
                .map(|id| by_id.remove(id).ok_or(LoaderError::MissingSample(*id)))
                .collect::<Result<_, _>>()?;
            let tensors = self.finish(responses)?;
            consume(TensorBatch::collate(&tensors).map_err(LoaderError::Collate)?);
            batches += 1;
            // The issue stage may have finished and stopped listening.
            let _ = consumed.send(());
        }
        Ok(batches)
    }

    /// Runs the pipeline suffix for one response.
    fn finish_one(&self, resp: FetchResponse) -> Result<StageData, LoaderError> {
        let split = SplitPoint::new(resp.ops_applied as usize);
        let sample_id = resp.sample_id;
        let data = resp.unpack().map_err(LoaderError::Codec)?;
        let key = SampleKey::new(self.dataset_seed, sample_id, self.epoch);
        self.pipeline.run_suffix(data, split, key).map_err(LoaderError::Pipeline)
    }

    /// Runs the pipeline suffix for a batch's responses, order-preserving,
    /// using up to `workers` threads (suffix execution is pure, so
    /// parallelism never affects results).
    fn finish(&self, responses: Vec<FetchResponse>) -> Result<Vec<StageData>, LoaderError> {
        let workers = self.workers.max(1).min(responses.len().max(1));
        if workers <= 1 {
            return responses.into_iter().map(|r| self.finish_one(r)).collect();
        }

        let mut slots: Vec<Option<Result<StageData, LoaderError>>> =
            (0..responses.len()).map(|_| None).collect();
        let jobs: Vec<(usize, FetchResponse)> = responses.into_iter().enumerate().collect();
        let next = std::sync::atomic::AtomicUsize::new(0);
        run_suffixes_parallel(&jobs, &next, workers, &|r| self.finish_one(r), &mut slots);
        slots.into_iter().map(|s| s.expect("every slot filled by a worker")).collect()
    }
}

/// Scoped work-stealing over `jobs`: workers claim indices from `next`,
/// results are collected with their slot index and scattered afterwards so
/// order is preserved regardless of completion order.
fn run_suffixes_parallel<F>(
    jobs: &[(usize, FetchResponse)],
    next: &std::sync::atomic::AtomicUsize,
    workers: usize,
    finish_one: &F,
    slots: &mut [Option<Result<StageData, LoaderError>>],
) where
    F: Fn(FetchResponse) -> Result<StageData, LoaderError> + Sync,
{
    use std::sync::Mutex;
    // Collect (index, result) pairs from workers, then scatter into slots.
    let collected: Mutex<Vec<(usize, Result<StageData, LoaderError>)>> =
        Mutex::new(Vec::with_capacity(jobs.len()));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some((slot, resp)) = jobs.get(i) else {
                    return;
                };
                let result = finish_one(resp.clone());
                collected.lock().expect("no panics hold the lock").push((*slot, result));
            });
        }
    });
    for (slot, result) in collected.into_inner().expect("scope joined") {
        slots[slot] = Some(result);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::Bandwidth;
    use storage::{ObjectStore, ServerConfig, TcpStorageClient, TcpStorageServer};

    const N: u64 = 10;

    fn serve(store: ObjectStore) -> TcpStorageServer {
        let config = ServerConfig {
            cores: 3,
            bandwidth: Bandwidth::from_gbps(10.0),
            ..ServerConfig::default()
        };
        TcpStorageServer::bind(store, config, "127.0.0.1:0").unwrap()
    }

    fn client(server: &TcpStorageServer) -> TcpStorageClient {
        TcpStorageClient::connect(server.local_addr()).unwrap()
    }

    fn live_parts() -> (datasets::DatasetSpec, ObjectStore, TcpStorageServer) {
        let ds = datasets::DatasetSpec::mini(N, 55);
        let store = ObjectStore::materialize_dataset(&ds, 0..N);
        let server = serve(store.clone());
        (ds, store, server)
    }

    fn make_plan(ds: &datasets::DatasetSpec) -> OffloadPlan {
        let pipeline = PipelineSpec::standard_train();
        let model = pipeline::CostModel::realistic();
        OffloadPlan::from_splits(
            ds.records().map(|r| r.analytic_profile(&pipeline, &model).best_split()).collect(),
        )
    }

    /// Serves every request raw from an in-memory store and records what it
    /// was asked for. Optionally announces each call as it begins, fails one
    /// call, or corrupts one call's payloads.
    #[derive(Debug)]
    struct Stub {
        store: ObjectStore,
        calls: usize,
        splits: Vec<Vec<SplitPoint>>,
        started: Option<mpsc::Sender<usize>>,
        fail_at: Option<usize>,
        corrupt_at: Option<usize>,
    }

    impl Stub {
        fn new(store: ObjectStore) -> Stub {
            Stub {
                store,
                calls: 0,
                splits: Vec::new(),
                started: None,
                fail_at: None,
                corrupt_at: None,
            }
        }
    }

    impl FetchTransport for Stub {
        fn configure(&mut self, _: u64, _: PipelineSpec) -> Result<(), ClientError> {
            Ok(())
        }

        fn fetch_many_requests(
            &mut self,
            requests: &[FetchRequest],
        ) -> Result<Vec<FetchResponse>, ClientError> {
            let call = self.calls;
            self.calls += 1;
            if let Some(started) = &self.started {
                let _ = started.send(call);
            }
            self.splits.push(requests.iter().map(|r| r.split).collect());
            if self.fail_at == Some(call) {
                return Err(ClientError::Disconnected);
            }
            let corrupt = self.corrupt_at == Some(call);
            Ok(requests
                .iter()
                .map(|r| {
                    let bytes = self.store.get(r.sample_id).expect("stub serves stored samples");
                    // A payload marked as server-processed must decode; a
                    // truncated stream cannot.
                    let (ops_applied, data) =
                        if corrupt { (1, bytes.slice(0..8)) } else { (0, bytes) };
                    FetchResponse {
                        sample_id: r.sample_id,
                        ops_applied,
                        data: StageData::Encoded(data),
                        tier: None,
                    }
                })
                .collect())
        }
    }

    fn stub_loader(
        ds: &datasets::DatasetSpec,
        plan: OffloadPlan,
        batch_size: usize,
    ) -> OffloadingLoader<Stub> {
        let stub = Stub::new(ObjectStore::materialize_dataset(ds, 0..N));
        OffloadingLoader::new(
            stub,
            PipelineSpec::standard_train(),
            plan,
            LoaderConfig::new(ds.seed, batch_size),
        )
        .unwrap()
    }

    /// The un-offloaded reference tensor of each sample in `ids`.
    fn reference(ds: &datasets::DatasetSpec, ids: &[u64], epoch: u64) -> Vec<Vec<f32>> {
        let store = ObjectStore::materialize_dataset(ds, 0..N);
        let pipeline = PipelineSpec::standard_train();
        ids.iter()
            .map(|&id| {
                let data = StageData::Encoded(store.get(id).unwrap());
                let out = pipeline.run(data, SampleKey::new(ds.seed, id, epoch)).unwrap();
                out.as_tensor().unwrap().as_slice().to_vec()
            })
            .collect()
    }

    #[test]
    fn zero_batch_size_is_an_error() {
        let ds = datasets::DatasetSpec::mini(N, 55);
        let stub = Stub::new(ObjectStore::materialize_dataset(&ds, 0..N));
        let err = OffloadingLoader::new(
            stub,
            PipelineSpec::standard_train(),
            OffloadPlan::none(N as usize),
            LoaderConfig::new(ds.seed, 0),
        )
        .unwrap_err();
        assert!(matches!(err, LoaderError::ZeroBatchSize));
    }

    #[test]
    fn next_fetch_begins_while_a_batch_is_consumed() {
        let ds = datasets::DatasetSpec::mini(N, 55);
        let mut loader = stub_loader(&ds, OffloadPlan::none(N as usize), 2);
        let (started_tx, started) = mpsc::channel();
        loader.transport_mut().started = Some(started_tx);
        let batches = (N as usize).div_ceil(2);
        let mut b = 0usize;
        let delivered = loader
            .run_epoch(0, move |_| {
                if b + 1 < batches {
                    // Signals arrive in call order; skip those of batches
                    // already consumed.
                    loop {
                        let call = started
                            .recv_timeout(std::time::Duration::from_secs(5))
                            .unwrap_or_else(|_| {
                                panic!(
                                    "the fetch of batch {} never began during consume({b})",
                                    b + 1
                                )
                            });
                        if call == b + 1 {
                            break;
                        }
                    }
                }
                b += 1;
            })
            .unwrap();
        assert_eq!(delivered, batches);
    }

    #[test]
    fn failed_fetch_delivers_every_earlier_batch_and_no_later_one() {
        let ds = datasets::DatasetSpec::mini(N, 55);
        let epoch = 4u64;
        for k in 0..5usize {
            let mut loader = stub_loader(&ds, make_plan(&ds), 2);
            loader.transport_mut().fail_at = Some(k);
            let order = loader.epoch_order(epoch);
            let mut got: Vec<Vec<Vec<f32>>> = Vec::new();
            let err = loader
                .run_epoch(epoch, |batch| {
                    got.push((0..batch.len()).map(|i| batch.sample(i).to_vec()).collect());
                })
                .unwrap_err();
            assert!(matches!(err, LoaderError::Client(ClientError::Disconnected)), "{err}");
            assert_eq!(got.len(), k, "batches before the failing fetch, and only those");
            for (b, batch) in got.iter().enumerate() {
                let ids = &order[b * 2..b * 2 + 2];
                assert_eq!(batch, &reference(&ds, ids, epoch), "batch {b} diverged");
            }
            assert_eq!(loader.transport().calls, k + 1, "no fetch after the failing one");
        }
    }

    #[test]
    fn corrupt_payload_stops_the_issue_stage() {
        let ds = datasets::DatasetSpec::mini(N, 55);
        let k = 1usize;
        let mut loader = stub_loader(&ds, OffloadPlan::none(N as usize), 2);
        loader.transport_mut().corrupt_at = Some(k);
        let mut consumed = 0usize;
        let err = loader.run_epoch(0, |_| consumed += 1).unwrap_err();
        assert!(matches!(err, LoaderError::Codec(_)), "{err}");
        assert_eq!(consumed, k);
        let calls = loader.transport().calls;
        assert!(calls <= k + PREFETCH_WINDOW, "issue ran {calls} fetches past the failed batch");
        assert!(calls < (N as usize).div_ceil(2), "the epoch's remaining fetches never ran");
    }

    #[test]
    fn replan_is_called_once_per_batch_and_applies_from_its_batch() {
        let ds = datasets::DatasetSpec::mini(N, 55);
        let k = 2usize;
        let offloaded = SplitPoint::new(2);
        let plan = OffloadPlan::from_splits(vec![offloaded; N as usize]);
        let mut loader = stub_loader(&ds, plan, 2);
        let mut calls = Vec::new();
        let batches = loader
            .run_epoch_with_replan(
                0,
                |_| {},
                |b| {
                    calls.push(b);
                    (b == k).then(|| OffloadPlan::none(N as usize))
                },
            )
            .unwrap();
        assert_eq!(calls, (0..batches).collect::<Vec<_>>());
        let splits = &loader.transport().splits;
        assert_eq!(splits.len(), batches);
        for (b, batch) in splits.iter().enumerate() {
            let want = if b < k { offloaded } else { SplitPoint::NONE };
            assert!(batch.iter().all(|&s| s == want), "batch {b} carried {batch:?}");
        }
        assert_eq!(loader.plan().split(0), SplitPoint::NONE, "the swapped plan stays");
    }

    #[test]
    fn epoch_yields_all_batches_shuffled() {
        let (ds, _store, server) = live_parts();
        let plan = make_plan(&ds);
        let mut loader = OffloadingLoader::new(
            client(&server),
            PipelineSpec::standard_train(),
            plan,
            LoaderConfig::new(ds.seed, 4),
        )
        .unwrap();
        let mut shapes = Vec::new();
        let batches = loader.run_epoch(0, |b| shapes.push((b.len(), b.shape()))).unwrap();
        assert_eq!(batches, 3); // 10 samples in batches of 4: 4+4+2
        assert_eq!(shapes, vec![(4, (224, 224)), (4, (224, 224)), (2, (224, 224))]);
        // Order differs between epochs but covers the same ids.
        let e0 = loader.epoch_order(0);
        let e1 = loader.epoch_order(1);
        assert_ne!(e0, e1);
        let mut s0 = e0.clone();
        s0.sort_unstable();
        assert_eq!(s0, (0..N).collect::<Vec<_>>());
        server.shutdown();
    }

    #[test]
    fn loader_batches_match_local_preprocessing() {
        // The decisive property: the loader's tensors are identical to pure
        // local preprocessing of the same samples in the same epoch.
        let (ds, store, server) = live_parts();
        let plan = make_plan(&ds);
        let pipeline = PipelineSpec::standard_train();
        let epoch = 3u64;
        let mut loader = OffloadingLoader::new(
            client(&server),
            pipeline.clone(),
            plan,
            LoaderConfig::new(ds.seed, 5),
        )
        .unwrap();
        let order = loader.epoch_order(epoch);
        let mut collected: Vec<TensorBatch> = Vec::new();
        loader.run_epoch(epoch, |b| collected.push(b)).unwrap();

        let mut idx = 0usize;
        for batch in &collected {
            for i in 0..batch.len() {
                let id = order[idx];
                idx += 1;
                let local = pipeline
                    .run(
                        StageData::Encoded(store.get(id).unwrap()),
                        SampleKey::new(ds.seed, id, epoch),
                    )
                    .unwrap();
                assert_eq!(
                    batch.sample(i),
                    local.as_tensor().unwrap().as_slice(),
                    "sample {id} diverged"
                );
            }
        }
        server.shutdown();
    }

    #[test]
    fn mid_epoch_replan_keeps_batches_bit_identical() {
        // Swapping the plan between batches changes only *where* prefixes
        // run; the tensors must not move by a single bit.
        let (ds, _store, server) = live_parts();
        let plan = make_plan(&ds);
        let run = |client: TcpStorageClient,
                   replan: &mut dyn FnMut(usize) -> Option<OffloadPlan>| {
            let mut loader = OffloadingLoader::new(
                client,
                PipelineSpec::standard_train(),
                plan.clone(),
                LoaderConfig::new(ds.seed, 4),
            )
            .unwrap();
            let mut out: Vec<Vec<f32>> = Vec::new();
            loader.run_epoch_with_replan(2, |b| out.push(b.as_slice().to_vec()), replan).unwrap();
            out
        };
        let steady = run(client(&server), &mut |_| None);
        // Degraded-mode analogue: from batch 1 on, stop offloading.
        let raw_from_batch_1 =
            run(client(&server), &mut |batch| (batch == 1).then(|| OffloadPlan::none(N as usize)));
        assert_eq!(steady, raw_from_batch_1, "replan changed batch contents");
        server.shutdown();
    }

    #[test]
    fn replan_of_the_wrong_length_is_rejected() {
        let (ds, _store, server) = live_parts();
        let plan = make_plan(&ds);
        let mut loader = OffloadingLoader::new(
            client(&server),
            PipelineSpec::standard_train(),
            plan,
            LoaderConfig::new(ds.seed, 4),
        )
        .unwrap();
        let err =
            loader.run_epoch_with_replan(0, |_| {}, |_| Some(OffloadPlan::none(3))).unwrap_err();
        assert!(matches!(err, LoaderError::ReplanMismatch { expected, got: 3 }
            if expected == N as usize));
        server.shutdown();
    }

    #[test]
    fn worker_count_does_not_change_batches() {
        let (ds, _store, server) = live_parts();
        let plan = make_plan(&ds);
        let run_with = |workers: usize, client: TcpStorageClient| {
            let mut config = LoaderConfig::new(ds.seed, 5);
            config.workers = workers;
            let mut loader =
                OffloadingLoader::new(client, PipelineSpec::standard_train(), plan.clone(), config)
                    .unwrap();
            let mut out: Vec<Vec<f32>> = Vec::new();
            loader.run_epoch(1, |b| out.push(b.as_slice().to_vec())).unwrap();
            out
        };
        let serial = run_with(1, client(&server));
        let parallel = run_with(4, client(&server));
        assert_eq!(serial, parallel, "worker count changed batch contents");
        server.shutdown();
    }

    #[test]
    fn fidelity_cap_browns_out_raw_fetches_deterministically() {
        // A tiered store served under a fidelity cap: batches keep their
        // shapes, differ from the full-fidelity run (fewer coefficients
        // reached the decoder), and reproduce exactly across reruns.
        let ds = datasets::DatasetSpec::mini(N, 55);
        let run = |cap: Option<u8>| {
            let server = serve(ObjectStore::materialize_dataset_tiered(
                &ds,
                0..N,
                &codec::TierSpec::default(),
            ));
            let mut config = LoaderConfig::new(ds.seed, 4);
            config.max_tier = cap;
            let mut loader = OffloadingLoader::new(
                client(&server),
                PipelineSpec::standard_train(),
                OffloadPlan::none(N as usize),
                config,
            )
            .unwrap();
            let mut out: Vec<Vec<f32>> = Vec::new();
            loader
                .run_epoch(0, |b| {
                    assert_eq!(b.shape(), (224, 224));
                    out.push(b.as_slice().to_vec());
                })
                .unwrap();
            server.shutdown();
            out
        };
        let full = run(None);
        let browned = run(Some(0));
        let browned_again = run(Some(0));
        assert_eq!(browned, browned_again, "browned batches must be reproducible");
        assert_ne!(full, browned, "a tier-0 cap must actually shed fidelity");
        assert_eq!(full.len(), browned.len(), "brownout never drops batches");
    }

    #[test]
    fn compression_directive_preserves_shapes() {
        let (ds, _store, server) = live_parts();
        let plan = make_plan(&ds);
        let mut config = LoaderConfig::new(ds.seed, 4);
        config.reencode_quality = Some(85);
        let mut loader =
            OffloadingLoader::new(client(&server), PipelineSpec::standard_train(), plan, config)
                .unwrap();
        let mut total = 0usize;
        loader
            .run_epoch(0, |b| {
                assert_eq!(b.shape(), (224, 224));
                total += b.len();
            })
            .unwrap();
        assert_eq!(total, N as usize);
        server.shutdown();
    }
}
