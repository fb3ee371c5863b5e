//! End-to-end and per-layer benchmark of the live SOPHON stack.
//!
//! Drives `ObjectStore` → `TcpStorageServer` → `TcpStorageClient` /
//! `FleetTransport` → `OffloadingLoader` → a consumer modelling the GPU
//! step, through public APIs only, and checks every delivered output.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload oi_sophon_linkbound --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! workload untraced and then traced, and prints the per-layer metrics.
//! The last line of standard output is one JSON object. The command exits
//! non-zero when any output is wrong or any fetch failed. `--workload all`
//! runs the three workloads one after another.

mod drive;
mod fleet;
mod host;
mod inputs;
mod layers;
mod linkbound;
mod serving;
mod trace;

use std::fmt::Write as _;
use std::io::Write as _;
use std::process::ExitCode;
use std::sync::Arc;

use bytes::Bytes;
use pipeline::{CostModel, PipelineSpec, SampleKey, SampleProfile, StageData};

use crate::inputs::Corpus;
use crate::trace::Recorder;

/// Command-line options, as the benchmark contract passes them.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut opts = Opts { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => opts.workload = value.clone(),
                "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => opts.seconds = value.parse().map_err(|e| bad(&e))?,
                "--trace" => opts.trace = value != "0",
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !opts.seconds.is_finite() || opts.seconds <= 0.0 {
            return Err("--seconds must be positive".to_string());
        }
        Ok(opts)
    }
}

#[derive(Debug, Clone)]
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Metrics {
    e2e: Vec<Metric>,
    layers: Vec<Metric>,
    /// Samples the run asked the system for.
    pub attempted: u64,
    /// Samples whose fetch failed or whose output differed from the
    /// reference.
    pub failed: u64,
    recorders: Vec<Arc<Recorder>>,
}

impl Metrics {
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.e2e.push(Metric { name, value, unit });
    }

    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.layers.push(Metric { name, value, unit });
    }

    /// Keeps `rec` so its spans are written out at exit.
    pub fn keep_spans(&mut self, rec: &Arc<Recorder>) {
        self.recorders.push(Arc::clone(rec));
    }

    fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// The training pipeline every workload configures.
pub fn pipeline() -> PipelineSpec {
    PipelineSpec::standard_train()
}

/// Stage-2 profiles of the stored bytes, one sample after another, as the
/// live profiler measures them (epoch 0, no offloading).
pub fn profile(corpus: &Corpus, pipeline: &PipelineSpec) -> Vec<SampleProfile> {
    let model = CostModel::realistic();
    corpus
        .objects
        .iter()
        .enumerate()
        .map(|(id, o): (usize, &Bytes)| {
            let key = SampleKey::new(corpus.dataset_seed, id as u64, 0);
            SampleProfile::measure(pipeline, StageData::Encoded(o.clone()), key, &model)
                .expect("stored sample profiles")
        })
        .collect()
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn json(m: &Metrics, metrics: &[Metric]) -> String {
    let mut out = String::new();
    let correct = m.failed == 0 && m.attempted > 0;
    let _ = write!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        m.attempted, m.failed
    );
    for (i, metric) in metrics.iter().enumerate() {
        assert!(metric.value.is_finite(), "{} is not finite", metric.name);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            metric.name, metric.value, metric.unit
        );
    }
    out.push_str("}}");
    out
}

fn write_spans(opts: &Opts, m: &Metrics) -> std::io::Result<()> {
    std::fs::create_dir_all(".bench_out")?;
    let path = format!(".bench_out/spans-{}-{}.csv", opts.workload, opts.seed);
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(out, "thread,span,name,start_ns,end_ns,parent,batch")?;
    for (t, rec) in m.recorders.iter().enumerate() {
        rec.write_csv(&mut out, t)?;
    }
    out.flush()?;
    println!("spans: {path}");
    Ok(())
}

const WORKLOADS: [&str; 3] = [linkbound::NAME, fleet::NAME, serving::NAME];

/// Runs every workload, each in a process of its own so that none sees
/// another's memory, with the same flags; fails when any of them does.
fn run_all(args: &[String]) -> ExitCode {
    let exe = std::env::current_exe().expect("benchmark binary has a path");
    let mut ok = true;
    for workload in WORKLOADS {
        let mut child_args = args.to_vec();
        let flag = child_args.iter().position(|a| a == "--workload").expect("workload flag");
        child_args[flag + 1] = workload.to_string();
        let status =
            std::process::Command::new(&exe).args(&child_args).status().expect("workload starts");
        ok &= status.success();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Each workload's corpus size and population, by workload name.
fn corpus_of(workload: &str) -> Option<(usize, datasets::DatasetSpec)> {
    match workload {
        linkbound::NAME => Some(linkbound::corpus()),
        fleet::NAME => Some(fleet::corpus()),
        serving::NAME => Some(serving::corpus()),
        _ => None,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The input builder runs in a child process; see `Inputs::load`.
    if let [flag, workload] = &args[..] {
        if flag == "--build-inputs" {
            let (len, spec) = corpus_of(workload).expect("input builder names a workload");
            inputs::build(workload, len, &spec);
            return ExitCode::SUCCESS;
        }
    }
    let opts = match Opts::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut m = Metrics::default();
    match opts.workload.as_str() {
        linkbound::NAME => linkbound::run(&opts, &mut m),
        fleet::NAME => fleet::run(&opts, &mut m),
        serving::NAME => serving::run(&opts, &mut m),
        "all" => return run_all(&args),
        other => {
            eprintln!(
                "perfbench: unknown workload {other:?} (expected one of {WORKLOADS:?} or all)"
            );
            return ExitCode::from(2);
        }
    }
    println!("{}", host::fingerprint());
    println!(
        "workload={} seed={} seconds={} trace={}",
        opts.workload, opts.seed, opts.seconds, opts.trace as u8
    );
    let shown: Vec<Metric> = if opts.trace { m.layers.clone() } else { m.e2e.clone() };
    for metric in &shown {
        println!("{:<48} {:>16.4} {}", metric.name, metric.value, metric.unit);
    }
    println!(
        "{:<48} {:>16.4} fraction ({} of {} samples)",
        "error_rate",
        m.error_rate(),
        m.failed,
        m.attempted
    );
    if opts.trace {
        if let Err(e) = write_spans(&opts, &m) {
            eprintln!("perfbench: writing spans failed: {e}");
        }
    }
    println!("{}", json(&m, &shown));
    if m.failed == 0 && m.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
