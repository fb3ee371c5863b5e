//! Input generation: each workload's corpus and the no-offload reference
//! digests its outputs are checked against.
//!
//! Each workload stores one fixed corpus; the seed chooses the request
//! stream over it (sample order, batch make-up and the epochs that key the
//! random augmentations), so runs on different seeds differ in what they
//! ask for but not in what is stored. Rendering and encoding a sample costs
//! up to ~80 ms, so the corpus is built once per (workload, benchmark
//! build) and the reference digests once per (epoch, sample), both cached
//! under `.bench_cache/` in the working directory. Building inputs is never
//! part of a timed figure.

use std::collections::{HashMap, HashSet};
use std::fs;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::PathBuf;
use std::process::Command;

use bytes::Bytes;
use datasets::DatasetSpec;
use pipeline::{PipelineSpec, SampleKey, StageData};
use storage::ObjectStore;

/// The dataset seed of every corpus.
pub const CORPUS_SEED: u64 = 2024;

/// Candidates per stratum: object `k` of a corpus is the median-size
/// record of the `k`-th of `len` equal strata of a `len * STRATA` record
/// pool sorted by size, so a small corpus follows the population's size
/// distribution closely.
const STRATA: u64 = 64;

/// Worker threads for input generation (the host has two cores).
const BUILD_THREADS: usize = 2;

/// A corpus: object `i` is the encoded bytes of sample `i`.
#[derive(Debug)]
pub struct Corpus {
    pub dataset_seed: u64,
    pub objects: Vec<Bytes>,
}

impl Corpus {
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// A fresh server-side copy of the corpus.
    pub fn store(&self) -> ObjectStore {
        ObjectStore::from_objects(
            self.objects.iter().enumerate().map(|(i, b)| (i as u64, Bytes::copy_from_slice(b))),
        )
    }

    pub fn smallest(&self) -> u64 {
        (0..self.objects.len()).min_by_key(|&i| self.objects[i].len()).unwrap_or(0) as u64
    }
}

/// A workload's inputs, with its on-disk cache.
#[derive(Debug)]
pub struct Inputs {
    dir: PathBuf,
    pub corpus: Corpus,
    refs: HashMap<(u64, u64), u64>,
}

impl Inputs {
    /// Loads the cached inputs for `workload`, first building them in a
    /// child process when absent, so that rendering never shows in this
    /// process's memory or time. `spec` is the population the corpus is
    /// drawn from.
    pub fn load(workload: &str, len: usize, spec: &DatasetSpec) -> Inputs {
        let dir = cache_dir(workload);
        let objects = match read_objects(&dir.join("objects.bin")) {
            Some(objects) if objects.len() == len => objects,
            _ => {
                let exe = std::env::current_exe().expect("benchmark binary has a path");
                let status = Command::new(exe)
                    .args(["--build-inputs", workload])
                    .status()
                    .expect("input builder starts");
                assert!(status.success(), "input builder failed: {status}");
                read_objects(&dir.join("objects.bin")).expect("input builder wrote the corpus")
            }
        };
        let refs = read_refs(&dir.join("refs.txt"));
        Inputs { dir, corpus: Corpus { dataset_seed: spec.seed, objects }, refs }
    }

    /// The reference digest of every `(epoch, sample)` in `keys`: the
    /// digest of `pipeline.run` over the stored bytes, computed on first
    /// use and cached.
    pub fn references(&mut self, pipeline: &PipelineSpec, keys: &[(u64, u64)]) -> Vec<u64> {
        let missing: Vec<(u64, u64)> = keys
            .iter()
            .copied()
            .filter(|k| !self.refs.contains_key(k))
            .collect::<HashSet<_>>()
            .into_iter()
            .collect();
        if !missing.is_empty() {
            let computed = parallel_map(&missing, |&(epoch, id)| {
                let data = StageData::Encoded(self.corpus.objects[id as usize].clone());
                let key = SampleKey::new(self.corpus.dataset_seed, id, epoch);
                let out = pipeline.run(data, key).expect("reference pipeline runs");
                digest_f32(out.as_tensor().expect("pipeline ends in a tensor").as_slice())
            });
            let mut file = fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(self.dir.join("refs.txt"))
                .expect("reference cache is writable");
            for (&(epoch, id), &d) in missing.iter().zip(&computed) {
                writeln!(file, "{epoch} {id} {d:016x}").expect("reference cache is writable");
                self.refs.insert((epoch, id), d);
            }
        }
        keys.iter().map(|k| self.refs[k]).collect()
    }
}

/// Builds `workload`'s corpus and writes it to the cache.
pub fn build(workload: &str, len: usize, spec: &DatasetSpec) {
    let dir = cache_dir(workload);
    let objects = build_objects(spec, len as u64);
    fs::create_dir_all(&dir).expect("cache directory is creatable");
    write_objects(&dir.join("objects.bin"), &objects);
}

fn cache_dir(workload: &str) -> PathBuf {
    PathBuf::from(".bench_cache").join(build_id()).join(workload)
}

/// A fast 64-bit digest of a tensor's exact bit pattern.
pub fn digest_f32(data: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ data.len() as u64;
    let mut pairs = data.chunks_exact(2);
    for p in &mut pairs {
        let w = u64::from(p[0].to_bits()) | (u64::from(p[1].to_bits()) << 32);
        h = (h ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29);
    }
    for x in pairs.remainder() {
        h = (h ^ u64::from(x.to_bits())).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29);
    }
    h
}

/// Maps `f` over `items` on [`BUILD_THREADS`] threads, keeping order.
pub fn parallel_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..BUILD_THREADS)
            .map(|t| {
                let f = &f;
                s.spawn(move || {
                    (t..items.len())
                        .step_by(BUILD_THREADS)
                        .map(|i| (i, f(&items[i])))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("input worker does not panic") {
                out[i] = Some(r);
            }
        }
    });
    out.into_iter().map(|r| r.expect("every item mapped")).collect()
}

/// Draws `len` samples from `spec`, one per size stratum, and encodes them.
fn build_objects(spec: &DatasetSpec, len: u64) -> Vec<Bytes> {
    let mut pool = spec.clone();
    pool.len = len * STRATA;
    let mut by_size: Vec<(u64, u64)> = pool.records().map(|r| (r.encoded_bytes, r.id)).collect();
    by_size.sort_unstable();
    let ids: Vec<u64> = (0..len).map(|k| by_size[(k * STRATA + STRATA / 2) as usize].1).collect();
    parallel_map(&ids, |&id| Bytes::from(pool.materialize(id)))
}

/// Identifies the running benchmark build, so a rebuilt program never
/// reuses inputs or references made by another build.
fn build_id() -> String {
    let exe = std::env::current_exe().and_then(fs::read).expect("benchmark binary is readable");
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for chunk in exe.chunks(8) {
        let mut w = [0u8; 8];
        w[..chunk.len()].copy_from_slice(chunk);
        h = (h ^ u64::from_le_bytes(w)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

fn read_objects(path: &PathBuf) -> Option<Vec<Bytes>> {
    let mut buf = Vec::new();
    fs::File::open(path).ok()?.read_to_end(&mut buf).ok()?;
    let mut objects = Vec::new();
    let mut rest = &buf[..];
    while !rest.is_empty() {
        let len = u32::from_le_bytes(rest.get(..4)?.try_into().ok()?) as usize;
        objects.push(Bytes::copy_from_slice(rest.get(4..4 + len)?));
        rest = &rest[4 + len..];
    }
    Some(objects)
}

fn write_objects(path: &PathBuf, objects: &[Bytes]) {
    let tmp = path.with_extension("tmp");
    let mut out = Vec::new();
    for o in objects {
        out.extend_from_slice(&(o.len() as u32).to_le_bytes());
        out.extend_from_slice(o);
    }
    fs::write(&tmp, out).expect("cache file is writable");
    fs::rename(&tmp, path).expect("cache file is writable");
}

fn read_refs(path: &PathBuf) -> HashMap<(u64, u64), u64> {
    let Ok(file) = fs::File::open(path) else {
        return HashMap::new();
    };
    BufReader::new(file)
        .lines()
        .map_while(Result::ok)
        .filter_map(|line| {
            let mut it = line.split_whitespace();
            let epoch = it.next()?.parse().ok()?;
            let id = it.next()?.parse().ok()?;
            // A line cut short by an interrupted run is skipped, not misread.
            let digest = it.next().filter(|d| d.len() == 16)?;
            let digest = u64::from_str_radix(digest, 16).ok()?;
            Some(((epoch, id), digest))
        })
        .collect()
}
