//! Host fingerprint, roofline probes (STREAM triad, dense multiply-add)
//! and direct `reml_matrix` kernel probes at the `exec-xs` shape.

use std::hint::black_box;
use std::time::Instant;

use reml_matrix::generate::rand_dense;
use reml_matrix::Matrix;

/// Identifies the host and code a result came from. Results with
/// different fingerprints are never compared.
pub struct Fingerprint {
    pub git_sha: String,
    pub nproc: usize,
    pub cpu_model: String,
}

fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The checked-out commit, read from `.git` when the tree is a git
/// repository, `"unknown"` otherwise.
fn git_sha() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or_else(|| "unknown".into()),
            None => head,
        },
        None => "unknown".into(),
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

impl Fingerprint {
    pub fn collect() -> Self {
        Fingerprint {
            git_sha: git_sha(),
            nproc: nproc(),
            cpu_model: cpu_model(),
        }
    }
}

/// Peak resident memory of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Best of `reps` timings of `f`, seconds.
fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// STREAM triad `a = b + s*c` on all cores, GB/s (24 bytes per element).
/// Each repetition makes several passes so that both threads run long
/// enough to be spread over the cores.
pub fn triad_gbps() -> f64 {
    const N: usize = 1 << 22;
    const PASSES: usize = 8;
    let threads = nproc();
    let chunk = N.div_ceil(threads);
    let b = vec![1.0f64; N];
    let c = vec![2.0f64; N];
    let mut a = vec![0.0f64; N];
    let secs = best_of(5, || {
        std::thread::scope(|s| {
            for ((a, b), c) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                s.spawn(move || {
                    for _ in 0..PASSES {
                        for ((a, &b), &c) in a.iter_mut().zip(b).zip(c) {
                            *a = b + 3.0 * c;
                        }
                        black_box(&mut *a);
                    }
                });
            }
        });
    });
    (24 * N * PASSES) as f64 / secs / 1e9
}

/// Independent multiply-add chains on all cores, GFLOP/s (2 flops per
/// multiply-add). Sixteen accumulators give the vectorizer full lanes.
pub fn fma_gflops() -> f64 {
    const ITERS: usize = 40_000_000;
    const LANES: usize = 16;
    let threads = nproc();
    let secs = best_of(5, || {
        std::thread::scope(|s| {
            for t in 0..threads {
                s.spawn(move || {
                    let mut acc = [1.0 + t as f64 * 1e-3; LANES];
                    let m = black_box(0.999_999_9);
                    let add = black_box(1e-7);
                    for _ in 0..ITERS {
                        for v in acc.iter_mut() {
                            *v = *v * m + add;
                        }
                    }
                    black_box(acc);
                });
            }
        });
    });
    2.0 * (LANES * ITERS * threads) as f64 / secs / 1e9
}

/// Achieved rates of the kernels the `exec-xs` plans spend their time in.
pub struct KernelRates {
    /// `t(X) %*% X` on a 10⁴×10³ dense matrix (LinregDS's TSMM), GFLOP/s.
    pub tsmm_gflops: f64,
    /// `t(Xw) %*% X` at GLM's `exec-xs` shape (10³×2,500 by 2,500×10³),
    /// GFLOP/s.
    pub matmult_gflops: f64,
    /// `t(X) %*% v` on a 10⁴×10³ matrix, GB/s of `X` read once.
    pub tmv_gbps: f64,
}

pub fn kernel_rates(seed: u64) -> KernelRates {
    let (rows, cols, glm_rows) = (10_000usize, 1_000usize, 2_500usize);
    let x = Matrix::Dense(rand_dense(rows, cols, -1.0, 1.0, seed));
    let v = Matrix::Dense(rand_dense(rows, 1, -1.0, 1.0, seed ^ 1));
    let tsmm_s = best_of(2, || {
        black_box(black_box(&x).tsmm());
    });
    let tmv_s = best_of(5, || {
        black_box(
            black_box(&x)
                .transpose()
                .matmult(&v)
                .expect("shapes conform"),
        );
    });
    drop(x);
    let a = Matrix::Dense(rand_dense(cols, glm_rows, -1.0, 1.0, seed ^ 2));
    let b = Matrix::Dense(rand_dense(glm_rows, cols, -1.0, 1.0, seed ^ 3));
    let matmult_s = best_of(2, || {
        black_box(black_box(&a).matmult(&b).expect("shapes conform"));
    });
    let (m, n) = (rows as f64, cols as f64);
    KernelRates {
        // Upper triangle only: m * n(n+1)/2 multiply-adds.
        tsmm_gflops: 2.0 * m * n * (n + 1.0) / 2.0 / tsmm_s / 1e9,
        matmult_gflops: 2.0 * n * glm_rows as f64 * n / matmult_s / 1e9,
        tmv_gbps: 8.0 * m * n / tmv_s / 1e9,
    }
}

/// Time the host takes for [`reference_s`] in its usual state, measured
/// on the development host (2-core Xeon VM): the speed that normalized
/// timings are expressed at.
pub const REFERENCE_NOMINAL_S: f64 = 7.0e-4;

/// Median of three [`reference_s`] calls: one reference block.
pub fn reference_block() -> f64 {
    let mut v = [reference_s(), reference_s(), reference_s()];
    v.sort_by(f64::total_cmp);
    v[1]
}

/// `wall` seconds at the nominal host speed, given the reference blocks
/// taken just before and just after them.
pub fn at_nominal_speed(wall: f64, before: f64, after: f64) -> f64 {
    wall * 2.0 * REFERENCE_NOMINAL_S / (before + after)
}

/// Fixed benchmark-side CPU work, independent of the code under test:
/// string formatting, sorting, hashing and ordered-map traffic like a
/// compiler front end's. Returns its wall time, seconds. Other tenants of
/// a shared host slow it by the same factor as the jobs, so the median of
/// its samples during a window measures the host's speed in that window.
fn reference_s() -> f64 {
    use std::collections::{BTreeMap, HashMap};
    let t0 = Instant::now();
    let mut words: Vec<String> = (0..1500u64)
        .map(|i| format!("v{}_{i}", crate::stats::mix(i, 3, 5) % 9973))
        .collect();
    words.sort();
    let mut map: HashMap<&str, usize> = HashMap::new();
    for (i, w) in words.iter().enumerate() {
        *map.entry(w.as_str()).or_insert(0) += i;
    }
    let mut tree = BTreeMap::new();
    for i in 0..1500u64 {
        tree.insert(crate::stats::mix(i, 1, 1), i);
    }
    let s: u64 = tree.range(..u64::MAX / 2).map(|(_, v)| *v).sum();
    let mut acc = 0.0f64;
    for (i, w) in words.iter().enumerate() {
        acc += (w.len() * i) as f64 * 0.5;
    }
    black_box((map.len(), s, acc));
    t0.elapsed().as_secs_f64()
}
