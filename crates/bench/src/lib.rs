//! # eslurm-bench
//!
//! The experiment harness: one binary per table/figure of the paper's
//! evaluation (see `DESIGN.md` §3 for the index), plus Criterion
//! micro-benchmarks. Every binary accepts `--quick` (reduced scale, for CI
//! and smoke runs) and `--seed <n>`, prints aligned text tables, and drops
//! CSV series under `results/`.

use emu::NodeId;
use eslurm::EslurmSystem;
use rand::RngExt;
use simclock::rng::{exponential, stream_rng};
use simclock::{SimSpan, SimTime};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Command-line arguments shared by all experiment binaries.
#[derive(Clone, Debug)]
pub struct ExpArgs {
    /// Reduced-scale run.
    pub quick: bool,
    /// Master seed.
    pub seed: u64,
    /// Arm the wall-clock engine profiler (binaries that drive the DES
    /// report sync overhead and load imbalance when set).
    pub profile: bool,
    /// Arm the tagged tracking allocator (binaries that drive the DES
    /// report per-tag heap peaks and allocations-per-event when set;
    /// needs a binary built with `--features mem-profile` to measure).
    pub mem: bool,
}

impl ExpArgs {
    /// Parse from `std::env::args` (`--quick`, `--seed <n>`, `--profile`,
    /// `--mem`).
    pub fn parse() -> Self {
        let mut args = ExpArgs {
            quick: false,
            seed: 42,
            profile: false,
            mem: false,
        };
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            match a.as_str() {
                "--quick" => args.quick = true,
                "--profile" => args.profile = true,
                "--mem" => args.mem = true,
                "--seed" => {
                    args.seed = match it.next().and_then(|v| v.parse().ok()) {
                        Some(s) => s,
                        None => {
                            eprintln!("--seed needs an integer; try --help");
                            std::process::exit(2);
                        }
                    };
                }
                "--help" | "-h" => {
                    eprintln!(
                        "options: --quick (reduced scale), --seed <n>, \
                         --profile (wall-clock engine profiler), \
                         --mem (tagged heap profiler)"
                    );
                    std::process::exit(0);
                }
                other => {
                    eprintln!("unknown option {other}; try --help");
                    std::process::exit(2);
                }
            }
        }
        args
    }

    /// Pick `full` normally, `quick` under `--quick`.
    pub fn scale<T>(&self, full: T, quick: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }
}

/// The output directory for CSV series (created on demand).
pub fn results_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Write a CSV file under `results/`.
pub fn write_csv(name: &str, header: &[&str], rows: &[Vec<String>]) {
    let mut out = String::new();
    let _ = writeln!(out, "{}", header.join(","));
    for row in rows {
        let _ = writeln!(out, "{}", row.join(","));
    }
    let path = results_dir().join(name);
    std::fs::write(&path, out).expect("write csv");
    println!("  [csv] {}", path.display());
}

/// Print an aligned text table.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title}");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (w, c) in widths.iter().zip(cells) {
            let _ = write!(s, "{c:>w$}  ", w = w);
        }
        s
    };
    println!(
        "{}",
        line(&header.iter().map(|h| h.to_string()).collect::<Vec<_>>())
    );
    for row in rows {
        println!("{}", line(row));
    }
}

/// Format a float with the given precision.
pub fn f(v: f64, prec: usize) -> String {
    format!("{v:.prec$}")
}

/// Stable 64-bit FNV-1a over a byte stream, folded into `h` (fingerprints
/// must not depend on the process' hash seeds). Start a fresh hash from
/// the FNV offset basis `0xcbf2_9ce4_8422_2325`.
pub fn fnv64(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The fig9-shaped ESlurm job stream, submitted to `sys` over `horizon`:
/// exponential inter-arrivals at `rate_per_s`, power-law node counts of at
/// most `max_job` on a contiguous slave range, and exponential runtimes of
/// mean `mean_runtime` with a 5 s floor. Job ids count up from `first_id`;
/// the random draws come from stream `0x10B5` of `seed`. Returns the
/// number of jobs submitted.
pub fn eslurm_job_stream(
    sys: &mut EslurmSystem,
    horizon: SimSpan,
    rate_per_s: f64,
    max_job: u32,
    mean_runtime: SimSpan,
    first_id: u64,
    seed: u64,
) -> u64 {
    let n = sys.n_slaves as u32;
    let max_exp = (max_job.min(n) as f64).log2();
    let mut rng = stream_rng(seed, 0x10B5);
    let mut t = 0.0f64;
    let mut jobs = 0u64;
    let mut idxs: Vec<usize> = Vec::new();
    loop {
        t += exponential(&mut rng, rate_per_s);
        if t >= horizon.as_secs_f64() {
            return jobs;
        }
        let count = 2f64.powf(rng.random::<f64>() * max_exp).round().max(1.0) as u32;
        let start = rng.random_range(0..n - count.min(n - 1));
        idxs.clear();
        idxs.extend((start..start + count).map(|i| i as usize));
        let runtime = SimSpan::from_secs_f64(
            exponential(&mut rng, 1.0 / mean_runtime.as_secs_f64()).max(5.0),
        );
        sys.submit(SimTime::from_secs_f64(t), first_id + jobs, &idxs, runtime);
        jobs += 1;
    }
}

/// Outcome fingerprint of an ESlurm run: the clock, event count, drops,
/// every job record, and the master and satellite meters — what the
/// paper's figures read.
pub fn eslurm_fingerprint(sys: &EslurmSystem) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    h = fnv64(&sys.sim.now().as_micros().to_le_bytes(), h);
    h = fnv64(&sys.sim.events_processed().to_le_bytes(), h);
    h = fnv64(&sys.sim.dropped_messages().to_le_bytes(), h);
    for r in &sys.master().records {
        h = fnv64(format!("{r:?}").as_bytes(), h);
    }
    for i in 0..=sys.n_satellites {
        let m = sys.sim.meter(NodeId(i as u32));
        h = fnv64(
            format!(
                "{:?}|{:?}|{}|{}|{:?}",
                m.cpu_time(),
                m.msg_counts(),
                m.sockets(),
                m.peak_sockets(),
                m.peak_mem()
            )
            .as_bytes(),
            h,
        );
    }
    h
}

/// Format a byte count as MiB/GiB.
pub fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{:.1} GiB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.1} MiB", b as f64 / (1u64 << 20) as f64)
    } else {
        format!("{:.1} KiB", b as f64 / 1024.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_picks_by_mode() {
        let a = ExpArgs {
            quick: true,
            seed: 1,
            profile: false,
            mem: false,
        };
        assert_eq!(a.scale(100, 10), 10);
        let b = ExpArgs {
            quick: false,
            seed: 1,
            profile: false,
            mem: false,
        };
        assert_eq!(b.scale(100, 10), 100);
    }

    #[test]
    fn fnv64_matches_the_reference_vectors() {
        let basis = 0xcbf2_9ce4_8422_2325u64;
        assert_eq!(fnv64(b"", basis), basis);
        assert_eq!(fnv64(b"a", basis), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"bar", fnv64(b"foo", basis)), fnv64(b"foobar", basis));
    }

    #[test]
    fn bytes_format() {
        assert_eq!(fmt_bytes(2048), "2.0 KiB");
        assert_eq!(fmt_bytes(3 << 20), "3.0 MiB");
        assert_eq!(fmt_bytes(5 << 30), "5.0 GiB");
    }
}
