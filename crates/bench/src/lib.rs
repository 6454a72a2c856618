//! # eslurm-bench
//!
//! The experiment harness: one binary per table/figure of the paper's
//! evaluation (see `DESIGN.md` §3 for the index), plus Criterion
//! micro-benchmarks. Every binary accepts `--quick` (reduced scale, for CI
//! and smoke runs) and `--seed <n>`, prints aligned text tables, and drops
//! CSV series under `results/`.

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
