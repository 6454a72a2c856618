//! `rmbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Repeats one workload, each repetition generating its inputs from the
//! seed, until `--seconds` have passed (at least `MIN_REPS` times), then
//! prints fingerprints, a provenance record and, as the last line, one
//! JSON object with the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics of the traced pass (`--trace 1`). The full record — provenance,
//! every repetition, and for traced runs the span aggregates and sampled
//! spans — is written to `out/` beside this package's manifest.

use rmbench::check::Checks;
use rmbench::workloads::{Rep, Scale, Workload};
use rmbench::{END_TO_END, PER_LAYER};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

/// Repetitions per run at the least, so every reported time is a median.
const MIN_REPS: usize = 3;
/// Set-ups measured per untraced run at the least; set-up is cheap next to
/// a repetition, so extra set-ups (built, then dropped unrun) make up the
/// difference and steady the `setup_s` median.
const MIN_SETUPS: usize = 9;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Pin glibc's mmap threshold at its initial 128 KiB. Left dynamic, the
/// threshold rises after the first large free, and later repetitions then
/// reuse retained heap pages and set up up to twice as fast as the first —
/// by how much depended on the order of frees, not on the code measured.
/// Pinned, every repetition allocates as a fresh process does.
fn pin_malloc_threshold() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        const M_MMAP_THRESHOLD: i32 = -3;
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        // SAFETY: `mallopt` only changes glibc's allocation tuning and
        // takes plain integers; it runs before any other thread exists.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 128 * 1024);
        }
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// `(rev, dirty)` of the repository holding this package, or `None` when
/// the sources are not a git checkout (git is then not run at all).
fn git_state(root: &Path) -> Option<(String, bool)> {
    if !root.join(".git").exists() {
        return None;
    }
    let git = |args: &[&str]| -> Option<String> {
        let out = Command::new("git")
            .arg("-C")
            .arg(root)
            .args(args)
            .env("GIT_CEILING_DIRECTORIES", root.parent().unwrap_or(root))
            .output()
            .ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    let rev = git(&["rev-parse", "HEAD"])?;
    let dirty = !git(&["status", "--porcelain", "--untracked-files=no"])?.is_empty();
    Some((rev, dirty))
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn metrics_json(metrics: &[(&str, &str, f64)]) -> String {
    let mut s = String::from("{");
    for (i, (name, unit, v)) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(*v)
        );
    }
    s.push('}');
    s
}

fn provenance_json(args: &Args, root: &Path) -> String {
    let (rev, dirty) = match git_state(root) {
        Some((rev, dirty)) => (format!("\"{rev}\""), dirty.to_string()),
        None => ("null".into(), "null".into()),
    };
    let host_parallelism = std::thread::available_parallelism().map_or(1, |p| p.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let features = if obs::mem_profile_compiled() {
        "[\"mem-profile\"]"
    } else {
        "[]"
    };
    format!(
        "{{\"git_rev\": {rev}, \"git_dirty\": {dirty}, \"workload\": \"{}\", \"seed\": {}, \
         \"seconds\": {}, \"traced\": {}, \"host_parallelism\": {host_parallelism}, \
         \"build_profile\": \"{profile}\", \"features\": {features}, \
         \"mem_profile_compiled\": {}}}",
        args.workload.name(),
        args.seed,
        json_num(args.seconds),
        args.trace,
        obs::mem_profile_compiled()
    )
}

fn reps_json(reps: &[Rep]) -> String {
    let rows: Vec<String> = reps
        .iter()
        .map(|r| {
            format!(
                "{{\"setup_s\": {}, \"run_s\": {}, \"events\": {}, \"jobs\": {}, \
                 \"fingerprint\": \"{:016x}\", \"traced\": {}}}",
                json_num(r.setup_s),
                json_num(r.run_s),
                r.events,
                r.jobs,
                r.fingerprint,
                r.trace_json.is_some()
            )
        })
        .collect();
    format!("[{}]", rows.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rmbench: {e}");
            return ExitCode::from(2);
        }
    };
    pin_malloc_threshold();
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let w = args.workload;
    let start = Instant::now();

    // Untraced repetitions; a traced run interleaves traced ones.
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let mut serial_ref: Option<Rep> = None;
    // The first repetition's peak: it alone runs on the fresh heap of a
    // process of its own. Later repetitions inherit a fragmented heap whose
    // resident size drifted by up to 40 % from one run to the next.
    let mut first_rep_rss = None;
    loop {
        plain.push(w.run(args.seed, Scale::Full, false));
        if plain.len() == 1 {
            first_rep_rss = peak_rss_mb();
        }
        if args.trace {
            if serial_ref.is_none() {
                serial_ref = w.serial_reference(args.seed, Scale::Full);
            }
            traced.push(w.run(args.seed, Scale::Full, true));
        }
        let enough = plain.len() >= MIN_REPS || (args.trace && !traced.is_empty());
        if enough && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }

    let mut setups: Vec<f64> = plain.iter().map(|r| r.setup_s).collect();
    if !args.trace {
        while setups.len() < MIN_SETUPS {
            setups.push(w.setup_only(args.seed, Scale::Full));
        }
    }

    // Correctness: each repetition's own invariants, identical outcomes
    // across repetitions, traced = untraced, and sharded = serial.
    let mut checks = Checks::default();
    let reference = plain[0].fingerprint;
    for r in plain.iter().chain(&traced).chain(&serial_ref) {
        checks.merge(r.checks.clone());
        checks.check(r.fingerprint == reference, || {
            format!(
                "outcome fingerprint {:016x} != {reference:016x}",
                r.fingerprint
            )
        });
    }
    println!(
        "fingerprint {} seed {} {:016x}",
        w.name(),
        args.seed,
        reference
    );
    for f in &checks.failures {
        println!("check failed: {f}");
    }

    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        let first = &traced[0];
        let overhead = median(traced.iter().map(|r| r.run_s).collect())
            / median(plain.iter().map(|r| r.run_s).collect())
            - 1.0;
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = match name {
                    "trace_overhead_frac" => overhead,
                    _ => first.layers.get(name).copied().unwrap_or(0.0),
                };
                (name, unit, v)
            })
            .collect()
    } else {
        let Some(rss) = first_rep_rss else {
            eprintln!("rmbench: cannot read VmHWM from /proc/self/status");
            return ExitCode::FAILURE;
        };
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let v = match name {
                    "setup_s" => median(setups.clone()),
                    "run_s" => median(plain.iter().map(|r| r.run_s).collect()),
                    "events_per_s" => {
                        median(plain.iter().map(|r| r.events as f64 / r.run_s).collect())
                    }
                    "jobs_per_s" => median(plain.iter().map(|r| r.jobs as f64 / r.run_s).collect()),
                    "peak_rss_mb" => rss,
                    "check_pass_frac" => {
                        (checks.attempted - checks.failed()) as f64 / checks.attempted as f64
                    }
                    _ => unreachable!("unhandled end-to-end metric {name}"),
                };
                (name, unit, v)
            })
            .collect()
    };
    let metrics_obj = metrics_json(&metrics);
    let provenance = provenance_json(&args, root.parent().unwrap_or(root));
    println!("provenance {provenance}");

    // The full record, written when the benchmark ends.
    let all_reps: Vec<Rep> = plain.into_iter().chain(traced).chain(serial_ref).collect();
    let mut record = format!(
        "{{\"provenance\": {provenance}, \"metrics\": {metrics_obj}, \
         \"checks_attempted\": {}, \"checks_failed\": {}, \"reps\": {}",
        checks.attempted,
        checks.failed(),
        reps_json(&all_reps)
    );
    if let Some(r) = all_reps.iter().find(|r| r.trace_json.is_some()) {
        let layers: Vec<String> = r
            .layers
            .iter()
            .map(|(k, v)| format!("\"{k}\": {}", json_num(*v)))
            .collect();
        let _ = write!(
            record,
            ", \"layers\": {{{}}}, \"trace\": {}",
            layers.join(", "),
            r.trace_json.as_deref().unwrap_or("null")
        );
    }
    record.push('}');
    let out_dir: PathBuf = root.join("out");
    let out_file = out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        w.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) =
        std::fs::create_dir_all(&out_dir).and_then(|_| std::fs::write(&out_file, record))
    {
        eprintln!("rmbench: writing {}: {e}", out_file.display());
        return ExitCode::FAILURE;
    }

    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics_obj}}}",
        checks.failed() == 0,
        checks.attempted,
        checks.failed()
    );
    ExitCode::SUCCESS
}
