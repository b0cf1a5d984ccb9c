//! End-to-end and per-layer benchmark of the `dbscout` binary.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --self-test
//! ```
//!
//! Run from the repository root. It builds the release `dbscout`
//! binary, generates the workload's inputs from `--seed`, drives the
//! binary from outside (one `dbscout detect` process per op, or one
//! closed-loop client of `dbscout serve`), checks every output against
//! the distributed engine, and prints one JSON result as the last line
//! of stdout. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! runs the traced pass and reports the per-layer metrics instead.
//! Workloads and metrics are listed in `BENCHMARK.json` at the
//! repository root; `perfbench/README.md` gives their rationale.
//!
//! Inputs, oracle caches, traces and result files go to
//! `$CARGO_TARGET_DIR/perfbench-work` (default `target/`).

mod detect;
mod proc;
mod serve;
mod traced;
mod util;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use crate::util::{ctx, json_str, utc_now, Metrics, Res, Tally};

const WORKLOADS: [&str; 3] = ["detect-geolife", "detect-osm-csv", "serve-mixed"];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
}

fn parse_args() -> Res<Args> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            a.self_test = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => a.workload = value,
            "--seed" => a.seed = value.parse().map_err(ctx("--seed"))?,
            "--seconds" => a.seconds = value.parse().map_err(ctx("--seconds"))?,
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !a.self_test && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !a.seconds.is_finite() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(a)
}

/// Builds the release `dbscout` binary from the repository in the
/// working directory; returns its path and the benchmark's work dir.
fn build() -> Res<(PathBuf, PathBuf)> {
    if !Path::new("crates/cli/Cargo.toml").is_file() {
        return Err("run from the repository root (crates/cli not found)".to_string());
    }
    let target =
        PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()));
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "dbscout-cli",
            "--target-dir",
        ])
        .arg(&target)
        .status()
        .map_err(ctx("cargo build"))?;
    if !status.success() {
        return Err(format!("building dbscout failed: {status}"));
    }
    // Relative to the working directory where possible: the serve
    // socket lives here and Unix socket paths are short.
    let target = std::env::current_dir()
        .ok()
        .and_then(|cwd| target.strip_prefix(cwd).ok().map(Path::to_path_buf))
        .unwrap_or(target);
    let work = target.join("perfbench-work");
    std::fs::create_dir_all(&work).map_err(ctx("create work dir"))?;
    Ok((target.join("release").join("dbscout"), work))
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unavailable".to_string())
}

/// FNV-1a over the repository's manifests and every source file under
/// `crates/`: identifies the code measured when there is no git rev.
fn source_digest() -> Res<u64> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> Res<()> {
        for entry in std::fs::read_dir(dir).map_err(ctx("read_dir"))? {
            let path = entry.map_err(ctx("dir entry"))?.path();
            if path.is_dir() {
                walk(&path, out)?;
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                out.push(path);
            }
        }
        Ok(())
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files)?;
    files.sort();
    let mut h = util::FNV_OFFSET;
    for f in files {
        h = util::fnv1a(h, f.to_string_lossy().as_bytes());
        h = util::fnv1a(h, &std::fs::read(&f).map_err(ctx("read source"))?);
    }
    Ok(h)
}

/// The inputs a run measures: the workload's own, or for the traced
/// pass every input it reads.
fn inputs_json(a: &Args, work: &Path) -> String {
    let specs = if a.trace {
        vec![detect::GEOLIFE, detect::OSM, serve::SPEC]
    } else {
        traced::detect_spec(&a.workload).into_iter().collect()
    };
    let items: Vec<String> = specs
        .iter()
        .map(|spec| {
            let bytes = std::fs::metadata(spec.input(work, a.seed)).map_or(0, |m| m.len());
            format!(
                "{{\"dataset\": \"{}\", \"n\": {}, \"format\": \"{}\", \"bytes\": {bytes}, \"eps\": {}, \"min_pts\": {}}}",
                spec.dataset,
                spec.n,
                if spec.binary { "binary" } else { "csv" },
                spec.eps,
                spec.min_pts
            )
        })
        .collect();
    format!("[{}]", items.join(", "))
}

fn provenance(a: &Args, work: &Path) -> String {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);
    format!(
        "{{\"git_rev\": {}, \"source_digest\": \"{:016x}\", \"rustc\": {}, \
         \"available_parallelism\": {threads}, \"date\": \"{}\", \"workload\": \"{}\", \
         \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"execution\": \"cell-major layout, auto kernel, \
         default threads\", \"inputs\": {}}}",
        json_str(&command_line("git", &["rev-parse", "HEAD"])),
        source_digest().unwrap_or(0),
        json_str(&command_line("rustc", &["-V"])),
        utc_now(),
        a.workload,
        a.seed,
        a.seconds,
        u8::from(a.trace),
        inputs_json(a, work),
    )
}

/// Every run rewrites the inputs it reads, so only the oracle caches
/// and results are kept between runs.
fn remove_inputs(work: &Path, seed: u64) {
    for spec in [detect::GEOLIFE, detect::OSM, serve::SPEC] {
        let _ = std::fs::remove_file(spec.input(work, seed));
        let _ = std::fs::remove_file(spec.labels_path(work));
    }
    let _ = std::fs::remove_file(work.join("layer-labels.csv"));
}

/// Runs one workload, untraced or traced. Also returns the untraced
/// run's wall-clock figures, which go in the provenance line only.
fn measure(a: &Args, bin: &Path, work: &Path, tamper: bool) -> Res<(Metrics, Tally, String)> {
    if a.trace {
        let (m, t) = traced::run(&a.workload, bin, work, a.seed)?;
        return Ok((m, t, "{}".to_string()));
    }
    match a.workload.as_str() {
        "detect-geolife" => detect::run(detect::GEOLIFE, bin, work, a.seed, a.seconds, tamper),
        "detect-osm-csv" => detect::run(detect::OSM, bin, work, a.seed, a.seconds, tamper),
        _ => serve::run(bin, work, a.seed, a.seconds, tamper),
    }
}

fn result_line(m: &Metrics, t: &Tally) -> String {
    let correct = t.failed == 0 && m.check_finite().is_ok();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        t.attempted.max(1),
        t.failed,
        m.to_json()
    )
}

/// Tampers with one seeded op's output per check (a flipped label in a
/// labels file, a wrong id in an `outliers` answer) and requires each
/// to be counted as a failed op; then a clean run on a second seed must
/// pass every check.
fn self_test(bin: &Path, work: &Path) -> Res<bool> {
    let mut pass = true;
    for (workload, seed, tamper) in [
        ("detect-osm-csv", 101, true),
        ("serve-mixed", 101, true),
        ("detect-osm-csv", 102, false),
        ("serve-mixed", 102, false),
    ] {
        let a = Args {
            workload: workload.to_string(),
            seed,
            seconds: 1.0,
            trace: false,
            self_test: true,
        };
        let (m, t, _) = measure(&a, bin, work, tamper)?;
        let ok = if tamper { t.failed >= 1 } else { t.failed == 0 };
        pass &= ok && m.check_finite().is_ok();
        println!(
            "{{\"self_test\": \"{workload}\", \"seed\": {seed}, \"tampered\": {tamper}, \
             \"attempted\": {}, \"failed\": {}, \"as_expected\": {ok}}}",
            t.attempted, t.failed
        );
    }
    Ok(pass)
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some(proc::SPAWNER_FLAG) {
        return match proc::spawner_main() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench helper: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let outcome = parse_args().and_then(|a| {
        proc::Spawner::install()?;
        let (bin, work) = build()?;
        if a.self_test {
            return self_test(&bin, &work).map(|ok| {
                if ok {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            });
        }
        let measured = measure(&a, &bin, &work, false);
        let record = provenance(&a, &work);
        remove_inputs(&work, a.seed);
        let (m, t, wall) = measured?;
        if let Err(e) = m.check_finite() {
            eprintln!("perfbench: {e}");
        }
        let record = format!(
            "{{\"provenance\": {record}, \"samples\": {}, \"fail_ratio\": {}, \"wall_clock\": {wall}}}",
            m.samples_json(),
            t.failed as f64 / t.attempted.max(1) as f64
        );
        let result = result_line(&m, &t);
        let file = work.join(format!(
            "result-{}-{}-trace{}.json",
            a.workload,
            a.seed,
            u8::from(a.trace)
        ));
        std::fs::write(&file, format!("{record}\n{result}\n")).map_err(ctx("write result"))?;
        println!("{record}");
        println!("{result}");
        Ok(ExitCode::SUCCESS)
    });
    proc::Spawner::uninstall();
    outcome.unwrap_or_else(|e| {
        eprintln!("perfbench: error: {e}");
        ExitCode::from(2)
    })
}
