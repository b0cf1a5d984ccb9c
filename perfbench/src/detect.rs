//! Cold detection: `dbscout detect` spawned once per op on a generated
//! input, every op's output checked against the distributed engine.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use dbscout_core::{DbscoutParams, DetectorBuilder};
use dbscout_data::io::{read_binary, read_csv_with, write_binary, IngestMode};
use dbscout_dataflow::ExecutionContext;
use dbscout_spatial::PointStore;

use crate::proc::{run_timed, Exit};
use crate::util::{ctx, file_digest, fnv1a, median, ms, progress, Metrics, Res, Tally, FNV_OFFSET};

/// Setups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Detect ops that may fail to run before a run stops early.
const MAX_CRASHES: usize = 3;

/// One detection input and its parameters.
#[derive(Debug, Clone, Copy)]
pub struct DetectSpec {
    /// `dbscout generate --dataset` name, or `uniform2d` for the serve
    /// dataset (written by the benchmark itself).
    pub dataset: &'static str,
    pub n: usize,
    pub binary: bool,
    pub eps: f64,
    pub min_pts: usize,
    /// Whether the op writes a labels file (`--output`).
    pub writes_labels: bool,
}

/// `detect-geolife`: the paper's central Geolife setting, streamed from
/// the binary format.
pub const GEOLIFE: DetectSpec = DetectSpec {
    dataset: "geolife",
    n: 1_000_000,
    binary: true,
    eps: 100.0,
    min_pts: 100,
    writes_labels: false,
};

/// `detect-osm-csv`: the paper's central OSM ε, CSV in and labels out.
pub const OSM: DetectSpec = DetectSpec {
    dataset: "osm",
    n: 1_000_000,
    binary: false,
    eps: 1_000_000.0,
    min_pts: 100,
    writes_labels: true,
};

impl DetectSpec {
    pub fn input(&self, work: &Path, seed: u64) -> PathBuf {
        let ext = if self.binary { "bin" } else { "csv" };
        work.join(format!("{}-{}-{seed}.{ext}", self.dataset, self.n))
    }

    pub fn labels_path(&self, work: &Path) -> PathBuf {
        work.join(format!("{}-labels.csv", self.dataset))
    }

    pub fn params(&self) -> Res<DbscoutParams> {
        DbscoutParams::new(self.eps, self.min_pts).map_err(ctx("params"))
    }

    /// The `dbscout generate` command writing the input for `seed`.
    fn generate_cmd(&self, bin: &Path, input: &Path, seed: u64) -> Command {
        let mut cmd = Command::new(bin);
        cmd.args(["generate", "--dataset", self.dataset, "--n"])
            .arg(self.n.to_string())
            .arg("--seed")
            .arg(seed.to_string())
            .arg("--output")
            .arg(input);
        if self.binary {
            cmd.args(["--format", "binary"]);
        }
        cmd
    }

    /// Writes the input for `seed`. Generated datasets go through
    /// `dbscout generate`; the serve dataset is written in process.
    pub fn generate(&self, bin: &Path, input: &Path, seed: u64) -> Res<()> {
        if self.dataset == crate::serve::DATASET {
            let store = crate::serve::initial_store(seed);
            return write_binary(input, &store).map_err(ctx("write serve input"));
        }
        run_timed(&mut self.generate_cmd(bin, input, seed)).map(drop)
    }

    /// The `dbscout detect` op on `input`, plus `extra` flags.
    pub fn detect_cmd(&self, bin: &Path, input: &Path, work: &Path, extra: &[&str]) -> Command {
        let mut cmd = self.unwritten_cmd(bin, input, extra);
        if self.writes_labels {
            cmd.arg("--output").arg(self.labels_path(work));
        }
        cmd
    }

    /// The op without its labels write (no `--output`), plus `extra`.
    pub fn unwritten_cmd(&self, bin: &Path, input: &Path, extra: &[&str]) -> Command {
        let mut cmd = Command::new(bin);
        cmd.arg("detect").arg("--input").arg(input);
        if self.binary {
            cmd.arg("--from-binary");
        }
        cmd.arg("--eps")
            .arg(self.eps.to_string())
            .arg("--min-pts")
            .arg(self.min_pts.to_string());
        cmd.args(extra);
        cmd
    }

    /// Materializes the input in process.
    pub fn load(&self, input: &Path) -> Res<PointStore> {
        if self.binary {
            read_binary(input).map_err(ctx("read binary input"))
        } else {
            read_csv_with(input, false, IngestMode::Strict)
                .map(|c| c.store)
                .map_err(ctx("read csv input"))
        }
    }
}

/// Expected output of one input, from the paper-literal distributed
/// engine: the summary counts `dbscout detect` prints (outliers, core
/// points, cells, dense cells, core cells) and the outlier ids.
#[derive(Debug, Clone, PartialEq)]
pub struct Oracle {
    pub counts: [usize; 5],
    pub outliers: Vec<u32>,
}

impl Oracle {
    pub fn mask(&self, n: usize) -> Vec<bool> {
        let mut mask = vec![false; n];
        for &id in &self.outliers {
            if let Some(m) = mask.get_mut(id as usize) {
                *m = true;
            }
        }
        mask
    }
}

/// Runs the distributed engine on `store`.
pub fn distributed_oracle(store: &PointStore, params: DbscoutParams) -> Res<Oracle> {
    let ctx_ = ExecutionContext::builder().build();
    let result = DetectorBuilder::new(params)
        .distributed(ctx_)
        .build_distributed()
        .detect(store)
        .map_err(ctx("distributed oracle"))?;
    Ok(Oracle {
        counts: [
            result.num_outliers(),
            result.num_core(),
            result.stats.num_cells,
            result.stats.dense_cells,
            result.stats.core_cells,
        ],
        outliers: result.outliers.clone(),
    })
}

/// The oracle for `input`, cached per input digest and parameters (it
/// takes ~30 s on the 1M-point Geolife input).
pub fn cached_oracle(spec: &DetectSpec, input: &Path, work: &Path) -> Res<Oracle> {
    let digest = file_digest(input)?;
    let cache = work.join(format!(
        "oracle-{}-{digest:016x}-{}-{}.txt",
        spec.dataset, spec.eps, spec.min_pts
    ));
    if let Ok(text) = std::fs::read_to_string(&cache) {
        if let Some(o) = parse_oracle(&text) {
            return Ok(o);
        }
    }
    let started = Instant::now();
    let oracle = distributed_oracle(&spec.load(input)?, spec.params()?)?;
    eprintln!(
        "perfbench: {} oracle computed in {:.1?}",
        spec.dataset,
        started.elapsed()
    );
    let ids: Vec<String> = oracle.outliers.iter().map(u32::to_string).collect();
    let counts: Vec<String> = oracle.counts.iter().map(usize::to_string).collect();
    let tmp = cache.with_extension("tmp");
    std::fs::write(&tmp, format!("{}\n{}\n", counts.join(" "), ids.join(" ")))
        .map_err(ctx("write oracle cache"))?;
    std::fs::rename(&tmp, &cache).map_err(ctx("rename oracle cache"))?;
    Ok(oracle)
}

fn parse_oracle(text: &str) -> Option<Oracle> {
    let mut lines = text.lines();
    let counts: Vec<usize> = lines
        .next()?
        .split(' ')
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    let ids: Vec<u32> = lines
        .next()?
        .split_whitespace()
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    Some(Oracle {
        counts: counts.try_into().ok()?,
        outliers: ids,
    })
}

/// Checks the summary `dbscout detect` prints against the oracle.
pub fn check_counts(stdout: &str, n: usize, oracle: &Oracle) -> Res<()> {
    let mut lines = stdout.lines();
    let head = lines.next().unwrap_or("");
    if !head.starts_with(&format!("{n} points,")) {
        return Err(format!("unexpected header {head:?}"));
    }
    let summary = lines
        .find(|l| l.contains(" outliers, "))
        .ok_or("no summary line")?;
    let nums: Vec<usize> = summary
        .split_whitespace()
        .filter_map(|t| {
            t.trim_matches(|c| c == '(' || c == ')' || c == ',')
                .parse()
                .ok()
        })
        .take(5)
        .collect();
    if nums != oracle.counts {
        return Err(format!(
            "counts {nums:?} != oracle {:?} (outliers, core, cells, dense, core cells)",
            oracle.counts
        ));
    }
    Ok(())
}

/// Digest of the labels file a correct op writes: every input row, in
/// order, followed by `,1` for an oracle outlier and `,0` otherwise.
/// Comparing digests compares the files row for row.
fn labels_digest(input_text: &str, mask: &[bool]) -> Res<u64> {
    let mut h = FNV_OFFSET;
    let mut rows = 0usize;
    for row in input_text.lines() {
        let flag: &[u8] = if mask.get(rows).copied().unwrap_or(false) {
            b",1\n"
        } else {
            b",0\n"
        };
        h = fnv1a(fnv1a(h, row.as_bytes()), flag);
        rows += 1;
    }
    if rows != mask.len() {
        return Err(format!("input has {rows} rows, oracle has {}", mask.len()));
    }
    Ok(h)
}

/// Flips the label of the first row of a labels file (self-test only).
pub fn tamper_labels(labels: &Path) -> Res<()> {
    let mut text = std::fs::read_to_string(labels).map_err(ctx("read labels"))?;
    let end = text.find('\n').ok_or("empty labels file")?;
    let flipped = match text.as_bytes().get(end - 1) {
        Some(b'0') => "1",
        _ => "0",
    };
    text.replace_range(end - 1..end, flipped);
    std::fs::write(labels, text).map_err(ctx("write labels"))
}

/// What a detect op leaves to check: its printed summary and, if it
/// wrote one, the digest of its labels file (the next op overwrites it).
pub struct OpOutput {
    stdout: String,
    labels: Option<u64>,
}

impl OpOutput {
    pub fn read(spec: &DetectSpec, exit: &Exit, work: &Path) -> Res<Self> {
        let labels = if spec.writes_labels {
            Some(file_digest(&spec.labels_path(work))?)
        } else {
            None
        };
        Ok(Self {
            stdout: exit.stdout.clone(),
            labels,
        })
    }
}

/// Everything a run of one detect op is checked against.
pub struct Expected {
    pub spec: DetectSpec,
    pub oracle: Oracle,
    /// Digest of the labels file a correct op writes, if it writes one.
    labels: Option<u64>,
}

impl Expected {
    pub fn new(spec: DetectSpec, input: &Path, oracle: Oracle) -> Res<Self> {
        let labels = if spec.writes_labels {
            let text = std::fs::read_to_string(input).map_err(ctx("read input"))?;
            Some(labels_digest(&text, &oracle.mask(spec.n))?)
        } else {
            None
        };
        Ok(Self {
            spec,
            oracle,
            labels,
        })
    }

    /// Checks one op's printed counts.
    pub fn check_counts(&self, exit: &Exit) -> Res<()> {
        check_counts(&exit.stdout, self.spec.n, &self.oracle)
    }

    /// Checks one op's printed counts and, if it wrote one, its labels.
    pub fn check_output(&self, out: &OpOutput) -> Res<()> {
        check_counts(&out.stdout, self.spec.n, &self.oracle)?;
        if out.labels != self.labels {
            return Err("labels file differs from the oracle's labels".to_string());
        }
        Ok(())
    }

    /// Checks an op that has just exited.
    pub fn check(&self, exit: &Exit, work: &Path) -> Res<()> {
        self.check_output(&OpOutput::read(&self.spec, exit, work)?)
    }
}

/// One untraced run of a detect workload while it is being measured.
struct DetectRun<'a> {
    spec: DetectSpec,
    bin: &'a Path,
    input: PathBuf,
    work: &'a Path,
    seed: u64,
    tamper: bool,
    /// Set-up wall and CPU times, in s.
    setup_wall: Vec<f64>,
    setup_cpu: Vec<f64>,
    op_ms: Vec<f64>,
    cpu_ms: Vec<f64>,
    rss_mb: Vec<f64>,
    busy: Duration,
    crashes: usize,
    /// Every op's output, checked once the oracle is known.
    outputs: Vec<(String, Res<OpOutput>)>,
}

impl DetectRun<'_> {
    fn op(&self) -> Res<Exit> {
        run_timed(&mut self.spec.detect_cmd(self.bin, &self.input, self.work, &[]))
    }

    /// `reps` set-ups (generate + warm-up op), then ops back to back
    /// until `until` seconds of op time in all.
    fn measure(&mut self, reps: usize, until: f64) -> Res<()> {
        for _ in 0..reps {
            let started = Instant::now();
            let generated =
                run_timed(&mut self.spec.generate_cmd(self.bin, &self.input, self.seed))?;
            let warm = self.op();
            self.setup_wall.push(started.elapsed().as_secs_f64());
            let what = format!("warm-up op {}", self.setup_wall.len());
            let output = match warm {
                Ok(e) => {
                    self.setup_cpu.push((generated.cpu + e.cpu).as_secs_f64());
                    OpOutput::read(&self.spec, &e, self.work)
                }
                Err(e) => Err(e),
            };
            self.outputs.push((what, output));
        }
        while self.busy.as_secs_f64() < until && self.crashes < MAX_CRASHES {
            let what = format!("op {}", self.op_ms.len() + self.crashes);
            // An op that did not exit cleanly adds no op time, so the loop
            // stops after a few of those rather than run on forever.
            let exit = match self.op() {
                Ok(exit) => exit,
                Err(e) => {
                    self.crashes += 1;
                    self.outputs.push((what, Err(e)));
                    continue;
                }
            };
            self.busy += exit.elapsed;
            self.op_ms.push(ms(exit.elapsed));
            self.cpu_ms.push(ms(exit.cpu));
            self.rss_mb.push(exit.peak_rss as f64 / (1024.0 * 1024.0));
            if self.tamper && self.op_ms.len() == 1 {
                tamper_labels(&self.spec.labels_path(self.work))?;
            }
            let output = OpOutput::read(&self.spec, &exit, self.work);
            self.outputs.push((what, output));
        }
        Ok(())
    }
}

/// One untraced run of a detect workload: `SETUP_REPS` set-ups and
/// `seconds` of ops, in two halves with the oracle computed between
/// them. The oracle takes ~28 s on Geolife, so the halves sample the
/// shared host about half a minute apart instead of in one window, which
/// steadies a run's median against the host's drift. The second half
/// starts with a set-up too, so it also starts warm. Returns the
/// metrics, the checks, and the wall-clock figures for the provenance
/// line.
pub fn run(
    spec: DetectSpec,
    bin: &Path,
    work: &Path,
    seed: u64,
    seconds: f64,
    tamper: bool,
) -> Res<(Metrics, Tally, String)> {
    let start = Instant::now();
    let input = spec.input(work, seed);
    spec.generate(bin, &input, seed)?;
    let mut run = DetectRun {
        spec,
        bin,
        input,
        work,
        seed,
        tamper,
        setup_wall: Vec::new(),
        setup_cpu: Vec::new(),
        op_ms: Vec::new(),
        cpu_ms: Vec::new(),
        rss_mb: Vec::new(),
        busy: Duration::ZERO,
        crashes: 0,
        outputs: Vec::new(),
    };
    run.measure(SETUP_REPS - 1, seconds / 2.0)?;
    progress(start, &format!("first half: {} ops", run.op_ms.len()));
    let expected = Expected::new(spec, &run.input, cached_oracle(&spec, &run.input, work)?)?;
    progress(start, "oracle ready");
    run.measure(1, seconds)?;
    progress(start, &format!("{} ops done", run.op_ms.len()));

    let mut tally = Tally::default();
    for (what, output) in std::mem::take(&mut run.outputs) {
        tally.check(&what, output.and_then(|o| expected.check_output(&o)));
    }
    let n = run.op_ms.len();
    let mut m = Metrics::default();
    m.push("setup_s", median(&run.setup_cpu), "s", run.setup_cpu.len());
    m.push("peak_rss_mb", median(&run.rss_mb), "MB", run.rss_mb.len());
    m.push("cpu_ms_per_op", median(&run.cpu_ms), "ms", n);
    let wall = format!(
        "{{\"setup_s\": {}, \"ops\": {n}, \"ops_per_s\": {}, \"op_ms_p50\": {}}}",
        median(&run.setup_wall),
        n as f64 / run.busy.as_secs_f64(),
        median(&run.op_ms)
    );
    Ok((m, tally, wall))
}
