//! Warm serving: one closed-loop client talking to `dbscout serve` over
//! its Unix socket, replaying a seeded probe/insert/remove/outliers mix.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use dbscout_bench::workloads::{uniform2d, UNIFORM2D_EPS, UNIFORM2D_SIDE};
use dbscout_rng::Rng;
use dbscout_spatial::PointStore;
use dbscout_telemetry::json::{parse, Value};

use crate::detect::{distributed_oracle, DetectSpec, SETUP_REPS};
use crate::proc::{cpu_time, vm_hwm, Daemon, SharedCpu};
use crate::util::{ctx, median, ms, percentile, progress, Metrics, Res, Tally};

pub const DATASET: &str = "uniform2d";

/// The daemon's dataset: 100k uniform 2-D points on [0, 1000)², ε = 5,
/// minPts = 10 — about 8 ε-neighbours per point, so churn flips labels.
pub const SPEC: DetectSpec = DetectSpec {
    dataset: DATASET,
    n: 100_000,
    binary: true,
    eps: UNIFORM2D_EPS,
    min_pts: 10,
    writes_labels: false,
};

pub fn initial_store(seed: u64) -> PointStore {
    uniform2d(SPEC.n, seed)
}

/// Request types, in the order their metrics are reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Probe,
    Insert,
    Remove,
    Outliers,
}

pub const KINDS: [Kind; 4] = [Kind::Probe, Kind::Insert, Kind::Remove, Kind::Outliers];

/// Requests in one round of the mix. Every round holds exactly 49
/// probes, 25 inserts, 25 removes and 1 `outliers`, in seeded order.
pub const ROUND: usize = 100;

/// Requests in one session of an untraced run (~3 s on a 2-vCPU VM):
/// 10k inserts and 10k removes, so ids grow by a tenth.
pub const SESSION_REQUESTS: usize = 400 * ROUND;

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Probe => "probe",
            Kind::Insert => "insert",
            Kind::Remove => "remove",
            Kind::Outliers => "outliers",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }

    /// Requests of this type in each round of [`ROUND`].
    fn per_round(self) -> usize {
        match self {
            Kind::Probe => 49,
            Kind::Insert | Kind::Remove => 25,
            Kind::Outliers => 1,
        }
    }
}

/// One request, with the answer its checks expect.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    Probe([f64; 2]),
    /// The point and the id the daemon must assign it.
    Insert([f64; 2], u32),
    /// A live id; the daemon must answer `removed:true`.
    Remove(u32),
    Outliers,
}

impl Op {
    pub fn kind(&self) -> Kind {
        match self {
            Op::Probe(_) => Kind::Probe,
            Op::Insert(..) => Kind::Insert,
            Op::Remove(_) => Kind::Remove,
            Op::Outliers => Kind::Outliers,
        }
    }

    pub fn line(&self) -> String {
        match self {
            Op::Probe([x, y]) => format!(r#"{{"op":"probe","point":[{x},{y}]}}"#),
            Op::Insert([x, y], _) => format!(r#"{{"op":"insert","point":[{x},{y}]}}"#),
            Op::Remove(id) => format!(r#"{{"op":"remove","id":{id}}}"#),
            Op::Outliers => r#"{"op":"outliers"}"#.to_string(),
        }
    }
}

/// The seeded request sequence. It tracks which ids are live, so the
/// sequence (and every expected answer) depends on the seed alone.
pub struct OpGen {
    rng: Rng,
    deck: Vec<Kind>,
    pos: usize,
    live: Vec<u32>,
    /// Liveness by id; ids are never reused.
    pub alive: Vec<bool>,
    /// Every point ever inserted, by id (the bulk load first).
    pub points: Vec<[f64; 2]>,
}

impl OpGen {
    pub fn new(seed: u64, initial: &PointStore) -> Self {
        let points: Vec<[f64; 2]> = initial
            .iter()
            .map(|(_, p)| {
                [
                    p.first().copied().unwrap_or(0.0),
                    p.get(1).copied().unwrap_or(0.0),
                ]
            })
            .collect();
        let deck = KINDS
            .iter()
            .flat_map(|&k| std::iter::repeat_n(k, k.per_round()))
            .collect();
        Self {
            rng: Rng::seed_from_u64(seed ^ 0x5E_4E_0B_5C),
            deck,
            pos: 100,
            live: (0..points.len() as u32).collect(),
            alive: vec![true; points.len()],
            points,
        }
    }

    fn point(&mut self) -> [f64; 2] {
        [
            self.rng.gen_range(0.0..UNIFORM2D_SIDE),
            self.rng.gen_range(0.0..UNIFORM2D_SIDE),
        ]
    }

    pub fn next_op(&mut self) -> Op {
        if self.pos == self.deck.len() {
            self.rng.shuffle(&mut self.deck);
            self.pos = 0;
        }
        let kind = self.deck[self.pos];
        self.pos += 1;
        match kind {
            Kind::Probe => Op::Probe(self.point()),
            Kind::Insert => {
                let p = self.point();
                let id = self.points.len() as u32;
                self.points.push(p);
                self.alive.push(true);
                self.live.push(id);
                Op::Insert(p, id)
            }
            Kind::Remove => {
                let id = self
                    .live
                    .swap_remove(self.rng.gen_range(0..self.live.len()));
                self.alive[id as usize] = false;
                Op::Remove(id)
            }
            Kind::Outliers => Op::Outliers,
        }
    }

    /// The live points in id order, and their ids: survivor row `i` is
    /// id `ids[i]`, the mapping the CI serve smoke uses.
    pub fn survivors(&self) -> Res<(PointStore, Vec<u32>)> {
        let ids: Vec<u32> = (0..self.points.len() as u32)
            .filter(|&id| self.alive[id as usize])
            .collect();
        let coords = ids
            .iter()
            .flat_map(|&id| self.points[id as usize])
            .collect();
        let store = PointStore::from_flat(2, coords).map_err(ctx("survivor store"))?;
        Ok((store, ids))
    }
}

/// A connected closed-loop client.
pub struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Client {
    /// Connects to the daemon's socket, retrying while it boots.
    pub fn connect(daemon: &mut Daemon, limit: Duration) -> Res<Self> {
        let deadline = Instant::now() + limit;
        loop {
            match UnixStream::connect(&daemon.socket) {
                Ok(stream) => {
                    let writer = stream.try_clone().map_err(ctx("clone socket"))?;
                    return Ok(Self {
                        reader: BufReader::new(stream),
                        writer,
                    });
                }
                Err(e) if Instant::now() > deadline => return Err(format!("connect: {e}")),
                Err(_) => {
                    daemon.check_alive()?;
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
    }

    /// Sends one request line and waits for its response line.
    pub fn request(&mut self, line: &str) -> Res<(String, Duration)> {
        let mut buf = String::new();
        let started = Instant::now();
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .map_err(ctx("send request"))?;
        let read = self
            .reader
            .read_line(&mut buf)
            .map_err(ctx("read response"))?;
        let elapsed = started.elapsed();
        if read == 0 {
            return Err("daemon closed the connection".to_string());
        }
        buf.truncate(buf.trim_end().len());
        Ok((buf, elapsed))
    }
}

/// The socket path, relative to the working directory when possible
/// (a Unix socket path is limited to ~100 bytes).
pub fn socket_path(work: &Path) -> PathBuf {
    work.join(format!("serve-{}.sock", std::process::id()))
}

/// Spawns the daemon on `input` and times spawn → first answer (a
/// `stats` request, which must report the bulk-loaded point count).
pub fn boot(bin: &Path, input: &Path, work: &Path, extra: &[&str]) -> Res<(Daemon, Client, f64)> {
    let socket = socket_path(work);
    let mut cmd = Command::new(bin);
    cmd.arg("serve")
        .arg("--input")
        .arg(input)
        .arg("--from-binary")
        .arg("--eps")
        .arg(SPEC.eps.to_string())
        .arg("--min-pts")
        .arg(SPEC.min_pts.to_string())
        .arg("--socket")
        .arg(&socket)
        .args(extra);
    let started = Instant::now();
    let mut daemon = Daemon::spawn(&mut cmd, &socket)?;
    let mut client = Client::connect(&mut daemon, Duration::from_secs(120))?;
    let (resp, _) = client.request(r#"{"op":"stats"}"#)?;
    let boot = started.elapsed().as_secs_f64();
    let doc = parse(&resp).map_err(ctx("stats response"))?;
    if doc.get("points").and_then(Value::as_u64) != Some(SPEC.n as u64) {
        return Err(format!("unexpected stats answer {resp}"));
    }
    Ok((daemon, client, boot))
}

/// Sends `shutdown` and waits for the daemon to exit cleanly.
pub fn shutdown(mut client: Client, daemon: Daemon) -> Res<()> {
    let (resp, _) = client.request(r#"{"op":"shutdown"}"#)?;
    if resp != r#"{"ok":true,"op":"shutdown"}"# {
        return Err(format!("unexpected shutdown answer {resp}"));
    }
    daemon.wait_exit(Duration::from_secs(60))
}

fn field<'a>(doc: &'a Value, key: &str) -> Res<&'a Value> {
    doc.get(key).ok_or_else(|| format!("missing {key:?}"))
}

/// Checks a response against what the op expects; returns the ids of an
/// `outliers` answer.
pub fn check_response(op: &Op, resp: &str, alive: &[bool]) -> Res<Vec<u32>> {
    let doc = parse(resp).map_err(ctx("response JSON"))?;
    if !matches!(doc.get("ok"), Some(Value::Bool(true))) {
        return Err(format!("not ok: {resp}"));
    }
    if field(&doc, "op")?.as_str() != Some(op.kind().name()) {
        return Err(format!("wrong op in {resp}"));
    }
    let label_ok = |d: &Value| {
        matches!(
            d.get("label").and_then(Value::as_str),
            Some("core" | "covered" | "outlier")
        )
    };
    match op {
        Op::Probe(_) if label_ok(&doc) => Ok(Vec::new()),
        Op::Insert(_, id) if label_ok(&doc) => match field(&doc, "id")?.as_u64() {
            Some(got) if got == u64::from(*id) => Ok(Vec::new()),
            got => Err(format!("insert got id {got:?}, expected fresh id {id}")),
        },
        Op::Probe(_) | Op::Insert(..) => Err(format!("bad label in {resp}")),
        Op::Remove(id) => {
            if field(&doc, "id")?.as_u64() != Some(u64::from(*id))
                || !matches!(doc.get("removed"), Some(Value::Bool(true)))
            {
                return Err(format!("remove of live id {id} answered {resp}"));
            }
            Ok(Vec::new())
        }
        Op::Outliers => {
            let ids: Vec<u32> = field(&doc, "ids")?
                .as_array()
                .ok_or("ids is not an array")?
                .iter()
                .map(|v| v.as_u64().and_then(|x| u32::try_from(x).ok()))
                .collect::<Option<_>>()
                .ok_or("ids must be u32")?;
            if field(&doc, "count")?.as_u64() != Some(ids.len() as u64) {
                return Err("count differs from the id list".to_string());
            }
            if ids.windows(2).any(|w| w[0] >= w[1]) {
                return Err("ids not strictly ascending".to_string());
            }
            if let Some(dead) = ids
                .iter()
                .find(|&&id| !alive.get(id as usize).copied().unwrap_or(false))
            {
                return Err(format!("outlier id {dead} is not live"));
            }
            Ok(ids)
        }
    }
}

/// What one session measured.
#[derive(Debug, Default)]
pub struct Session {
    /// Round trips in ms, by [`Kind::index`].
    pub lat: [Vec<f64>; 4],
    pub busy: Duration,
    /// Bytes of each `outliers` answer.
    pub outliers_bytes: Vec<usize>,
    /// Every request line sent, when asked for.
    pub lines: Vec<String>,
    /// When each round of the mix began, and when the session ended.
    pub round_starts: Vec<Instant>,
    /// Summed round trips of each complete round.
    pub round_busy: Vec<Duration>,
}

impl Session {
    pub fn requests(&self) -> usize {
        self.lat.iter().map(Vec::len).sum()
    }

    pub fn all_ms(&self) -> Vec<f64> {
        self.lat.concat()
    }

    /// Adds a later session's samples to this one.
    pub fn extend(&mut self, later: Session) {
        for (mine, theirs) in self.lat.iter_mut().zip(later.lat) {
            mine.extend(theirs);
        }
        self.busy += later.busy;
        self.outliers_bytes.extend(later.outliers_bytes);
        self.lines.extend(later.lines);
        self.round_starts.extend(later.round_starts);
        self.round_busy.extend(later.round_busy);
    }

    /// Closed-loop requests per second: the median over complete rounds,
    /// so a stall of the shared host moves a few rounds, not the result.
    pub fn ops_per_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .round_busy
            .iter()
            .map(|d| ROUND as f64 / d.as_secs_f64())
            .collect();
        median(&rates)
    }
}

/// Runs the closed loop for `requests` requests: each is sent after the
/// previous answer arrived. Every response is checked.
pub fn drive(
    client: &mut Client,
    gen: &mut OpGen,
    requests: usize,
    tally: &mut Tally,
    keep_lines: bool,
) -> Res<Session> {
    let mut s = Session::default();
    let mut busy_before_round = Duration::ZERO;
    for seq in 0..requests {
        if seq % ROUND == 0 {
            s.round_starts.push(Instant::now());
        }
        let op = gen.next_op();
        let line = op.line();
        let (resp, elapsed) = client.request(&line)?;
        s.busy += elapsed;
        s.lat[op.kind().index()].push(ms(elapsed));
        if op.kind() == Kind::Outliers {
            s.outliers_bytes.push(resp.len());
        }
        tally.check(
            &format!("request {} ({})", seq + 1, op.kind().name()),
            check_response(&op, &resp, &gen.alive).map(drop),
        );
        if keep_lines {
            s.lines.push(line);
        }
        if (seq + 1) % ROUND == 0 {
            s.round_busy.push(s.busy - busy_before_round);
            busy_before_round = s.busy;
        }
    }
    s.round_starts.push(Instant::now());
    Ok(s)
}

/// Expected outlier ids on the current survivors, from the distributed
/// engine, mapped back to daemon ids.
pub fn expected_outliers(gen: &OpGen) -> Res<Vec<u32>> {
    let (store, ids) = gen.survivors()?;
    let oracle = distributed_oracle(&store, SPEC.params()?)?;
    Ok(oracle
        .outliers
        .iter()
        .map(|&row| ids[row as usize])
        .collect())
}

/// Sends a final `outliers` request and compares its ids with `want`,
/// the oracle on the surviving points. With `tamper`, one id of the
/// answer is corrupted first (self-test only).
pub fn final_check(client: &mut Client, gen: &OpGen, want: &[u32], tamper: bool) -> Res<()> {
    let (resp, _) = client.request(&Op::Outliers.line())?;
    let mut ids = check_response(&Op::Outliers, &resp, &gen.alive)?;
    if tamper {
        match ids.first_mut() {
            Some(id) => *id += 1,
            None => ids.push(0),
        }
    }
    if ids != want {
        let diff = ids.iter().zip(want).position(|(a, b)| a != b);
        return Err(format!(
            "final outliers ({} ids) differ from the oracle ({} ids), first difference at {diff:?}",
            ids.len(),
            want.len()
        ));
    }
    Ok(())
}

/// p50 and p99 of each request type; a p99 only with ≥ 1000 samples.
pub fn kind_summary(s: &Session) -> String {
    let parts: Vec<String> = KINDS
        .iter()
        .map(|k| {
            let xs = &s.lat[k.index()];
            let p99 = if xs.len() >= 1000 {
                format!(", \"p99_ms\": {}", percentile(xs, 0.99))
            } else {
                String::new()
            };
            format!(
                "\"{}\": {{\"samples\": {}, \"p50_ms\": {}{p99}}}",
                k.name(),
                xs.len(),
                median(xs)
            )
        })
        .collect();
    format!("{{{}}}", parts.join(", "))
}

/// One untraced run of `serve-mixed`: sessions of [`SESSION_REQUESTS`]
/// requests, each on a freshly booted daemon, until `seconds` of
/// round-trip time. Every session replays the same seeded sequence, so
/// each one does the same work: the daemon never reuses an id and its
/// `outliers` scan covers every id ever assigned, so one long session
/// would slow down by how many requests it got through. `setup_s` is
/// the daemon's median CPU time from spawn to its first answer. Returns
/// the metrics, the checks, and the wall-clock figures (boot,
/// throughput, latency overall and per request type) for the provenance
/// line.
pub fn run(
    bin: &Path,
    work: &Path,
    seed: u64,
    seconds: f64,
    tamper: bool,
) -> Res<(Metrics, Tally, String)> {
    let start = Instant::now();
    let input = SPEC.input(work, seed);
    SPEC.generate(bin, &input, seed)?;
    let initial = initial_store(seed);
    let mut gen = OpGen::new(seed, &initial);
    for _ in 0..SESSION_REQUESTS {
        gen.next_op();
    }
    let want = expected_outliers(&gen)?;
    progress(start, "input and oracle ready");

    let mut tally = Tally::default();
    let mut all = Session::default();
    let (mut boots, mut boot_cpu) = (Vec::new(), Vec::new());
    let (mut rss_mb, mut cpu_ms) = (Vec::new(), Vec::new());
    while all.busy.as_secs_f64() < seconds || boots.len() < SETUP_REPS {
        let (daemon, mut client, boot_s) = boot(bin, &input, work, &[])?;
        boots.push(boot_s);
        let booted = cpu_time(daemon.pid())?;
        boot_cpu.push(booted.as_secs_f64());
        let mut gen = OpGen::new(seed, &initial);
        let pinned = SharedCpu::pin(daemon.pid())?;
        let session = drive(&mut client, &mut gen, SESSION_REQUESTS, &mut tally, false)?;
        drop(pinned);
        let served = cpu_time(daemon.pid())?.saturating_sub(booted);
        cpu_ms.push(ms(served) / SESSION_REQUESTS as f64);
        rss_mb.push(vm_hwm(daemon.pid())? as f64 / (1024.0 * 1024.0));
        tally.check(
            "final outliers vs oracle",
            final_check(&mut client, &gen, &want, tamper && boots.len() == 1),
        );
        tally.check("shutdown", shutdown(client, daemon));
        all.extend(session);
    }
    progress(
        start,
        &format!("{} sessions, {} requests done", boots.len(), all.requests()),
    );

    let lat = all.all_ms();
    let mut m = Metrics::default();
    m.push("setup_s", median(&boot_cpu), "s", boot_cpu.len());
    m.push("peak_rss_mb", median(&rss_mb), "MB", rss_mb.len());
    m.push("cpu_ms_per_op", median(&cpu_ms), "ms", cpu_ms.len());
    let wall = format!(
        "{{\"setup_s\": {}, \"ops\": {}, \"ops_per_s\": {}, \"op_ms_p50\": {}, \"request_types\": {}}}",
        median(&boots),
        lat.len(),
        all.ops_per_s(),
        median(&lat),
        kind_summary(&all)
    );
    Ok((m, tally, wall))
}
