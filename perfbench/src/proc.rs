//! Child processes of the `dbscout` binary: one-shot commands timed from
//! spawn to exit with their peak RSS, and the long-lived serve daemon.

use std::io::{BufRead, BufReader, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::util::{ctx, Res};

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kb: i64,
    rest: [i64; 13],
}

impl Rusage {
    /// User plus system time.
    fn cpu(&self) -> Duration {
        let us = (self.utime[0] + self.stime[0]) * 1_000_000 + self.utime[1] + self.stime[1];
        Duration::from_micros(u64::try_from(us).unwrap_or(0))
    }
}

/// `cpu_set_t`: a bit mask over 1024 CPUs.
type CpuSet = [u64; 16];

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The outcome of one timed child.
#[derive(Debug)]
pub struct Exit {
    /// Spawn to exit.
    pub elapsed: Duration,
    /// User plus system CPU time of the child, all threads. Time the
    /// hypervisor takes a virtual CPU away (steal) is not in it.
    pub cpu: Duration,
    /// Peak resident set of the child (its VmHWM), in bytes.
    pub peak_rss: u64,
    pub stdout: String,
}

/// Runs `cmd` to completion, timing it from spawn to exit and reading
/// its peak RSS. Fails on a non-zero exit.
///
/// The spawn goes through the [`Spawner`] helper when one is running:
/// a child's `ru_maxrss` starts from the peak RSS of the process that
/// forked it, so only a parent that stays small yields the child's own
/// peak.
pub fn run_timed(cmd: &mut Command) -> Res<Exit> {
    match SPAWNER.get() {
        Some(s) => s
            .lock()
            .map_err(|_| "spawner lock poisoned".to_string())?
            .run(cmd),
        None => run_direct(cmd),
    }
}

/// [`run_timed`] in this process.
///
/// The child's stdout/stderr are drained after it exits, so this is only
/// for commands that print less than a pipe buffer (the `dbscout`
/// one-shot commands print a few summary lines).
fn run_direct(cmd: &mut Command) -> Res<Exit> {
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let started = Instant::now();
    let mut child = cmd.spawn().map_err(ctx("spawn"))?;
    let pid = i32::try_from(child.id()).map_err(ctx("pid"))?;
    let mut status = 0i32;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `pid` is our own unreaped child; `status` and `usage`
        // are live, correctly sized out-parameters for this call.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("wait4: {err}"));
        }
    }
    let elapsed = started.elapsed();
    let mut stdout = String::new();
    let mut stderr = String::new();
    if let Some(mut s) = child.stdout.take() {
        s.read_to_string(&mut stdout).map_err(ctx("read stdout"))?;
    }
    if let Some(mut s) = child.stderr.take() {
        s.read_to_string(&mut stderr).map_err(ctx("read stderr"))?;
    }
    // WIFEXITED && WEXITSTATUS == 0.
    if status & 0x7f != 0 || (status >> 8) & 0xff != 0 {
        return Err(format!(
            "exit status {status:#x}: {}",
            stderr.lines().last().unwrap_or("")
        ));
    }
    Ok(Exit {
        elapsed,
        cpu: usage.cpu(),
        peak_rss: u64::try_from(usage.maxrss_kb).unwrap_or(0) * 1024,
        stdout,
    })
}

static SPAWNER: OnceLock<Mutex<Spawner>> = OnceLock::new();

/// A small helper process (this binary with `--spawner`) that runs the
/// timed one-shot commands. It is started before the benchmark loads
/// any data and stays a few MB in size.
pub struct Spawner {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Spawner {
    /// Starts the helper and routes [`run_timed`] through it.
    pub fn install() -> Res<()> {
        let exe = std::env::current_exe().map_err(ctx("current_exe"))?;
        let mut child = Command::new(exe)
            .arg(SPAWNER_FLAG)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(ctx("spawn helper"))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().ok_or("helper stdout")?);
        SPAWNER
            .set(Mutex::new(Self {
                child,
                stdin,
                stdout,
            }))
            .map_err(|_| "spawner already installed".to_string())
    }

    /// Stops the helper and waits for it to exit.
    pub fn uninstall() {
        if let Some(s) = SPAWNER.get() {
            if let Ok(mut s) = s.lock() {
                s.stdin.take();
                let _ = s.child.wait();
            }
        }
    }

    fn run(&mut self, cmd: &Command) -> Res<Exit> {
        let argv: Vec<&str> = std::iter::once(cmd.get_program())
            .chain(cmd.get_args())
            .map(|a| a.to_str().ok_or_else(|| "non-UTF-8 argument".to_string()))
            .collect::<Res<_>>()?;
        let stdin = self.stdin.as_mut().ok_or("helper stopped")?;
        writeln!(stdin, "{}", argv.join("\t"))
            .and_then(|()| stdin.flush())
            .map_err(ctx("send to helper"))?;
        let mut head = String::new();
        self.stdout
            .read_line(&mut head)
            .map_err(ctx("read helper"))?;
        let mut f = head.trim_end().splitn(5, ' ');
        match (f.next(), f.next(), f.next(), f.next(), f.next()) {
            (Some("ok"), Some(ns), Some(cpu_ns), Some(rss), Some(len)) => {
                let parse = |v: &str| v.parse::<u64>().map_err(ctx("helper reply"));
                let mut out = vec![0u8; parse(len)? as usize];
                self.stdout
                    .read_exact(&mut out)
                    .map_err(ctx("read helper"))?;
                Ok(Exit {
                    elapsed: Duration::from_nanos(parse(ns)?),
                    cpu: Duration::from_nanos(parse(cpu_ns)?),
                    peak_rss: parse(rss)?,
                    stdout: String::from_utf8(out).map_err(ctx("helper stdout"))?,
                })
            }
            (Some("err"), ..) => Err(head.trim_end().trim_start_matches("err ").to_string()),
            _ => Err(format!("bad helper reply {head:?}")),
        }
    }
}

pub const SPAWNER_FLAG: &str = "--spawner";

/// The helper's loop: one tab-separated argv per stdin line; answers
/// `ok <ns> <cpu ns> <peak rss bytes> <stdout len>` plus the stdout
/// bytes, or `err <reason>`. Ends when stdin closes.
pub fn spawner_main() -> Res<()> {
    let mut out = std::io::stdout().lock();
    for line in std::io::stdin().lock().lines() {
        let line = line.map_err(ctx("helper stdin"))?;
        let mut argv = line.split('\t');
        let mut cmd = Command::new(argv.next().unwrap_or(""));
        cmd.args(argv);
        match run_direct(&mut cmd) {
            Ok(e) => {
                let ns = e.elapsed.as_nanos();
                let cpu_ns = e.cpu.as_nanos();
                write!(
                    out,
                    "ok {ns} {cpu_ns} {} {}\n{}",
                    e.peak_rss,
                    e.stdout.len(),
                    e.stdout
                )
            }
            Err(e) => writeln!(out, "err {}", e.replace('\n', " ")),
        }
        .and_then(|()| out.flush())
        .map_err(ctx("helper stdout"))?;
    }
    Ok(())
}

/// Peak RSS (VmHWM) of a live process, in bytes.
pub fn vm_hwm(pid: u32) -> Res<u64> {
    let status =
        std::fs::read_to_string(format!("/proc/{pid}/status")).map_err(ctx("read /proc status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .ok_or_else(|| "no VmHWM line".to_string())
}

/// CPU time so far of a live process, summed over its threads' run time
/// as the scheduler counts it (`/proc/<pid>/task/*/schedstat`, in ns).
/// Like [`Exit::cpu`], it leaves out steal.
pub fn cpu_time(pid: u32) -> Res<Duration> {
    let mut ns = 0;
    let tasks = std::fs::read_dir(format!("/proc/{pid}/task")).map_err(ctx("list threads"))?;
    for task in tasks {
        let path = task.map_err(ctx("thread entry"))?.path().join("schedstat");
        let text = std::fs::read_to_string(path).map_err(ctx("read schedstat"))?;
        ns += text
            .split_whitespace()
            .next()
            .and_then(|v| v.parse::<u64>().ok())
            .ok_or("bad schedstat line")?;
    }
    Ok(Duration::from_nanos(ns))
}

/// A running `dbscout serve` daemon; killed and reaped on drop, so an
/// early error never leaves it behind.
pub struct Daemon {
    child: Child,
    pub socket: PathBuf,
}

impl Daemon {
    /// Spawns `cmd` (a `dbscout serve --socket <socket>` invocation).
    pub fn spawn(cmd: &mut Command, socket: &Path) -> Res<Self> {
        let _ = std::fs::remove_file(socket);
        let child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(ctx("spawn serve"))?;
        Ok(Self {
            child,
            socket: socket.to_owned(),
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Fails if the daemon has already exited.
    pub fn check_alive(&mut self) -> Res<()> {
        match self.child.try_wait().map_err(ctx("try_wait"))? {
            Some(status) => Err(format!("serve exited early: {status}")),
            None => Ok(()),
        }
    }

    /// Waits for a clean exit after `shutdown`, within `limit`.
    pub fn wait_exit(mut self, limit: Duration) -> Res<()> {
        let deadline = Instant::now() + limit;
        loop {
            if let Some(status) = self.child.try_wait().map_err(ctx("try_wait"))? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("serve exited with {status}"))
                };
            }
            if Instant::now() > deadline {
                return Err("serve did not exit after shutdown".to_string());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// Sets the CPU mask of thread `tid` (0: the calling thread).
fn set_affinity(tid: i32, mask: &CpuSet) -> Res<()> {
    // SAFETY: `mask` points to a live `cpu_set_t`-sized buffer and the
    // size passed is its size; the call only reads it.
    if unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuSet>(), mask) } != 0 {
        return Err(format!(
            "sched_setaffinity({tid}): {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}

/// Keeps every thread of a daemon and the calling thread on one CPU
/// until dropped, when the calling thread gets its CPUs back.
///
/// In the closed loop the client and the daemon never run at the same
/// time, so one CPU loses no parallelism. On two CPUs each round trip
/// ends in a cross-CPU wake-up whose cost on a shared virtual machine
/// moved closed-loop throughput by ~20% between runs.
pub struct SharedCpu {
    saved: CpuSet,
}

impl SharedCpu {
    pub fn pin(daemon_pid: u32) -> Res<Self> {
        let mut saved: CpuSet = [0; 16];
        // SAFETY: `saved` is a live, writable `cpu_set_t`-sized buffer
        // and the size passed is its size.
        if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut saved) } != 0 {
            return Err(format!(
                "sched_getaffinity: {}",
                std::io::Error::last_os_error()
            ));
        }
        // The highest allowed CPU: the lowest one usually takes more of
        // the machine's interrupts.
        let (word, bits) = saved
            .iter()
            .enumerate()
            .rev()
            .find(|(_, &w)| w != 0)
            .ok_or("empty CPU mask")?;
        let mut one: CpuSet = [0; 16];
        one[word] = 1 << (63 - bits.leading_zeros());
        let tasks = std::fs::read_dir(format!("/proc/{daemon_pid}/task"))
            .map_err(ctx("list daemon threads"))?;
        for task in tasks {
            let tid = task.map_err(ctx("daemon thread"))?.file_name();
            let tid = tid
                .to_str()
                .and_then(|t| t.parse().ok())
                .ok_or("bad thread id")?;
            set_affinity(tid, &one)?;
        }
        set_affinity(0, &one)?;
        Ok(Self { saved })
    }
}

impl Drop for SharedCpu {
    fn drop(&mut self) {
        let _ = set_affinity(0, &self.saved);
    }
}
