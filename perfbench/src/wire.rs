//! Server processes, client connections and the two-connection closed
//! loop every workload serves its traffic with.

use crate::inproc::{InProcess, Kind};
use crate::stats::{Outcome, Tally};
use crate::trace::Tracer;
use ams_serve::net::{JsonlConn, Timeouts};
use serde::Value;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a spawned server may take to print its address.
const START_TIMEOUT: Duration = Duration::from_secs(60);
/// Socket read/write budget for one request.
const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// Times one load connection is reopened after a transport failure.
const MAX_RECONNECTS: u32 = 3;
/// Rounds each connection sends before the measured window.
const WARMUP_ROUNDS: usize = 8;

struct Kid {
    child: Child,
    stdout_drain: Option<JoinHandle<()>>,
}

/// Spawned server processes, killed and reaped on drop (also during a
/// panic), so a failed run leaves no process holding a port.
#[derive(Default)]
pub struct Procs {
    kids: Vec<Kid>,
}

impl Procs {
    /// Spawn `program args...` with `--addr 127.0.0.1:0` and return the
    /// address it reports on stdout after `marker` (e.g. `listening on`).
    pub fn spawn(
        &mut self,
        name: &str,
        program: &Path,
        args: &[String],
        marker: &str,
    ) -> Result<SocketAddr, String> {
        let mut child = Command::new(program)
            .args(["--addr", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", program.display()))?;
        let stdout = child.stdout.take().ok_or("child stdout")?;
        let (tx, rx) = mpsc::channel::<String>();
        // Drains stdout until the child exits, so it can never block
        // on a full pipe; ends when the child is killed.
        let drain = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                let _ = tx.send(line);
            }
        });
        self.kids.push(Kid { child, stdout_drain: Some(drain) });
        let deadline = Instant::now() + START_TIMEOUT;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            let line =
                rx.recv_timeout(left).map_err(|_| format!("{name} never reported an address"))?;
            if let Some(rest) = line.split(marker).nth(1) {
                let addr = rest.split_whitespace().next().unwrap_or_default();
                return addr.parse().map_err(|e| format!("{name}: bad address `{addr}`: {e}"));
            }
        }
    }

    /// Peak resident set summed over the processes, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        self.kids.iter().map(|k| peak_rss_mb(k.child.id())).sum()
    }

    /// Kill and reap every process.
    pub fn kill_all(&mut self) {
        for mut k in self.kids.drain(..) {
            let _ = k.child.kill();
            let _ = k.child.wait();
            if let Some(h) = k.stdout_drain.take() {
                let _ = h.join();
            }
        }
    }
}

impl Drop for Procs {
    fn drop(&mut self) {
        self.kill_all();
    }
}

/// `VmHWM` of a process (`self` or a pid), in MiB.
pub fn peak_rss_mb(pid: impl std::fmt::Display) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or_else(|| format!("{path}: no VmHWM"))?;
    Ok(kb / 1024.0)
}

/// A JSON-lines client connection with every socket operation bounded.
pub fn connect(addr: SocketAddr) -> std::io::Result<JsonlConn> {
    JsonlConn::connect(addr, &Timeouts::uniform(IO_TIMEOUT))
}

/// Poll `health` until the server at `addr` answers ok.
pub fn wait_healthy(addr: SocketAddr) -> Result<(), String> {
    let deadline = Instant::now() + START_TIMEOUT;
    loop {
        let answer =
            connect(addr).ok().and_then(|mut c| c.round_trip_value(r#"{"type":"health"}"#).ok());
        if answer.and_then(|v| v.get("ok").and_then(Value::as_bool)) == Some(true) {
            return Ok(());
        }
        if Instant::now() >= deadline {
            return Err(format!("{addr} never answered health"));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Where a load connection sends its lines.
pub enum Target {
    /// A `serve` or `router` process.
    Tcp(SocketAddr),
    /// The in-process handler (no socket).
    InProcess(std::sync::Arc<ams_serve::Engine>),
}

enum Link {
    Tcp(SocketAddr, Option<JsonlConn>),
    InProcess(InProcess, Tracer),
}

impl Link {
    fn new(target: &Target) -> Self {
        match target {
            Target::Tcp(addr) => Link::Tcp(*addr, connect(*addr).ok()),
            Target::InProcess(engine) => {
                Link::InProcess(InProcess::new(std::sync::Arc::clone(engine)), Tracer::off())
            }
        }
    }

    fn call(&mut self, kind: Kind, line: &str, out: &mut String) -> Result<(), String> {
        match self {
            Link::Tcp(_, Some(conn)) => conn.round_trip_into(line, out),
            Link::Tcp(addr, None) => Err(format!("not connected to {addr}")),
            Link::InProcess(h, tr) => {
                *out = h.handle(kind, line, tr, 0).unwrap_or_else(|e| {
                    serde_json::to_string(&Value::Object(vec![
                        ("ok".to_string(), Value::Bool(false)),
                        ("error".to_string(), Value::String(e)),
                    ]))
                    .unwrap_or_default()
                });
                Ok(())
            }
        }
    }

    fn reconnect(&mut self) -> bool {
        match self {
            Link::Tcp(addr, conn) => {
                *conn = connect(*addr).ok();
                conn.is_some()
            }
            Link::InProcess(..) => true,
        }
    }
}

/// What a correct answer holds: per-company predictions for singles,
/// the full prediction vector for batches.
pub struct Traffic {
    /// The request kind.
    pub kind: Kind,
    /// Request lines sent round-robin.
    pub lines: Vec<String>,
    /// `expect[i]` answers `lines[i]` (singles), or the whole vector
    /// answers the one line (batches).
    pub expect: Vec<f64>,
}

impl Traffic {
    fn classify(&self, i: usize, response: &str) -> Outcome {
        let Ok(v) = serde_json::from_str::<Value>(response.trim()) else {
            return Outcome::Error;
        };
        if v.get("ok").and_then(Value::as_bool) != Some(true) {
            let shed = v.get("shed").and_then(Value::as_bool) == Some(true);
            return if shed { Outcome::Shed } else { Outcome::Error };
        }
        if v.get("degraded").and_then(Value::as_bool) == Some(true) {
            return Outcome::Degraded;
        }
        let bits = |x: Option<f64>, want: f64| x.map(f64::to_bits) == Some(want.to_bits());
        let right = match self.kind {
            Kind::Single => {
                v.get("company").and_then(Value::as_f64) == Some(i as f64)
                    && bits(v.get("prediction").and_then(Value::as_f64), self.expect[i])
            }
            Kind::Batch => v.get("predictions").and_then(Value::as_array).is_some_and(|p| {
                p.len() == self.expect.len()
                    && p.iter().zip(&self.expect).all(|(x, &w)| bits(x.as_f64(), w))
            }),
        };
        if right {
            Outcome::Ok
        } else {
            Outcome::Wrong
        }
    }
}

/// One connection's run: latencies inside the window and every request
/// counted, warm-up included.
#[derive(Debug, Default)]
pub struct ConnRun {
    /// Client-side latency of each successful request in the window, µs.
    pub lat_us: Vec<f64>,
    /// Length of the window, s.
    pub window_s: f64,
    /// Every request this connection sent.
    pub tally: Tally,
    /// Times the connection was reopened.
    pub reconnects: u32,
}

/// Drive the workload's connections from one thread: each round sends
/// every `(traffic, count)` of `plan` in turn, each traffic on its own
/// connection. [`WARMUP_ROUNDS`] rounds run before the window.
fn run_plan(target: &Target, plan: &[(&Traffic, usize)], window: Duration) -> Vec<ConnRun> {
    let mut links: Vec<Link> = plan.iter().map(|_| Link::new(target)).collect();
    let mut runs: Vec<ConnRun> = plan.iter().map(|_| ConnRun::default()).collect();
    let mut sent = vec![0usize; plan.len()];
    let mut out = String::new();
    let mut dead = false;
    let mut t0 = None;
    let mut round = 0;
    'rounds: loop {
        if round == WARMUP_ROUNDS {
            t0 = Some(Instant::now());
        }
        for (k, &(traffic, count)) in plan.iter().enumerate() {
            for _ in 0..count {
                if dead || t0.is_some_and(|t: Instant| t.elapsed() >= window) {
                    break 'rounds;
                }
                let idx = sent[k] % traffic.lines.len();
                sent[k] += 1;
                let t = Instant::now();
                let answered = links[k].call(traffic.kind, &traffic.lines[idx], &mut out);
                let us = t.elapsed().as_secs_f64() * 1e6;
                let outcome = match answered {
                    Ok(()) => traffic.classify(idx, &out),
                    Err(_) => Outcome::Transport,
                };
                let run = &mut runs[k];
                run.tally.record(outcome);
                if outcome == Outcome::Transport {
                    run.reconnects += 1;
                    dead = run.reconnects > MAX_RECONNECTS || !links[k].reconnect();
                }
                if t0.is_some() && outcome == Outcome::Ok {
                    run.lat_us.push(us);
                }
            }
        }
        round += 1;
    }
    let window_s = t0.map_or(0.0, |t| t.elapsed().as_secs_f64());
    for run in &mut runs {
        run.window_s = window_s;
    }
    runs
}

/// Drive the two request kinds for `window`; returns the single and the
/// batch run. Connection 0 sends `single` round-robin and connection 1
/// sends `batch`, closed loop, from one thread that alternates a round
/// of singles with one batch. Two load threads on the 2-vCPU VM kept
/// four threads (two clients, two server workers) busy on two vCPUs, and
/// the p50s then measured the scheduler: over ten seeds they spread
/// 29–36 % of their median.
pub fn mixed_load(
    target: &Target,
    single: &Traffic,
    batch: &Traffic,
    window: Duration,
) -> (ConnRun, ConnRun) {
    let mut runs = run_plan(target, &[(single, single.lines.len()), (batch, 1)], window);
    let batch = runs.pop().expect("batch run");
    (runs.pop().expect("single run"), batch)
}

/// Pin the calling thread to the CPU it is running on; returns that
/// CPU. Processes and threads it starts afterwards inherit the pin.
///
/// Every workload serves from one vCPU: the load and every server.
/// The closed loop has one request in flight, so only one of them works
/// at a time; spread over the VM's two vCPUs, each hand-off woke an idle
/// vCPU through the hypervisor, and the single-predict p50 jumped
/// between ≈ 30 and ≈ 41 µs with the host's load.
#[cfg(target_os = "linux")]
pub fn pin_here() -> Result<usize, String> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // SAFETY: glibc calls with no preconditions; the mask is a
    // `cpu_set_t` (1 024 bits) that outlives the call.
    let cpu = unsafe { sched_getcpu() };
    let cpu = usize::try_from(cpu).map_err(|_| "sched_getcpu failed".to_string())?;
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64).ok_or("CPU number out of range")? |= 1 << (cpu % 64);
    // SAFETY: as above; pid 0 is the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(cpu)
    } else {
        Err(format!("sched_setaffinity: {}", std::io::Error::last_os_error()))
    }
}

/// Elsewhere the load and the servers run where the OS places them.
#[cfg(not(target_os = "linux"))]
pub fn pin_here() -> Result<usize, String> {
    Ok(0)
}

/// Cumulative (steal, total) CPU ticks of the host from `/proc/stat`:
/// time the hypervisor gave this VM's CPUs to other guests.
pub fn host_steal() -> Option<(f64, f64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<f64> =
        stat.lines().next()?.split_whitespace().skip(1).filter_map(|v| v.parse().ok()).collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}
