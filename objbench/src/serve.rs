//! The server process, and the generator's handle on it.
//!
//! `objbench serve` reads one seed snapshot from stdin (a u64 LE length, then
//! the `co_wire` bytes), restores it into a `SharedEngine`, serves it with
//! `co_server::Server` and its default configuration, prints
//! `listening <addr> restore_ns <n> nodes <n>` on stdout, and shuts down when
//! stdin reaches end of file. It receives nothing else from the benchmark:
//! the load arrives over TCP.

use crate::sys;
use co_engine::{Engine, SharedEngine};
use co_server::{Server, ServerConfig};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::SocketAddr;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

pub fn main(args: &[String]) -> i32 {
    match serve(args) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("objbench serve: {e}");
            2
        }
    }
}

fn serve(args: &[String]) -> io::Result<()> {
    if let [flag, list] = args {
        let cpus = (flag == "--cpus")
            .then(|| sys::parse_cpu_list(list))
            .flatten()
            .ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidInput, "usage: serve [--cpus LIST]")
            })?;
        sys::set_affinity(&cpus)?;
    }
    let mut stdin = io::stdin().lock();
    let mut len = [0u8; 8];
    stdin.read_exact(&mut len)?;
    let mut bytes = vec![0u8; u64::from_le_bytes(len) as usize];
    stdin.read_exact(&mut bytes)?;

    let started = Instant::now();
    let snap = co_wire::read_snapshot(bytes.as_slice())
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let seed =
        snap.roots.into_iter().next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, "seed snapshot has no root")
        })?;
    let shared = SharedEngine::new(Engine::new(Default::default()), seed);
    let restore_ns = started.elapsed().as_nanos();
    let nodes = co_object::store::live_nodes();
    drop(bytes);

    let handle = Server::bind(shared, ServerConfig::from_env())?;
    let mut out = io::stdout().lock();
    writeln!(
        out,
        "listening {} restore_ns {restore_ns} nodes {nodes}",
        handle.addr()
    )?;
    out.flush()?;
    // Serve until the benchmark closes our stdin.
    let mut rest = Vec::new();
    let _ = stdin.read_to_end(&mut rest);
    handle.shutdown();
    Ok(())
}

/// A running server process.
pub struct ServerProc {
    child: Child,
    stdin: Option<ChildStdin>,
    pub addr: SocketAddr,
    pub spawned: Instant,
    pub restore_ns: u64,
}

impl ServerProc {
    /// Starts `objbench serve` with `env` added to the inherited environment
    /// and hands it `snapshot`. Returns once the server is listening.
    pub fn spawn(
        snapshot: &[u8],
        env: &[(String, String)],
        cpus: Option<&str>,
    ) -> io::Result<ServerProc> {
        let mut cmd = Command::new(std::env::current_exe()?);
        cmd.arg("serve");
        if let Some(cpus) = cpus {
            cmd.args(["--cpus", cpus]);
        }
        cmd.envs(env.iter().map(|(k, v)| (k, v)))
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let spawned = Instant::now();
        let mut child = cmd.spawn()?;
        let mut proc = ServerProc {
            stdin: child.stdin.take(),
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            spawned,
            restore_ns: 0,
        };
        let stdin = proc.stdin.as_mut().expect("stdin was piped");
        stdin.write_all(&(snapshot.len() as u64).to_le_bytes())?;
        stdin.write_all(snapshot)?;
        stdin.flush()?;
        let stdout = proc.child.stdout.take().expect("stdout was piped");
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line)?;
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            ["listening", addr, "restore_ns", ns, "nodes", _] => {
                proc.addr = addr.parse().map_err(|_| bad_line(&line))?;
                proc.restore_ns = ns.parse().map_err(|_| bad_line(&line))?;
            }
            _ => return Err(bad_line(&line)),
        }
        Ok(proc)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The process's peak resident set (`VmHWM`) in MiB.
    pub fn rss_peak_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM"))
    }

    /// CPU time the server's threads have run so far, in ns (the first field
    /// of each `/proc/<pid>/task/<tid>/schedstat`).
    pub fn cpu_ns(&self) -> io::Result<u64> {
        let mut total = 0u64;
        for task in std::fs::read_dir(format!("/proc/{}/task", self.pid()))? {
            // A thread may exit between listing and reading.
            let Ok(stat) = std::fs::read_to_string(task?.path().join("schedstat")) else {
                continue;
            };
            total += stat
                .split_whitespace()
                .next()
                .and_then(|v| v.parse::<u64>().ok())
                .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad schedstat"))?;
        }
        Ok(total)
    }

    /// Closes the server's stdin and waits for it to exit, killing it if it
    /// has not exited within ten seconds.
    pub fn stop(mut self) -> io::Result<()> {
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(status) = self.child.try_wait()? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!("server exited with {status}")))
                };
            }
            if Instant::now() > deadline {
                let _ = self.child.kill();
                let _ = self.child.wait();
                return Err(io::Error::other("server did not shut down; killed"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn bad_line(line: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("server did not report its address: {line:?}"),
    )
}
