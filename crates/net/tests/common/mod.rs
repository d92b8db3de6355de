//! What the multi-process acceptance suites share: the payload oracle,
//! port allocation, trace parsing, child-process bookkeeping, the
//! `/metrics` scraper and the failure report. Each suite keeps its
//! constants, its `spawn_cluster`/`run_cluster` and its checks.

// Every suite compiles this module into its own test binary and uses a
// different subset of it.
#![allow(dead_code)]

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::Child;
use std::time::{Duration, Instant};

use spindle_core::threaded::Delivered;
use spindle_membership::SubgroupId;

/// What a process printed and how it ended: `(success, stdout, stderr)`.
pub type ProcResult = (bool, String, String);

/// Mirrors the binary's deterministic payload function, so a driver can
/// reconstruct every acknowledged payload from `(node, counter)` alone. An
/// independent re-implementation on purpose: it is the oracle
/// `spindle_node.rs::payload` is checked against.
pub fn payload(node: usize, counter: u32, size: usize, seed: u64) -> Vec<u8> {
    let mut p = Vec::with_capacity(size.max(8));
    p.extend_from_slice(&(node as u32).to_le_bytes());
    p.extend_from_slice(&counter.to_le_bytes());
    let mut x = seed ^ ((node as u64) << 32) ^ counter as u64;
    while p.len() < size {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        p.push(x as u8);
    }
    p
}

pub fn free_loopback_ports(n: usize) -> Vec<u16> {
    // Bind-then-release: a small race window, but loopback CI has no port
    // pressure, and the caller retries the whole cluster on a collision.
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind ephemeral"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr").port())
        .collect()
}

pub fn parse_trace(text: &str) -> Vec<Delivered> {
    text.lines()
        .map(|line| {
            let mut it = line.split_whitespace();
            let mut next = || it.next().expect("trace field");
            let epoch = next().parse().expect("epoch");
            let subgroup = SubgroupId(next().parse().expect("subgroup"));
            let sender_rank = next().parse().expect("rank");
            let app_index = next().parse().expect("app index");
            let seq = next().parse().expect("seq");
            let hex = next();
            let data = (0..hex.len() / 2)
                .map(|i| u8::from_str_radix(&hex[2 * i..2 * i + 2], 16).expect("hex"))
                .collect();
            Delivered {
                epoch,
                subgroup,
                sender_rank,
                app_index,
                seq,
                data,
            }
        })
        .collect()
}

pub struct NodeProc {
    pub child: Child,
    pub trace_path: PathBuf,
}

/// Waits for every process, killing those still running at `deadline`.
pub fn wait_all(procs: &mut [NodeProc], deadline: Duration) -> Vec<ProcResult> {
    let end = Instant::now() + deadline;
    let mut done: Vec<Option<bool>> = vec![None; procs.len()];
    while done.iter().any(|d| d.is_none()) && Instant::now() < end {
        for (i, p) in procs.iter_mut().enumerate() {
            if done[i].is_none() {
                if let Ok(Some(status)) = p.child.try_wait() {
                    done[i] = Some(status.success());
                }
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    procs
        .iter_mut()
        .enumerate()
        .map(|(i, p)| {
            let ok = match done[i] {
                Some(ok) => ok,
                None => {
                    let _ = p.child.kill();
                    false
                }
            };
            let out = p.child.wait_with_output_ref();
            (ok, out.0, out.1)
        })
        .collect()
}

/// `wait_with_output` consumes the child; this helper drains the pipes of
/// an already-finished (or killed) child in place.
pub trait OutputRef {
    fn wait_with_output_ref(&mut self) -> (String, String);
}

impl OutputRef for Child {
    fn wait_with_output_ref(&mut self) -> (String, String) {
        use std::io::Read;
        let mut out = String::new();
        let mut err = String::new();
        if let Some(mut s) = self.stdout.take() {
            let _ = s.read_to_string(&mut out);
        }
        if let Some(mut s) = self.stderr.take() {
            let _ = s.read_to_string(&mut err);
        }
        let _ = self.wait();
        (out, err)
    }
}

/// One blocking HTTP/1.0 GET against the exposition endpoint; returns the
/// body on a 200, `None` when the endpoint is not (yet) reachable.
pub fn scrape(addr: &str, path: &str) -> Option<String> {
    use std::io::{Read, Write};
    let mut s = std::net::TcpStream::connect(addr).ok()?;
    s.set_read_timeout(Some(Duration::from_secs(5))).ok()?;
    s.write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())
        .ok()?;
    let mut resp = String::new();
    s.read_to_string(&mut resp).ok()?;
    if !resp.starts_with("HTTP/1.0 200") {
        return None;
    }
    let (_, body) = resp.split_once("\r\n\r\n")?;
    Some(body.to_string())
}

/// One process's section of a failure report: how it ended, both output
/// streams and, if it got as far as writing one, its trace.
pub fn render_proc(name: &str, role: &str, result: &ProcResult, trace_path: &Path) -> String {
    let (ok, stdout, stderr) = result;
    let mut out = format!(
        "--- {name} ({role}, {}) ---\nstdout:\n{stdout}\nstderr:\n{stderr}\n",
        if *ok { "ok" } else { "FAILED" }
    );
    if let Ok(trace) = std::fs::read_to_string(trace_path) {
        out.push_str(&format!(
            "trace ({} deliveries):\n{trace}\n",
            trace.lines().count()
        ));
    }
    out
}

/// The failure report of a run: every process's [`render_proc`], labelled
/// with what `role` says the suite did to it.
pub fn render_failure(
    results: &[ProcResult],
    procs: &[NodeProc],
    role: impl Fn(usize) -> &'static str,
) -> String {
    (results.iter().zip(procs).enumerate())
        .map(|(node, (r, p))| render_proc(&format!("node {node}"), role(node), r, &p.trace_path))
        .collect()
}
