//! Repository benchmark: per-scheme throughput and peak RSS of the bare
//! reclamation schemes on three closed-loop workloads, plus a traced run
//! that prices every layer.
//!
//! ```text
//! perfbench --workload <queue-churn|tree-read|list-stall> --seed <n>
//!           --seconds <n> --trace <0|1> [--tiny]
//! ```
//!
//! Every (workload, scheme) pair runs in a fresh child process of this
//! binary (`perfbench cell ...`), so each scheme gets its own allocator
//! state, thread registry, OrcGC domain and memory high-water mark. The
//! last line of standard output is the JSON result.

mod affinity;
mod cell;
mod check;
mod metrics;
mod orchestrate;
mod prim;
mod reclaimer;
mod spans;

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheme {
    Hp,
    Ptp,
    Ebr,
    Orcgc,
}

impl Scheme {
    pub const ALL: [Scheme; 4] = [Scheme::Hp, Scheme::Ptp, Scheme::Ebr, Scheme::Orcgc];

    pub fn name(self) -> &'static str {
        match self {
            Scheme::Hp => "hp",
            Scheme::Ptp => "ptp",
            Scheme::Ebr => "ebr",
            Scheme::Orcgc => "orcgc",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|x| x.name() == s)
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// MS queue, 2 threads of enqueue→dequeue pairs: every op allocates
    /// or retires, so it stresses alloc, retire and scan.
    QueueChurn,
    /// NM-tree over 10^6 keys, 5i-5r-90l: memory-latency bound, the
    /// bypass case for allocation and accounting changes.
    TreeRead,
    /// Michael list with a reader parked mid-`contains`: the paper's
    /// Table 1 situation, protect-dominated.
    ListStall,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::QueueChurn,
        Workload::TreeRead,
        Workload::ListStall,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::QueueChurn => "queue-churn",
            Workload::TreeRead => "tree-read",
            Workload::ListStall => "list-stall",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|x| x.name() == s)
    }
}

/// `--flag value` pairs and bare `--switch`es, after the subcommand.
struct Flags(Vec<String>);

impl Flags {
    fn value(&self, name: &str) -> Result<Option<&str>, String> {
        match self.0.iter().position(|a| a == name) {
            None => Ok(None),
            Some(i) => self
                .0
                .get(i + 1)
                .map(|v| Some(v.as_str()))
                .ok_or(format!("{name} needs a value")),
        }
    }

    fn required<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        let v = self.value(name)?.ok_or(format!("missing {name}"))?;
        v.parse().map_err(|_| format!("bad {name}: {v}"))
    }

    fn switch(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }
}

fn workload(flags: &Flags) -> Result<Workload, String> {
    let w: String = flags.required("--workload")?;
    Workload::parse(&w).ok_or(format!("unknown workload {w}"))
}

fn seconds(flags: &Flags) -> Result<f64, String> {
    let s: f64 = flags.required("--seconds")?;
    if s.is_finite() && s > 0.0 {
        Ok(s)
    } else {
        Err(format!("--seconds must be positive, got {s}"))
    }
}

/// Child: one cell, printed as `key value` lines.
fn run_cell(flags: &Flags) -> Result<(), String> {
    let w = workload(flags)?;
    let s: String = flags.required("--scheme")?;
    let s = Scheme::parse(&s).ok_or(format!("unknown scheme {s}"))?;
    let cfg = cell::CellCfg {
        seed: flags.required("--seed")?,
        seconds: seconds(flags)?,
        reps: flags.required("--reps")?,
        tiny: flags.switch("--tiny"),
    };
    let spans_path = flags.value("--spans")?;
    let spans = spans_path.map(|_| Arc::new(spans::Spans::default()));
    let out = cell::run(w, s, &cfg, spans.clone());
    let mut kv = vec![
        ("mops".to_string(), out.mops),
        ("ops".to_string(), out.ops as f64),
        ("failed".to_string(), out.failed as f64),
        ("setup_s".to_string(), metrics::median(&out.setup_s)),
        ("rss_mib".to_string(), peak_rss_mib()?),
    ];
    if let (Some(path), Some(spans)) = (spans_path, spans) {
        let st = &out.stats;
        for (k, v) in [
            ("empty_dequeues", out.empty_dequeues),
            ("retires", st.retires),
            ("reclaims", st.reclaims),
            ("scans", st.scans),
            ("protect_retries", st.protect_retries),
            ("handovers", st.handovers),
            ("delay_p99_ns", st.delay_p99()),
            ("peak_unreclaimed", out.peak_unreclaimed),
        ] {
            kv.push((k.to_string(), v as f64));
        }
        for op in spans::Op::ALL {
            let h = &out.hists[op as usize];
            kv.push((format!("{}.p50_ns", op.name()), h.quantile(0.50) as f64));
            kv.push((format!("{}.p99_ns", op.name()), h.quantile(0.99) as f64));
        }
        spans
            .write_jsonl(std::path::Path::new(path))
            .map_err(|e| format!("writing spans to {path}: {e}"))?;
        kv.push(("spans".to_string(), spans.len() as f64));
    }
    for (k, v) in kv {
        println!("{k} {v}");
    }
    Ok(())
}

/// Child: the primitive cells.
fn run_prim(flags: &Flags) -> Result<(), String> {
    let per_rep = Duration::from_secs_f64(seconds(flags)?);
    for (k, v) in prim::run(per_rep) {
        println!("{k} {v}");
    }
    Ok(())
}

/// The process's memory high-water mark (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM in /proc/self/status")?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or(format!("bad line {line:?}"))?;
    Ok(kib / 1024.0)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let sub = match args.first().map(String::as_str) {
        Some("cell") | Some("prim") => Some(args.remove(0)),
        _ => None,
    };
    let flags = Flags(args);
    let res = match sub.as_deref() {
        Some("cell") => run_cell(&flags),
        Some("prim") => run_prim(&flags),
        _ => orchestrate::main(&flags),
    };
    match res {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
