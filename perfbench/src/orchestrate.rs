//! The top-level run: spawns one child process per cell, then prints the
//! metrics as one JSON object on the last line of standard output.

use crate::metrics::{self, loss_pct, median, per_kop, quartiles, ratio};
use crate::{seconds, workload, Flags, Scheme, Workload};
use std::collections::BTreeMap;
use std::process::Command;

type Kv = BTreeMap<String, f64>;

/// A child's telemetry configuration. The kill switches latch once per
/// process, so every configuration needs a fresh process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Config {
    /// Stats, trace and obs off; pool at its default (on).
    Bare,
    /// Bare plus `ORC_STATS=1`.
    Stats,
    /// Bare plus `ORC_TRACE=1`.
    Trace,
    /// Bare with `ORC_POOL=0`.
    NoPool,
    /// Bare plus `ORC_STATS=1` and the benchmark's own spans.
    Traced,
}

impl Config {
    const LADDER: [Config; 4] = [Config::Bare, Config::Stats, Config::Trace, Config::NoPool];

    fn env(self) -> [(&'static str, &'static str); 3] {
        let on = |b: bool| if b { "1" } else { "0" };
        [
            (
                "ORC_STATS",
                on(matches!(self, Config::Stats | Config::Traced)),
            ),
            ("ORC_TRACE", on(self == Config::Trace)),
            ("ORC_OBS", "0"),
        ]
    }
}

struct Plan {
    workload: Workload,
    seed: u64,
    tiny: bool,
    /// `--seconds`: the timed phases of a bare run add up to it.
    seconds: f64,
    /// Set-up repetitions of one bare cell.
    reps: usize,
    /// Bare cells per scheme, interleaved across schemes.
    procs: usize,
}

impl Plan {
    fn child(&self, args: &[String], cfg: Config) -> Result<Kv, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.args(args).env_remove("ORC_POOL");
        if cfg == Config::NoPool {
            cmd.env("ORC_POOL", "0");
        }
        if self.tiny {
            cmd.arg("--tiny");
        }
        cmd.envs(cfg.env());
        let out = cmd
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("spawning a cell: {e}"))?;
        if !out.status.success() {
            return Err(format!("cell {args:?} ({cfg:?}) failed: {}", out.status));
        }
        let text = String::from_utf8_lossy(&out.stdout);
        let mut kv = Kv::new();
        for line in text.lines() {
            let mut it = line.split_whitespace();
            if let (Some(k), Some(v)) = (it.next(), it.next()) {
                let v = v.parse().map_err(|_| format!("bad cell line {line:?}"))?;
                kv.insert(k.to_string(), v);
            }
        }
        Ok(kv)
    }

    fn cell(&self, s: Scheme, cfg: Config, secs: f64, reps: usize) -> Result<Kv, String> {
        let mut args: Vec<String> = vec![
            "cell".into(),
            "--workload".into(),
            self.workload.name().into(),
            "--scheme".into(),
            s.name().into(),
            "--seed".into(),
            self.seed.to_string(),
            "--seconds".into(),
            secs.to_string(),
            "--reps".into(),
            reps.to_string(),
        ];
        if cfg == Config::Traced {
            args.push("--spans".into());
            args.push(spans_path(self.workload, s, self.seed));
        }
        let kv = self.child(&args, cfg)?;
        eprintln!(
            "{:<12} {:<6} {:<7?} {:>9.4} Mops/s  rss {:>8.2} MiB  setup {:>8.4} s  failed {}",
            self.workload.name(),
            s.name(),
            cfg,
            mops(&kv),
            kv["rss_mib"],
            kv["setup_s"],
            kv["failed"],
        );
        Ok(kv)
    }
}

fn mops(kv: &Kv) -> f64 {
    kv["mops"]
}

/// Where the traced run writes a cell's spans: under the build directory,
/// which the repository ignores.
fn spans_path(w: Workload, s: Scheme, seed: u64) -> String {
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into());
    format!(
        "{dir}/perfbench-spans/{}-{}-seed{seed}.jsonl",
        w.name(),
        s.name()
    )
}

/// Result totals over every child.
#[derive(Default)]
struct Totals {
    attempted: u64,
    failed: u64,
}

impl Totals {
    fn add(&mut self, kv: &Kv) {
        self.attempted += kv["ops"] as u64;
        self.failed += kv["failed"] as u64;
    }
}

pub fn main(flags: &Flags) -> Result<(), String> {
    let w = workload(flags)?;
    let secs = seconds(flags)?;
    let trace: u8 = flags.required("--trace")?;
    let tiny = flags.switch("--tiny");
    // Cells of one scheme differ by 10-20% in throughput and, on the
    // queue, in peak RSS, so each scheme reports the median of many short
    // cells. A tree cell spends a second on its prefill, so the tree runs
    // fewer, longer cells and builds once per cell.
    let procs = match w {
        Workload::QueueChurn => 11,
        Workload::TreeRead => 3,
        Workload::ListStall => 9,
    };
    let plan = Plan {
        workload: w,
        seed: flags.required("--seed")?,
        tiny,
        seconds: secs,
        reps: match (tiny, w) {
            (true, _) => 2,
            (false, Workload::TreeRead) => 1,
            (false, _) => 7,
        },
        procs,
    };
    eprintln!(
        "{} on {} CPUs, seed {}, {secs} s",
        w.name(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        plan.seed
    );
    let mut totals = Totals::default();
    let values = match trace {
        0 => bare(&plan, &mut totals)?,
        1 => traced(&plan, &mut totals)?,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    let names = if trace == 0 {
        metrics::end_to_end()
    } else {
        metrics::per_layer()
    };
    let mut body = Vec::new();
    for (name, unit) in names {
        let v = *values
            .get(&name)
            .ok_or(format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        body.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        totals.failed == 0,
        totals.attempted.max(1),
        totals.failed,
        body.join(", ")
    );
    Ok(())
}

/// End-to-end metrics: the median of `procs` bare cells per scheme.
fn bare(plan: &Plan, totals: &mut Totals) -> Result<Kv, String> {
    let cell_s = plan.seconds / (Scheme::ALL.len() * plan.procs) as f64;
    let mut cells: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    for _ in 0..plan.procs {
        for s in Scheme::ALL {
            let kv = plan.cell(s, Config::Bare, cell_s, plan.reps)?;
            totals.add(&kv);
            for k in ["mops", "rss_mib", "setup_s"] {
                cells.entry((s.name(), k)).or_default().push(kv[k]);
            }
        }
    }
    let mut m = Kv::new();
    let mut setup = 0.0;
    for s in Scheme::ALL {
        let n = s.name();
        if plan.procs > 1 {
            for k in ["mops", "rss_mib"] {
                let v = &cells[&(n, k)];
                let (q1, q3) = quartiles(v);
                eprintln!(
                    "{n:<6} {k:<8} median {:.4} quartiles [{q1:.4}, {q3:.4}] over {} cells",
                    median(v),
                    v.len()
                );
            }
        }
        m.insert(format!("mops.{n}"), median(&cells[&(n, "mops")]));
        m.insert(format!("peak_rss_mib.{n}"), median(&cells[&(n, "rss_mib")]));
        setup += median(&cells[&(n, "setup_s")]);
    }
    m.insert("setup_s".into(), setup);
    Ok(m)
}

/// Per-layer metrics: the primitive cells, one traced cell per scheme,
/// and the layer-price ladder.
fn traced(plan: &Plan, totals: &mut Totals) -> Result<Kv, String> {
    let mut m = plan.child(
        &[
            "prim".into(),
            "--seconds".into(),
            (if plan.tiny { 0.005 } else { 0.05 }).to_string(),
        ],
        Config::Bare,
    )?;
    // Each traced and ladder cell runs a tenth of `--seconds`; with 20 to
    // 36 cells, a traced run stays well inside the run time limit.
    let cell_s = plan.seconds / 10.0;
    // Interleaved rounds of the layer-price ladder; a tree cell's prefill
    // takes seconds, so the tree gets one.
    let rounds = if plan.workload == Workload::TreeRead {
        1
    } else {
        2
    };
    let mut ladder: BTreeMap<(&str, usize), Vec<f64>> = BTreeMap::new();
    for round in 0..rounds {
        for s in Scheme::ALL {
            for i in 0..Config::LADDER.len() {
                let step = (i + round) % Config::LADDER.len();
                let kv = plan.cell(s, Config::LADDER[step], cell_s, 1)?;
                totals.add(&kv);
                ladder.entry((s.name(), step)).or_default().push(mops(&kv));
            }
        }
    }
    for s in Scheme::ALL {
        let kv = plan.cell(s, Config::Traced, cell_s, 1)?;
        totals.add(&kv);
        let n = s.name();
        let ops = kv["ops"] as u64;
        let stat = |k: &str| kv[k] as u64;
        for op in crate::spans::Op::ALL {
            for q in ["p50_ns", "p99_ns"] {
                m.insert(
                    format!("structures.{}.{q}.{n}", op.name()),
                    kv[&format!("{}.{q}", op.name())],
                );
            }
        }
        m.insert(
            format!("structures.dequeue_empty_per_kop.{n}"),
            per_kop(stat("empty_dequeues"), ops),
        );
        // Manual schemes report into `reclaim.*.<s>`, OrcGC into `core.*`.
        let (layer, suffix) = if s == Scheme::Orcgc {
            ("core", String::new())
        } else {
            ("reclaim", format!(".{n}"))
        };
        m.insert(
            format!("{layer}.retires_per_kop{suffix}"),
            per_kop(stat("retires"), ops),
        );
        m.insert(
            format!("{layer}.scans_per_kop{suffix}"),
            per_kop(stat("scans"), ops),
        );
        m.insert(
            format!("{layer}.freed_per_scan{suffix}"),
            ratio(stat("reclaims"), stat("scans")),
        );
        m.insert(
            format!("{layer}.protect_retries_per_kop{suffix}"),
            per_kop(stat("protect_retries"), ops),
        );
        m.insert(
            format!("{layer}.handovers_per_kop{suffix}"),
            per_kop(stat("handovers"), ops),
        );
        m.insert(
            format!("{layer}.peak_unreclaimed{suffix}"),
            kv["peak_unreclaimed"],
        );
        m.insert(
            format!("{layer}.delay_p99_us{suffix}"),
            kv["delay_p99_ns"] / 1e3,
        );
        let med = |i: usize| median(&ladder[&(n, i)]);
        let bare = med(0);
        m.insert(format!("price.stats_pct.{n}"), loss_pct(bare, med(1)));
        m.insert(format!("price.trace_pct.{n}"), loss_pct(bare, med(2)));
        m.insert(format!("price.pool_pct.{n}"), loss_pct(bare, med(3)));
        m.insert(format!("trace.overhead_pct.{n}"), loss_pct(bare, mops(&kv)));
    }
    Ok(m)
}
