//! Orchestration: rounds interleaved across workloads, the traced pass, the
//! medians over rounds, and everything that is printed or written.

use crate::env::Environment;
use crate::gen;
use crate::json::Writer;
use crate::kit::GemmKit;
use crate::layers;
use crate::metrics::{Metrics, END_TO_END, PER_LAYER};
use crate::serve::{self, Reference, Traced};
use crate::stats::{max_deviation, median, quartile_spread};
use crate::sweep;
use crate::trace::Tracer;
use crate::workload::{RoundOut, Workload};
use std::fs;
use std::path::{Path, PathBuf};

/// Rounds of a full-length run; a run shorter than this many seconds has one
/// round per second.
const ROUNDS: usize = 5;
/// The metric a run's `client.round_spread` and trace overhead are taken on.
const PRIMARY: &str = "latency_p10_us";

const TRACE_NOTE: &str = "Spans are recorded from outside the program: `request` covers due→reply \
with `serve.submit` and `serve.wait` nested in it; `replay` roots hold sibling spans of the layers \
called directly (zoo.compile_plan, plan.execute, gemm.execute), so a layer's self time is its span \
minus the replayed spans of the layers it is known to call. Spans of one request share `req`. \
Only every 16th request of the traced round is written.";

pub struct Options {
    pub workloads: Vec<Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One workload's numbers for one run of the set.
pub struct WorkloadResult {
    pub workload: Workload,
    /// Median over the untraced rounds.
    pub e2e: Metrics,
    /// Per-round values behind `e2e`, in round order.
    pub e2e_rounds: Vec<Metrics>,
    /// Median over every round that produced the metric, plus the probes.
    pub layer: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: Vec<String>,
    pub flags: Vec<&'static str>,
    /// Hash of the first requests the seed generates for this workload (0
    /// for the sweep, whose only input is the seed): equal hashes, equal
    /// inputs.
    pub inputs_hash: u64,
}

impl WorkloadResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Where results and traces go: `out/` beside this package's manifest.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_file(name: &str, text: &str) {
    let dir = out_dir();
    let path = dir.join(name);
    if let Err(e) = fs::create_dir_all(&dir).and_then(|()| fs::write(&path, text)) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

fn one_round(
    w: Workload,
    opts: &Options,
    round: usize,
    secs: f64,
    reference: Option<&mut Reference>,
    traced: Option<Traced<'_>>,
) -> RoundOut {
    match (w.serve_spec(), reference) {
        (Some(spec), Some(reference)) => {
            serve::run_round(&spec, opts.seed, round, secs, reference, traced)
        }
        _ => sweep::run_round(opts.seed, round, secs, traced.map(|t| t.tracer)),
    }
}

fn aggregate(
    w: Workload,
    seed: u64,
    untraced: Vec<RoundOut>,
    traced: Option<RoundOut>,
    probes: Option<&Metrics>,
) -> WorkloadResult {
    let mut e2e = Metrics::default();
    for d in END_TO_END {
        let values: Vec<f64> = untraced.iter().map(|r| r.e2e.get(d.name)).collect();
        // Memory is the exception to "median over rounds": each later round
        // adds what the allocator retains from servers already shut down
        // (18 → 22 → 23 → 27 → 29 MiB on dense_burst), by an amount that
        // varies run to run; the smallest round is the server's own size.
        let value = if d.name == "rss_mb" {
            values.iter().copied().fold(f64::INFINITY, f64::min)
        } else {
            median(&values)
        };
        e2e.set(d.name, value);
    }
    let mut layer = Metrics::default();
    for d in PER_LAYER {
        let values: Vec<f64> = untraced
            .iter()
            .chain(&traced)
            .filter(|r| r.layer.has(d.name))
            .map(|r| r.layer.get(d.name))
            .collect();
        if !values.is_empty() {
            layer.set(d.name, median(&values));
        }
    }
    let primary: Vec<f64> = untraced.iter().map(|r| r.e2e.get(PRIMARY)).collect();
    layer.set("client.round_spread", max_deviation(&primary));
    if let Some(t) = &traced {
        let base = e2e.get(PRIMARY);
        if base > 0.0 {
            layer.set(
                "client.trace_overhead_share",
                (t.e2e.get(PRIMARY) - base) / base,
            );
        }
    }
    if let Some(p) = probes {
        layer.extend(p);
    }
    let mut flags: Vec<&'static str> = Vec::new();
    let mut mismatches = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let e2e_rounds = untraced.iter().map(|r| r.e2e.clone()).collect();
    for r in untraced.into_iter().chain(traced) {
        attempted += r.attempted;
        failed += r.failed;
        mismatches.extend(r.mismatches);
        for f in r.flags {
            if !flags.contains(&f) {
                flags.push(f);
            }
        }
    }
    WorkloadResult {
        workload: w,
        e2e,
        e2e_rounds,
        layer,
        attempted,
        failed,
        mismatches,
        flags,
        inputs_hash: w
            .serve_spec()
            .map_or(0, |spec| gen::stream_hash(seed, 0, spec.kind, 4096)),
    }
}

/// Runs the selected workloads once: `rounds` untraced rounds each,
/// interleaved round-robin so a host stall taints one round of every
/// workload rather than one workload; then, when tracing, one more round
/// each with spans kept, and the layer probes.
pub fn run_set(opts: &Options) -> Vec<WorkloadResult> {
    let rounds = (opts.seconds as usize).clamp(1, ROUNDS);
    let round_secs = opts.seconds / rounds as f64;
    // References are built before anything is timed.
    let mut references: Vec<Option<Reference>> = opts
        .workloads
        .iter()
        .map(|w| {
            w.serve_spec()
                .map(|spec| Reference::new(opts.seed, opts.seed, spec.kind))
        })
        .collect();
    let mut untraced: Vec<Vec<RoundOut>> = opts.workloads.iter().map(|_| Vec::new()).collect();
    for round in 0..rounds {
        for (i, &w) in opts.workloads.iter().enumerate() {
            let out = one_round(w, opts, round, round_secs, references[i].as_mut(), None);
            eprintln!(
                "  {} round {}/{}: {} = {:.1}",
                w.name(),
                round + 1,
                rounds,
                PRIMARY,
                out.e2e.get(PRIMARY)
            );
            untraced[i].push(out);
        }
    }
    let mut traced: Vec<Option<RoundOut>> = opts.workloads.iter().map(|_| None).collect();
    let mut probes = None;
    if opts.trace {
        let mut kit = GemmKit::new(opts.seed);
        for (i, &w) in opts.workloads.iter().enumerate() {
            let mut tracer = Tracer::new();
            let out = one_round(
                w,
                opts,
                rounds,
                round_secs,
                references[i].as_mut(),
                Some(Traced {
                    tracer: &mut tracer,
                    kit: &mut kit,
                }),
            );
            write_file(
                &format!("trace_{}.json", w.name()),
                &tracer.to_json(w.name(), opts.seed, TRACE_NOTE),
            );
            eprintln!(
                "  {} traced round: {} spans",
                w.name(),
                tracer.spans().len()
            );
            traced[i] = Some(out);
        }
        let mut tracer = Tracer::new();
        probes = Some(layers::probe_all(&mut tracer, &mut kit, opts.seed));
        write_file(
            "trace_layers.json",
            &tracer.to_json("layers", opts.seed, TRACE_NOTE),
        );
    }
    opts.workloads
        .iter()
        .zip(untraced)
        .zip(traced)
        .map(|((&w, u), t)| aggregate(w, opts.seed, u, t, probes.as_ref()))
        .collect()
}

/// Prints every metric by name with its unit.
pub fn print_results(results: &[WorkloadResult], trace: bool) {
    for r in results {
        println!(
            "== {} == inputs {:016x} attempted {} failed {} correct {}{}",
            r.workload.name(),
            r.inputs_hash,
            r.attempted,
            r.failed,
            r.correct(),
            if r.flags.is_empty() {
                String::new()
            } else {
                format!(" flags {}", r.flags.join(","))
            }
        );
        for d in END_TO_END {
            let rounds: Vec<String> = r
                .e2e_rounds
                .iter()
                .map(|m| format!("{:.4}", m.get(d.name)))
                .collect();
            println!(
                "  {:<40} {:>16.4} {:<8} rounds [{}]",
                d.name,
                r.e2e.get(d.name),
                d.unit,
                rounds.join(" ")
            );
        }
        for d in PER_LAYER {
            if trace || r.layer.has(d.name) {
                println!("  {:<40} {:>16.4} {}", d.name, r.layer.get(d.name), d.unit);
            }
        }
        for line in &r.mismatches {
            println!("  MISMATCH {line}");
        }
    }
}

fn write_metric_map(
    w: &mut Writer,
    table: &[crate::metrics::MetricDef],
    values: &Metrics,
    rounds: Option<&[Metrics]>,
) {
    w.begin_obj();
    for d in table {
        w.key(d.name).begin_obj();
        w.key("value").num(values.get(d.name));
        w.key("unit").str(d.unit);
        w.key("better").str(d.better.as_str());
        if let Some(rounds) = rounds {
            w.key("bound").num(d.bound);
            w.key("rounds").begin_arr();
            for r in rounds {
                w.num(r.get(d.name));
            }
            w.end_arr();
        }
        w.end_obj();
    }
    w.end_obj();
}

/// `results.json`: the environment, the arguments, and per workload every
/// metric with its unit, the per-round values and the verdict.
pub fn write_results(
    env: &Environment,
    opts: &Options,
    runs: &[Vec<WorkloadResult>],
    repeat_report: &str,
) {
    let mut w = Writer::new();
    w.begin_obj();
    w.key("env");
    env.write_json(&mut w);
    w.key("args").begin_obj();
    w.key("seed").uint(opts.seed);
    w.key("seconds").num(opts.seconds);
    w.key("trace").bool(opts.trace);
    w.key("workloads").begin_arr();
    for wl in &opts.workloads {
        w.str(wl.name());
    }
    w.end_arr().end_obj();
    w.key("runs").begin_arr();
    for results in runs {
        w.newline().begin_obj();
        for r in results {
            w.newline().key(r.workload.name()).begin_obj();
            w.key("correct").bool(r.correct());
            w.key("inputs_hash").str(&format!("{:016x}", r.inputs_hash));
            w.key("attempted").uint(r.attempted);
            w.key("failed").uint(r.failed);
            w.key("flags").begin_arr();
            for f in &r.flags {
                w.str(f);
            }
            w.end_arr();
            w.key("mismatches").begin_arr();
            for m in &r.mismatches {
                w.str(m);
            }
            w.end_arr();
            w.newline().key("end_to_end");
            write_metric_map(&mut w, END_TO_END, &r.e2e, Some(&r.e2e_rounds));
            w.newline().key("per_layer");
            write_metric_map(&mut w, PER_LAYER, &r.layer, None);
            w.end_obj();
        }
        w.newline().end_obj();
    }
    w.newline().end_arr();
    if !repeat_report.is_empty() {
        w.key("repeat_report").str(repeat_report);
    }
    w.end_obj().newline();
    write_file("results.json", &w.finish());
}

/// The last line of standard output: one JSON object with `correct`,
/// `attempted`, `failed` and `metrics`. One workload prints bare metric
/// names (the driver's contract); several print `workload/metric`.
pub fn result_line(results: &[WorkloadResult], trace: bool) -> String {
    let table = if trace { PER_LAYER } else { END_TO_END };
    let mut w = Writer::new();
    w.begin_obj();
    w.key("correct")
        .bool(results.iter().all(WorkloadResult::correct));
    w.key("attempted")
        .uint(results.iter().map(|r| r.attempted).sum::<u64>().max(1));
    w.key("failed").uint(results.iter().map(|r| r.failed).sum());
    w.key("metrics").begin_obj();
    for r in results {
        let values = if trace { &r.layer } else { &r.e2e };
        for d in table {
            if results.len() == 1 {
                w.key(d.name);
            } else {
                w.key(&format!("{}/{}", r.workload.name(), d.name));
            }
            w.begin_obj();
            w.key("value").num(values.get(d.name));
            w.key("unit").str(d.unit);
            w.end_obj();
        }
    }
    w.end_obj().end_obj();
    w.finish()
}

/// The `--repeat` report: per workload × end-to-end metric, the values of
/// every run of the set, their quartile spread, and the drift between the
/// even-numbered and the odd-numbered runs (two alternating sets of the same
/// code), each against the metric's bound.
pub fn repeat_report(runs: &[Vec<WorkloadResult>]) -> String {
    let mut text = String::new();
    let Some(first) = runs.first() else {
        return text;
    };
    text.push_str(&format!(
        "repeat report over {} runs (spread = quartile distance / median; drift = |median of odd runs - median of even runs| / median of even runs)\n",
        runs.len()
    ));
    for (i, r) in first.iter().enumerate() {
        for d in END_TO_END {
            let values: Vec<f64> = runs.iter().map(|run| run[i].e2e.get(d.name)).collect();
            let even: Vec<f64> = values.iter().copied().step_by(2).collect();
            let odd: Vec<f64> = values.iter().copied().skip(1).step_by(2).collect();
            let spread = quartile_spread(&values);
            let drift = if odd.is_empty() || median(&even) == 0.0 {
                0.0
            } else {
                (median(&odd) - median(&even)).abs() / median(&even).abs()
            };
            // setup_s is exempt from the spread check, as in the driver.
            let within = (spread <= d.bound || d.name == "setup_s") && drift <= d.bound;
            // Every set of a --repeat runs in this one process, whose memory
            // only grows: rss_mb is comparable between fresh processes only
            // (tools/spread.py, the driver).
            let verdict = match (d.name, within) {
                ("rss_mb", _) => "n/a   ",
                (_, true) => "ok    ",
                (_, false) => "MISSES",
            };
            let shown: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
            text.push_str(&format!(
                "{:<12} {:<16} median {:>14.4} {:<6} spread {:>6.2}% drift {:>6.2}% bound {:>4.0}% {} [{}]\n",
                r.workload.name(),
                d.name,
                median(&values),
                d.unit,
                spread * 100.0,
                drift * 100.0,
                d.bound * 100.0,
                verdict,
                shown.join(" ")
            ));
        }
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(rtt: f64, setup: f64) -> RoundOut {
        let mut r = RoundOut::default();
        for d in END_TO_END {
            r.e2e.set(d.name, 1.0);
        }
        r.e2e.set("latency_p10_us", rtt);
        r.e2e.set("setup_s", setup);
        r.layer.set("client.answered", rtt * 10.0);
        r.attempted = 100;
        r
    }

    #[test]
    fn medians_over_rounds_and_trace_overhead() {
        let untraced = vec![round(300.0, 0.1), round(9000.0, 0.3), round(310.0, 0.2)];
        let mut traced = round(341.0, 0.2);
        traced.layer.set("trace.gemm_share", 0.4);
        traced.failed = 1;
        traced
            .mismatches
            .push("round 3 request 64: element 0".into());
        traced.flags.push("generator_limited");
        let res = aggregate(Workload::DenseSync, 1, untraced, Some(traced), None);
        // The stalled round does not move the median; the traced round is
        // not part of it.
        assert_eq!(res.e2e.get("latency_p10_us"), 310.0);
        assert_eq!(res.e2e.get("setup_s"), 0.2);
        assert_eq!(res.e2e_rounds.len(), 3);
        // Per-layer values take every round that has them.
        assert_eq!(res.layer.get("client.answered"), 3255.0);
        assert_eq!(res.layer.get("trace.gemm_share"), 0.4);
        assert!((res.layer.get("client.trace_overhead_share") - 0.1).abs() < 1e-12);
        assert!((res.layer.get("client.round_spread") - 8690.0 / 310.0).abs() < 1e-9);
        assert_eq!((res.attempted, res.failed), (400, 1));
        assert!(!res.correct());
        assert_eq!(res.flags, vec!["generator_limited"]);

        let line = result_line(&[res], false);
        assert!(line.starts_with(r#"{"correct":false,"attempted":400,"failed":1,"metrics":{"setup_s":{"value":0.2,"unit":"s"}"#), "{line}");
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());
    }

    #[test]
    fn repeat_report_flags_a_metric_that_misses_its_bound() {
        let run = |rtt: f64| {
            vec![aggregate(
                Workload::DenseSync,
                1,
                vec![round(rtt, 0.1)],
                None,
                None,
            )]
        };
        let steady = repeat_report(&[run(300.0), run(303.0), run(301.0), run(299.0)]);
        assert!(
            steady.contains("latency_p10_us") && !steady.contains("MISSES"),
            "{steady}"
        );
        let noisy = repeat_report(&[run(300.0), run(400.0), run(300.0), run(400.0)]);
        let line = noisy
            .lines()
            .find(|l| l.contains("latency_p10_us"))
            .unwrap();
        assert!(line.contains("MISSES"), "{line}");
        assert_eq!(repeat_report(&[]), "");
    }
}
