//! End-to-end, layer-by-layer benchmark of the MCOS solvers.
//!
//! ```text
//! perfbench --workload <rrna23s|dense200|sparse4k_budget|sparse12k_budget> --seed <n>
//!           --seconds <s> --trace <0|1> [--corrupt <score|mapping>]
//! ```
//!
//! With `--trace 0` it times complete solves (`prna_aligned` at every
//! CPU of the affinity set and at one worker) and set-up, and prints the
//! end-to-end metrics; with `--trace 1` it times each layer from the
//! benchmark's own spans and the program's counters, and prints the
//! per-layer metrics. Every answer is checked against `check`, which
//! shares no code with the program's solvers. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! See README.md for the workloads, the metrics and the method.

mod alloc;
mod check;
mod gen;
mod stats;
mod sys;
mod traced;

use std::hint::black_box;
use std::process::exit;
use std::time::{Duration, Instant};

use load_balance::{Assignment, Policy};
use mcos_core::preprocess::Preprocessed;
use mcos_core::traceback::Mapping;
use mcos_core::workload;
use mcos_parallel::engine::RetentionPlan;
use mcos_parallel::{prna_aligned, PrnaConfig, PrnaOutcome};
use mcos_telemetry::Recorder;
use rna_structure::formats::dot_bracket;
use rna_structure::ArcStructure;

use stats::summarize;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Bytes per reported megabyte.
pub const MB: f64 = 1e6;

/// Nesting work of each `rrna23s` structure (within 1%): the median of
/// the unconditioned generator's draws, so a pair has about 108 M cells.
const RRNA_WORK: u64 = 10_400;

/// Resident-cell budget of `sparse12k_budget`: above the input's
/// stage-one liveness floor, far below its 3.24 M-cell grid.
const SPARSE_BUDGET: u64 = 1 << 16;

/// The same for `sparse4k_budget`, about the same share (2%) of its
/// 360,000-cell grid.
const SPARSE4K_BUDGET: u64 = 1 << 13;

/// Wall time one set-up sample spans; enough repetitions are batched
/// to keep it well above timer resolution.
const SETUP_BATCH: Duration = Duration::from_millis(10);

const WORKLOADS: [&str; 4] = ["rrna23s", "dense200", "sparse4k_budget", "sparse12k_budget"];

/// One workload: two dot-bracket inputs and an optional memory budget.
pub struct Workload {
    pub name: &'static str,
    pub texts: [String; 2],
    pub budget: Option<u64>,
}

impl Workload {
    fn new(name: &str, seed: u64) -> Option<Workload> {
        let (name, texts, budget) = match name {
            "rrna23s" => {
                let rrna = |s| gen::rrna_with_work(2900, 800, RRNA_WORK, gen::stream(seed, s));
                ("rrna23s", [rrna(1), rrna(2)], None)
            }
            "dense200" => {
                let w = gen::worst_case_nested(200);
                ("dense200", [w.clone(), w], None)
            }
            "sparse4k_budget" => {
                let f = gen::sparse_hairpin_field(4_000, 200, 3, 4, gen::stream(seed, 3));
                ("sparse4k_budget", [f.clone(), f], Some(SPARSE4K_BUDGET))
            }
            "sparse12k_budget" => {
                let f = gen::sparse_hairpin_field(12_000, 600, 3, 4, gen::stream(seed, 3));
                ("sparse12k_budget", [f.clone(), f], Some(SPARSE_BUDGET))
            }
            _ => return None,
        };
        Some(Workload {
            name,
            texts,
            budget,
        })
    }

    /// The program's configuration for a solve at `processors` workers:
    /// its defaults plus this workload's budget.
    pub fn config(&self, processors: u32) -> PrnaConfig {
        PrnaConfig {
            processors,
            mem_budget: self.budget,
            ..PrnaConfig::default()
        }
    }
}

/// Inputs parsed and preprocessed, with columns assigned: what set-up
/// hands to a solve.
pub struct Ready {
    pub s: [ArcStructure; 2],
    pub p: [Preprocessed; 2],
    pub assignment: Assignment,
}

/// Text in memory to ready-to-solve.
pub fn set_up(w: &Workload, processors: u32) -> Ready {
    let parse = |t: &str| dot_bracket::parse(t).expect("generated text parses");
    let s = [parse(&w.texts[0]), parse(&w.texts[1])];
    let p = [Preprocessed::build(&s[0]), Preprocessed::build(&s[1])];
    let weights = workload::column_weights(&p[0], &p[1]);
    let assignment = Policy::Greedy.assign(&weights, processors);
    Ready { s, p, assignment }
}

/// One complete solve: score plus alignment from the same call.
pub fn solve(
    w: &Workload,
    ready: &Ready,
    processors: u32,
    recorder: &Recorder,
) -> (PrnaOutcome, Mapping) {
    let (s1, s2) = (black_box(&ready.s[0]), black_box(&ready.s[1]));
    black_box(prna_aligned(s1, s2, &w.config(processors), recorder))
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Corrupt {
    Score,
    Mapping,
}

/// Checks every answer against the independent references, and that
/// all answers of a run agree.
pub struct Checker {
    arcs: [Vec<(u32, u32)>; 2],
    expected: u32,
    first: Option<(u32, Vec<(u32, u32)>)>,
    corrupt: Option<Corrupt>,
    pub attempted: u64,
    pub failed: u64,
}

impl Checker {
    /// A self-comparison must match every arc; any other pair is scored
    /// by the direct recurrence in `check` (outside any timed region).
    fn new(w: &Workload, corrupt: Option<Corrupt>) -> Checker {
        let arcs = [check::arcs_of(&w.texts[0]), check::arcs_of(&w.texts[1])];
        let expected = if w.texts[0] == w.texts[1] {
            arcs[0].len() as u32
        } else {
            let t = Instant::now();
            let score = check::mcos_score(&w.texts[0], &w.texts[1]);
            eprintln!(
                "reference score {score} in {:.3} s",
                t.elapsed().as_secs_f64()
            );
            score
        };
        Checker {
            arcs,
            expected,
            first: None,
            corrupt,
            attempted: 0,
            failed: 0,
        }
    }

    /// Counts one operation; `corruptible` answers get the requested
    /// corruption first, so the run shows that the checks catch it.
    pub fn check(&mut self, score: u32, mapping: Mapping, corruptible: bool) {
        let mut pairs = mapping.pairs;
        let mut score = score;
        match self.corrupt.filter(|_| corruptible) {
            Some(Corrupt::Score) => score += 1,
            Some(Corrupt::Mapping) if pairs.len() >= 2 => {
                let (b0, b1) = (pairs[0].1, pairs[1].1);
                pairs[0].1 = b1;
                pairs[1].1 = b0;
            }
            _ => {}
        }
        self.attempted += 1;
        let verdict = if score != self.expected {
            Err(format!("score {score}, expected {}", self.expected))
        } else {
            check::check_mapping(&self.arcs[0], &self.arcs[1], &pairs, score)
        }
        .and_then(|()| match &self.first {
            Some(first) if *first != (score, pairs.clone()) => {
                Err("answer differs from the run's first answer".to_string())
            }
            Some(_) => Ok(()),
            None => {
                self.first = Some((score, pairs));
                Ok(())
            }
        });
        if let Err(why) = verdict {
            self.failed += 1;
            if self.failed <= 3 {
                eprintln!("FAILED: {why}");
            }
        }
    }
}

/// The make-up of a workload's input, printed with every run.
fn describe(w: &Workload, ready: &Ready) -> String {
    let [p1, p2] = &ready.p;
    let under = |p: &Preprocessed| {
        (0..p.num_arcs())
            .map(|k| p.under_count(k) as u64)
            .sum::<u64>()
    };
    let grid = p1.num_arcs() as u64 * p2.num_arcs() as u64;
    let mut out = format!(
        "input {}: lengths {} / {} nt, arcs {} / {}, {} slices, {} cells, grid {} cells",
        w.name,
        w.texts[0].len(),
        w.texts[1].len(),
        p1.num_arcs(),
        p2.num_arcs(),
        grid,
        under(p1) * under(p2),
        grid,
    );
    if let Some(budget) = w.budget {
        let schedule = PrnaConfig::default().backend.schedule;
        let floor = RetentionPlan::new(p1, p2, schedule).liveness().floor_cells;
        out += &format!(", budget {budget} cells over a liveness floor of {floor}");
        if !(floor < budget && budget < grid) {
            eprintln!("{out}\nbudget must lie strictly between the floor and the grid");
            exit(1);
        }
    }
    out
}

/// A metric's name, unit and samples, in print order.
pub type Metric<'a> = (&'a str, &'a str, &'a [f64]);

/// Prints the per-metric detail line and the result line.
pub fn report(checker: &Checker, metrics: &[Metric], extra: &str) {
    let mut detail = Vec::new();
    let mut result = Vec::new();
    for (name, unit, samples) in metrics {
        let s = summarize(samples);
        println!(
            "{name:<32} median {:>14.6} {unit:<7} q1 {:>14.6}  q3 {:>14.6}  n {}",
            s.median, s.q1, s.q3, s.n
        );
        detail.push(format!(
            "\"{name}\": {{\"median\": {:e}, \"q1\": {:e}, \"q3\": {:e}, \"n\": {}, \"samples\": {:?}}}",
            s.median, s.q1, s.q3, s.n, samples
        ));
        result.push(format!(
            "\"{name}\": {{\"value\": {:e}, \"unit\": \"{unit}\"}}",
            s.median
        ));
    }
    println!("detail {{{}{extra}}}", detail.join(", "));
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checker.attempted > 0 && checker.failed == 0,
        checker.attempted,
        checker.failed,
        result.join(", ")
    );
}

struct Args {
    workload: Workload,
    seconds: f64,
    trace: bool,
    corrupt: Option<Corrupt>,
}

fn usage(why: &str) -> ! {
    eprintln!(
        "error: {why}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--corrupt <score|mapping>]",
        WORKLOADS.join("|")
    );
    exit(2)
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut corrupt = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--corrupt" => {
                corrupt = match value.as_str() {
                    "score" => Some(Corrupt::Score),
                    "mapping" => Some(Corrupt::Mapping),
                    _ => usage("--corrupt takes score or mapping"),
                }
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let seed = seed.unwrap_or_else(|| usage("--seed <n> is required"));
    let name = workload.unwrap_or_else(|| usage("--workload is required"));
    Args {
        workload: Workload::new(&name, seed)
            .unwrap_or_else(|| usage(&format!("unknown workload {name}"))),
        seconds: seconds.unwrap_or_else(|| usage("--seconds <s> is required")),
        trace: trace.unwrap_or_else(|| usage("--trace <0|1> is required")),
        corrupt,
    }
}

fn main() {
    let args = parse_args();
    let w = &args.workload;
    let cpus = sys::affinity();
    let nproc = cpus.len() as u32;
    let ready = set_up(w, nproc);
    println!("{}; {nproc} workers on CPUs {cpus:?}", describe(w, &ready));
    let mut checker = Checker::new(w, args.corrupt);
    if w.texts[0] == w.texts[1] {
        cross_check(w, nproc, &mut checker);
    }
    if args.trace {
        traced::run(w, &cpus, args.seconds, &mut checker);
    } else {
        end_to_end(w, &cpus, args.seconds, &mut checker);
    }
}

/// A self-comparison's answer is the arc count and its mapping all but
/// the identity, so it cannot show a solver fault that needs a
/// non-trivial optimum. Before timing, a fixed pair of distinct
/// structures is therefore solved at `nproc` workers and at one, under
/// a budget between its floor and grid if the workload has one, and
/// checked against the direct recurrence. Both solves count as
/// operations.
fn cross_check(w: &Workload, nproc: u32, checker: &mut Checker) {
    let rrna = |s| gen::rrna_like(600, 160, 7, 0.55, gen::stream(0, s));
    let mut pair = Workload {
        name: "cross_check",
        texts: [rrna(1), rrna(2)],
        budget: None,
    };
    let ready = set_up(&pair, nproc);
    if w.budget.is_some() {
        let schedule = PrnaConfig::default().backend.schedule;
        let floor = RetentionPlan::new(&ready.p[0], &ready.p[1], schedule)
            .liveness()
            .floor_cells;
        pair.budget = Some(2 * floor);
    }
    println!("{}", describe(&pair, &ready));
    let mut pair_checker = Checker::new(&pair, None);
    for processors in [nproc, 1] {
        let (out, mapping) = solve(&pair, &ready, processors, &Recorder::disabled());
        pair_checker.check(out.score, mapping, false);
    }
    checker.attempted += pair_checker.attempted;
    checker.failed += pair_checker.failed;
}

/// Largest share of a solve's wall time the hypervisor may have taken
/// from one of the solve's CPUs (`steal` in `/proc/stat`) for the solve
/// to count as undisturbed: 2%, one accounting tick of a 0.5-s solve.
const STEAL_LIMIT: f64 = 0.02;

/// One timed solve.
struct Sample {
    /// Wall seconds.
    wall: f64,
    /// Process CPU seconds.
    cpu: f64,
    /// Peak live heap above the pre-solve level, in MB.
    heap: f64,
    /// Largest share of `wall` the hypervisor took from one of the
    /// solve's CPUs.
    stolen: f64,
    /// Index in the affinity set of the CPU a one-worker solve ran on.
    on: usize,
}

/// Times one solve at `processors` workers running on `cpus`.
fn timed_solve(
    w: &Workload,
    ready: &Ready,
    processors: u32,
    cpus: &[usize],
    on: usize,
    checker: &mut Checker,
) -> Sample {
    let base = alloc::window();
    let steal = sys::steal();
    let cpu = sys::process_cpu();
    let t = Instant::now();
    let (out, mapping) = solve(w, ready, processors, &Recorder::disabled());
    let wall = t.elapsed().as_secs_f64();
    let cpu = (sys::process_cpu() - cpu).as_secs_f64();
    let heap = alloc::peak().saturating_sub(base) as f64 / MB;
    let stolen = sys::steal()
        .iter()
        .zip(&steal)
        .enumerate()
        .filter(|(c, _)| cpus.contains(c))
        .map(|(_, (after, before))| after.saturating_sub(*before).as_secs_f64() / wall)
        .fold(0.0, f64::max);
    checker.check(out.score, mapping, processors > 1);
    Sample {
        wall,
        cpu,
        heap,
        stolen,
        on,
    }
}

/// The samples a metric is reported over: the solves the hypervisor
/// left undisturbed, or, if fewer than half were, the least-disturbed
/// half. A solve from which the hypervisor takes a tenth of one CPU's
/// time can take twice as long at two workers, since every row step
/// waits for the slowest worker; such phases last minutes on a shared
/// host, and no change of the program causes them.
fn undisturbed(samples: &[Sample]) -> Vec<&Sample> {
    let mut kept: Vec<&Sample> = samples.iter().collect();
    kept.sort_by(|a, b| a.stolen.total_cmp(&b.stolen));
    let clean = kept.iter().filter(|s| s.stolen <= STEAL_LIMIT).count();
    kept.truncate(clean.max(samples.len().div_ceil(2)));
    kept
}

/// The untraced run: whole rounds until `seconds` would be exceeded.
/// A round visits every CPU of the affinity set once; each visit takes
/// one set-up sample and one solve at every CPU and at one worker
/// pinned to that visit's CPU, alternating which of the two solves goes
/// first. So single-thread samples spread evenly over the CPUs, and a
/// slow phase of the host hits every metric alike.
fn end_to_end(w: &Workload, cpus: &[usize], seconds: f64, checker: &mut Checker) {
    let nproc = cpus.len() as u32;
    // Warm-up: fault in the allocator's pages and the code, check once,
    // not counted as an operation.
    let (attempted, failed) = (checker.attempted, checker.failed);
    let ready = set_up(w, nproc);
    for processors in [nproc, 1] {
        let (out, mapping) = solve(w, &ready, processors, &Recorder::disabled());
        checker.check(out.score, mapping, false);
    }
    if checker.failed > failed {
        eprintln!("warm-up answers are wrong");
    }
    (checker.attempted, checker.failed) = (attempted, failed);
    let t = Instant::now();
    drop(black_box(set_up(w, nproc)));
    let reps = (SETUP_BATCH.as_secs_f64() / t.elapsed().as_secs_f64())
        .ceil()
        .max(1.0) as u32;

    let (mut setup, mut par, mut seq) = (vec![], vec![], vec![]);
    let start = Instant::now();
    let mut round = 0usize;
    loop {
        let round_start = Instant::now();
        for (i, &cpu) in cpus.iter().enumerate() {
            let t = Instant::now();
            for _ in 0..reps {
                drop(black_box(set_up(w, nproc)));
            }
            setup.push(t.elapsed().as_secs_f64() / reps as f64);
            let seq_first = (round + i).is_multiple_of(2);
            for one in [seq_first, !seq_first] {
                if one {
                    sys::pin(&[cpu]);
                    seq.push(timed_solve(w, &ready, 1, &[cpu], i, checker));
                    sys::pin(cpus);
                } else {
                    par.push(timed_solve(w, &ready, nproc, cpus, i, checker));
                }
            }
        }
        round += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + round_start.elapsed().as_secs_f64() > seconds {
            break;
        }
    }
    let (par_kept, seq_kept) = (undisturbed(&par), undisturbed(&seq));
    let of =
        |kept: &[&Sample], f: fn(&Sample) -> f64| kept.iter().map(|s| f(s)).collect::<Vec<_>>();
    let per_cpu: Vec<String> = cpus
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let on: Vec<f64> = seq_kept
                .iter()
                .filter(|s| s.on == i)
                .map(|s| s.wall)
                .collect();
            format!("\"{c}\": {:e}", summarize(&on).median)
        })
        .collect();
    eprintln!(
        "{round} rounds, {reps} set-ups per sample; disturbed solves set aside: {} of {} at {nproc} workers, {} of {} at one",
        par.len() - par_kept.len(),
        par.len(),
        seq.len() - seq_kept.len(),
        seq.len()
    );
    report(
        checker,
        &[
            ("solve_s", "s", &of(&par_kept, |s| s.wall)),
            ("solve_seq_s", "s", &of(&seq_kept, |s| s.wall)),
            ("solve_cpu_s", "s", &of(&par_kept, |s| s.cpu)),
            ("setup_s", "s", &setup),
            ("peak_heap_mb", "MB", &of(&par_kept, |s| s.heap)),
            ("peak_heap_seq_mb", "MB", &of(&seq_kept, |s| s.heap)),
        ],
        &format!(
            ", \"rounds\": {round}, \"setup_reps\": {reps}, \"set_aside\": [{}, {}], \"stolen\": [{:?}, {:?}], \"solve_seq_s_by_cpu\": {{{}}}",
            par.len() - par_kept.len(),
            seq.len() - seq_kept.len(),
            of(&par.iter().collect::<Vec<_>>(), |s| s.stolen),
            of(&seq.iter().collect::<Vec<_>>(), |s| s.stolen),
            per_cpu.join(", ")
        ),
    );
}
