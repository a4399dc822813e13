//! The traced run: per-layer figures.
//!
//! Spans are recorded by the benchmark around each call into a layer —
//! name, start, end, parent and one id per solve — kept in memory and
//! written out at the end as a Chrome trace-event file, which Perfetto
//! loads. Counters and stall buckets come from what the program already
//! exposes: the span `Recorder`, `metrics::publish_run`, and the
//! `telemetry::mem` arena counters, which this binary's allocator feeds
//! during one untraced solve only, so the recorder's own buffers do not
//! count as the program's memory. End-to-end figures never come from
//! here.

use std::fmt::Write as _;
use std::time::Instant;

use load_balance::Policy;
use mcos_core::kernel::KernelKind;
use mcos_core::preprocess::Preprocessed;
use mcos_core::{srna2, traceback, workload};
use mcos_telemetry::mem::{self, Arena};
use mcos_telemetry::metrics::{names, publish_run, Registry};
use mcos_telemetry::Recorder;
use rna_structure::formats::dot_bracket;

use crate::{alloc, report, solve, sys, Checker, Ready, Workload, MB};

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    solve: u32,
    args: String,
}

/// The benchmark's own spans, in memory until the run ends.
struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>, solve: u32) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            solve,
            args: String::new(),
        });
        self.spans.len() - 1
    }

    /// Closes span `id`, returning its duration in seconds.
    fn close(&mut self, id: usize) -> f64 {
        let end = self.now();
        let span = &mut self.spans[id];
        span.end_ns = end;
        (end - span.start_ns) as f64 / 1e9
    }

    /// Chrome trace-event JSON: one complete (`X`) event per span.
    fn to_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"name\": \"{}\", \"cat\": \"perfbench\", \"ph\": \"X\", \"pid\": 1, \
                 \"tid\": 1, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {id}, \
                 \"parent\": {parent}, \"solve\": {}{}}}}}",
                if id == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.solve,
                s.args,
            );
        }
        out + "\n]}\n"
    }
}

/// Every per-layer series, in report order.
#[derive(Default)]
struct Layers {
    parse: Vec<f64>,
    preprocess: Vec<f64>,
    assign: Vec<f64>,
    max_over_mean: Vec<f64>,
    srna2: Vec<f64>,
    slices: Vec<f64>,
    cells: Vec<f64>,
    kernel_rate: Vec<f64>,
    stage_one: Vec<f64>,
    stage_one_seq: Vec<f64>,
    overhead_seq: Vec<f64>,
    busy: Vec<f64>,
    wait: Vec<f64>,
    stage_two: Vec<f64>,
    traceback: Vec<f64>,
    evicted: Vec<f64>,
    recompute_slices: Vec<f64>,
    recompute_cells: Vec<f64>,
    resident_peak: Vec<f64>,
    telemetry: Vec<f64>,
}

/// Whole traced rounds until `seconds` would be exceeded. Each round is
/// one solve id: set-up layer by layer, sequential SRNA2 and its
/// traceback, then `prna_aligned` untraced at one worker, recorded at
/// every CPU, and untraced at every CPU. The single-thread calls of a
/// round share one CPU, rotating over the affinity set.
pub fn run(w: &Workload, cpus: &[usize], seconds: f64, checker: &mut Checker) {
    let nproc = cpus.len() as u32;
    let untraced = |ready: &Ready, processors, checker: &mut Checker| {
        let (out, mapping) = solve(w, ready, processors, &Recorder::disabled());
        checker.check(out.score, mapping, true);
        (out.stage_one.as_secs_f64(), out.stage_two.as_secs_f64())
    };
    // Warm-up, then one more untraced solve with the arena counters
    // on, neither counted as an operation. The arenas only keep
    // process-lifetime peaks and debit a free to the scope it happens
    // in, so they are read over this one solve, from zero.
    let (attempted, failed) = (checker.attempted, checker.failed);
    let ready = crate::set_up(w, nproc);
    untraced(&ready, nproc, checker);
    alloc::report_arenas(true);
    untraced(&ready, nproc, checker);
    alloc::report_arenas(false);
    let arenas = mem::snapshot();
    drop(ready);
    (checker.attempted, checker.failed) = (attempted, failed);
    let mut spans = Spans {
        origin: Instant::now(),
        spans: Vec::new(),
    };
    let mut l = Layers::default();
    let start = Instant::now();
    let mut round = 0u32;
    loop {
        let round_start = Instant::now();
        let root = spans.open("solve", None, round);
        let sp = spans.open("rna.formats", Some(root), round);
        let parse = |t: &str| dot_bracket::parse(t).expect("generated text parses");
        let s = [parse(&w.texts[0]), parse(&w.texts[1])];
        l.parse.push(spans.close(sp));
        let sp = spans.open("core.preprocess", Some(root), round);
        let p = [Preprocessed::build(&s[0]), Preprocessed::build(&s[1])];
        l.preprocess.push(spans.close(sp));
        let sp = spans.open("balance.assign", Some(root), round);
        let weights = workload::column_weights(&p[0], &p[1]);
        let assignment = Policy::Greedy.assign(&weights, nproc);
        l.assign.push(spans.close(sp));
        l.max_over_mean.push(assignment.imbalance());
        let under = |p: &Preprocessed| {
            (0..p.num_arcs())
                .map(|k| p.under_count(k) as u64)
                .sum::<u64>()
        };
        let cells = (under(&p[0]) * under(&p[1])) as f64;
        l.slices
            .push(p[0].num_arcs() as f64 * p[1].num_arcs() as f64);
        l.cells.push(cells);
        let ready = Ready { s, p, assignment };
        let [p1, p2] = &ready.p;

        sys::pin(&[cpus[round as usize % cpus.len()]]);
        let sp = spans.open("core.srna2", Some(root), round);
        let reference = srna2::run_preprocessed_with_kernel(p1, p2, KernelKind::default());
        l.srna2.push(spans.close(sp));
        let seq_stage_one = reference.timings.stage_one.as_secs_f64();
        l.kernel_rate.push(cells / seq_stage_one);
        let sp = spans.open("core.traceback", Some(root), round);
        let mapping = traceback::traceback_with(p1, p2, &reference.memo);
        l.traceback.push(spans.close(sp));
        checker.check(reference.score, mapping, true);
        drop(reference);

        let sp = spans.open("parallel.prna_aligned", Some(root), round);
        let (stage_one, _) = untraced(&ready, 1, checker);
        spans.close(sp);
        spans.spans[sp].args = ", \"workers\": 1, \"recorder\": false".to_string();
        sys::pin(cpus);
        l.stage_one_seq.push(stage_one);
        l.overhead_seq.push(stage_one - seq_stage_one);

        let recorder = Recorder::enabled();
        let sp = spans.open("parallel.prna_aligned", Some(root), round);
        let (out, mapping) = solve(w, &ready, nproc, &recorder);
        let traced = spans.close(sp);
        spans.spans[sp].args = format!(", \"workers\": {nproc}, \"recorder\": true");
        checker.check(out.score, mapping, true);
        drop(out);
        let events = recorder.events();
        let counters = recorder.counters();
        let registry = Registry::new();
        publish_run(&registry, &events, &counters, (traced * 1e9) as u64)
            .expect("the program's metric schema registers");
        let snap = registry.snapshot();
        let ns = |name: &str| snap.counter(name).unwrap_or(0) as f64 / 1e9;
        l.busy.push(ns(names::ENGINE_BUSY_NS_TOTAL));
        l.wait.push(ns(names::ENGINE_WAIT_NS_TOTAL));
        l.evicted.push(counters.evicted_cells as f64);
        l.recompute_slices.push(counters.recompute_slices as f64);
        l.recompute_cells.push(counters.recompute_cells as f64);
        l.resident_peak.push(counters.resident_cells_peak as f64);
        drop((events, recorder));

        let sp = spans.open("parallel.prna_aligned", Some(root), round);
        let (stage_one, stage_two) = untraced(&ready, nproc, checker);
        let plain = spans.close(sp);
        spans.spans[sp].args = format!(
            ", \"workers\": {nproc}, \"recorder\": false, \"stage_one_s\": {stage_one:e}, \
             \"stage_two_traceback_s\": {stage_two:e}"
        );
        l.stage_one.push(stage_one);
        l.stage_two.push(stage_two);
        l.telemetry.push(traced - plain);
        spans.close(root);
        round += 1;
        if start.elapsed().as_secs_f64() + round_start.elapsed().as_secs_f64() > seconds {
            break;
        }
    }

    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(dir).expect("span directory is writable");
    let path = format!("{dir}/spans-{}.json", w.name);
    std::fs::write(&path, spans.to_json()).expect("span file is writable");
    let peak = |arena| arenas.get(arena).peak as f64 / MB;
    let rss = mem::peak_rss_bytes().unwrap_or(0) as f64 / MB;
    eprintln!("{round} traced rounds, peak RSS {rss:.1} MB; spans written to {path}");
    report(
        checker,
        &[
            ("rna.parse_s", "s", &l.parse),
            ("core.preprocess_s", "s", &l.preprocess),
            ("balance.assign_s", "s", &l.assign),
            ("balance.max_over_mean_load", "ratio", &l.max_over_mean),
            ("core.srna2_s", "s", &l.srna2),
            ("core.slices", "count", &l.slices),
            ("core.cells", "count", &l.cells),
            ("core.kernel_cells_per_s", "1/s", &l.kernel_rate),
            ("engine.stage_one_s", "s", &l.stage_one),
            ("engine.stage_one_seq_s", "s", &l.stage_one_seq),
            ("engine.overhead_seq_s", "s", &l.overhead_seq),
            ("engine.busy_s", "s", &l.busy),
            ("engine.wait_s", "s", &l.wait),
            ("engine.stage_two_traceback_s", "s", &l.stage_two),
            ("core.traceback_s", "s", &l.traceback),
            ("budget.evicted_cells", "count", &l.evicted),
            ("budget.recompute_slices", "count", &l.recompute_slices),
            ("budget.recompute_cells", "count", &l.recompute_cells),
            ("budget.resident_cells_peak", "count", &l.resident_peak),
            ("mem.memo_peak_mb", "MB", &[peak(Arena::Memo)]),
            ("mem.scratch_peak_mb", "MB", &[peak(Arena::Scratch)]),
            ("mem.other_peak_mb", "MB", &[peak(Arena::Other)]),
            ("telemetry.overhead_s", "s", &l.telemetry),
        ],
        &format!(", \"rounds\": {round}"),
    );
}
