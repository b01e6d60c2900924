//! The run loop: build-then-ask cycles, verification against an
//! independent evaluator, and the end-to-end metrics.
//!
//! A cycle sets up (service, interpretation, corpus; for `star_grow` also
//! the starting checkpoint), then for each build step builds and
//! registers a new snapshot generation and asks it the next batch of
//! distinct formulas through one `Session`, one at a time. Every ask is
//! therefore the cold path a user pays after a new universe. A run does a
//! fixed number of cycles, so every run of a workload takes the same
//! number of samples.

use crate::calibrate::Calibrator;
use crate::measure::{self, median, ms, timed, Cost};
use crate::report::Metric;
use crate::workloads::{Built, Phase, Span, Stage, Tracer, Workload, SCENARIO};
use hpl_core::{parse, CompSet, Evaluator, QuotientPolicy};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// What a run asks for on the command line.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Config {
    /// Cycles that fill `seconds` at the workload's cycle time on a
    /// two-CPU reference machine. Fixed per workload and `seconds`, so the
    /// sample count, and with it the tail percentile, never varies
    /// between runs.
    pub fn cycles(&self) -> usize {
        let nominal = match self.workload {
            Workload::BusCold => 4.6,
            Workload::StarGrow => 6.8,
            Workload::GossipFaults => 3.1,
        };
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let n = (self.seconds / nominal).round() as usize;
        n.max(2)
    }
}

/// One traced cycle: its spans and the wall of its build and query
/// phases.
pub struct TracedCycle {
    pub spans: Vec<Span>,
    pub build: Cost,
    pub query: Cost,
}

/// Everything measured over a run's cycles.
#[derive(Default)]
pub struct Samples {
    pub calibrator: Calibrator,
    pub setup: Vec<Cost>,
    /// Summed build steps, per cycle.
    pub build: Vec<Cost>,
    /// Cold asks, per cycle.
    pub asks: Vec<Vec<Cost>>,
    pub attempted: usize,
    pub failed: usize,
    /// Digest of every served satisfaction set, by (build step, corpus
    /// index).
    pub served: BTreeMap<(usize, usize), u64>,
    pub traced: Vec<TracedCycle>,
}

/// The last cycle's service, snapshots and final batch, kept for
/// verification and the traced run's probes.
pub struct Kept {
    pub stage: Stage,
    pub built: Vec<Built>,
    pub last_batch: Vec<usize>,
}

/// Set-ups a run times at least: `setup_s` is a median of this many.
pub const MIN_SETUPS: usize = 8;

/// Times `count` set-ups on their own, each dropped at once.
pub fn extra_setups(cfg: &Config, count: usize, s: &mut Samples) -> Result<(), String> {
    for _ in 0..count {
        measure::release_free_memory();
        s.calibrator.slice();
        let (stage, cost) = timed(|| cfg.workload.setup(cfg.seed, &mut Tracer::new(false)));
        drop(stage?);
        s.setup.push(cost);
    }
    Ok(())
}

/// Runs `cycles` build-then-ask cycles, dropping each but the last.
pub fn run_cycles(
    cfg: &Config,
    cycles: usize,
    tracer: &mut Tracer,
    s: &mut Samples,
    cursor: &mut usize,
) -> Result<Kept, String> {
    let mut kept = None;
    for _ in 0..cycles {
        drop(kept.take());
        kept = Some(cycle(cfg, tracer, s, cursor)?);
    }
    kept.ok_or_else(|| "no cycles to run".to_owned())
}

fn cycle(
    cfg: &Config,
    tracer: &mut Tracer,
    s: &mut Samples,
    cursor: &mut usize,
) -> Result<Kept, String> {
    let w = cfg.workload;
    tracer.spans.clear();
    measure::release_free_memory();
    s.calibrator.slice();
    let (stage, setup) = timed(|| w.setup(cfg.seed, tracer));
    let mut stage = stage?;
    s.setup.push(setup);
    let (mut build, mut query) = (Cost::default(), Cost::default());
    s.asks.push(Vec::new());
    let mut built = Vec::with_capacity(w.steps());
    let mut batch = Vec::new();
    for step in 0..w.steps() {
        let (b, cost) = timed(|| w.build(&mut stage, step, tracer));
        let b = b?;
        build += cost;
        s.calibrator.slice();
        s.attempted += 1;
        if let Some(m) = &b.mismatch {
            s.failed += 1;
            eprintln!("{}: build step {step}: {m}", w.name());
        }
        built.push(b);

        let n = stage.corpus.texts.len();
        batch = (0..w.batch()).map(|k| (*cursor + k) % n).collect();
        *cursor += w.batch();
        let (answers, cost) = ask(&stage, &batch, tracer, s)?;
        query += cost;
        s.calibrator.slice();
        for (idx, sat) in answers {
            let digest = set_digest(&sat);
            if *s.served.entry((step, idx)).or_insert(digest) != digest {
                s.failed += 1;
                eprintln!(
                    "{}: step {step}, formula {idx}: answer changed between cycles",
                    w.name()
                );
            }
        }
    }
    s.build.push(build);
    if tracer.is_on() {
        s.traced.push(TracedCycle {
            spans: std::mem::take(&mut tracer.spans),
            build,
            query,
        });
    }
    Ok(Kept {
        stage,
        built,
        last_batch: batch,
    })
}

/// Served answers by corpus index.
type Answers = Vec<(usize, Arc<CompSet>)>;

/// Asks each formula of `batch` once, in a closed loop with one client.
/// Failed asks are counted, answered ones returned for digesting outside
/// the timed asks, with the summed cost of the asks.
fn ask(
    stage: &Stage,
    batch: &[usize],
    tracer: &mut Tracer,
    s: &mut Samples,
) -> Result<(Answers, Cost), String> {
    tracer.phase = Phase::Query;
    let session = stage
        .service
        .session(SCENARIO)
        .map_err(|e| format!("session: {e}"))?;
    let mut answers = Vec::with_capacity(batch.len());
    let mut total = Cost::default();
    for &idx in batch {
        s.calibrator.slice_if_due();
        let text = &stage.corpus.texts[idx];
        let (t0, c0) = (Instant::now(), measure::process_cpu());
        let response = if tracer.is_on() {
            tracer
                .time("parse", || parse(text, &stage.interp))
                .map_err(|e| hpl_runtime::QueryError::Parse(e.to_string()))
                .and_then(|f| tracer.time("service.query", || session.query_formula(&f)))
        } else {
            session.query(text)
        };
        let cost = Cost {
            wall: t0.elapsed(),
            cpu: measure::process_cpu().saturating_sub(c0),
        };
        total += cost;
        s.asks.last_mut().expect("a cycle is under way").push(cost);
        s.attempted += 1;
        match response {
            Ok(r) => answers.push((idx, r.sat)),
            Err(e) => {
                s.failed += 1;
                eprintln!("query `{text}` failed: {e}");
            }
        }
    }
    Ok((answers, total))
}

/// Re-evaluates every served formula with an independent sequential
/// evaluator over the kept snapshots (one evaluator per snapshot, no
/// shared caches) and counts answers that differ. Cycles build identical
/// universes, so one check covers the same formula in every cycle.
/// Returns the number of formulas checked.
pub fn verify(w: Workload, kept: Kept, s: &mut Samples) -> usize {
    let Kept { stage, built, .. } = kept;
    // the service's caches go first: the verifier needs the memory
    drop(stage.service);
    let mut checked = 0;
    for (step, b) in built.iter().enumerate() {
        let mut eval = match &b.orbits {
            Some(o) => Evaluator::with_symmetry_policy(
                &b.universe,
                &stage.interp,
                o,
                QuotientPolicy::Expand,
            ),
            None => Evaluator::new(&b.universe, &stage.interp),
        };
        let asked = s.served.range((step, 0)..(step + 1, 0));
        let mut wrong = Vec::new();
        for (n, (&(_, idx), &digest)) in asked.enumerate() {
            if n % 128 == 0 {
                eval.clear_memo();
            }
            let ok = eval
                .try_sat_set(&stage.corpus.formulas[idx])
                .is_ok_and(|sat| set_digest(&sat) == digest);
            if !ok {
                wrong.push(idx);
            }
            checked += 1;
        }
        for idx in wrong {
            s.failed += 1;
            eprintln!(
                "{}: step {step}: served answer to `{}` differs from the reference evaluator",
                w.name(),
                stage.corpus.texts[idx]
            );
        }
    }
    checked
}

/// FNV-1a over a set's words and capacity.
pub fn set_digest(set: &CompSet) -> u64 {
    crate::corpus::fnv1a(
        set.words()
            .iter()
            .chain(std::iter::once(&(set.capacity() as u64)))
            .flat_map(|w| w.to_le_bytes()),
    )
}

/// The end-to-end metrics of an untraced run, times divided by the
/// run's host slowdown on the same clock (see [`crate::calibrate`]); each
/// line's note gives the unscaled value.
pub fn end_to_end(s: &Samples, peak_rss_mb: f64) -> Vec<Metric> {
    let slow = s.calibrator.slowdown();
    let cycles = s.build.len();
    let per_cycle = s.asks.first().map_or(0, Vec::len);
    let asks: Vec<Cost> = s.asks.concat();
    let queries = asks.len();
    // each cycle's tail is what a user meets after one new universe; the
    // median over cycles keeps one cycle's unlucky order from moving it
    let tails: Vec<(f64, f64)> = s.asks.iter().map(|c| measure::tail(&millis(c))).collect();
    let tail = median(&tails.iter().map(|t| t.0).collect::<Vec<_>>());
    let pct = median(&tails.iter().map(|t| t.1).collect::<Vec<_>>());
    #[allow(clippy::cast_precision_loss)]
    let n = queries.max(1) as f64;
    let qps = n / walls(&asks).iter().sum::<f64>();
    let cpu_ms = 1e3 * cpus(&asks).iter().sum::<f64>() / n;
    // a time divided by the host's slowdown on its own clock
    let scaled = |name, raw: f64, slow: f64, unit, samples, what: &str| {
        let note = format!("{what}; raw {raw:.6}");
        Metric::new(name, raw / slow, unit, samples, &note)
    };
    let over_cycles = "median over cycles";
    let tail_note = format!(
        "median over cycles of each cycle's p{pct:.2} ({} of {per_cycle} asks beyond)",
        measure::TAIL_BEYOND
    );
    let qps_note = format!("cold asks per second of asking; raw {qps:.6}");
    let (setup, build) = (median(&walls(&s.setup)), median(&walls(&s.build)));
    let (build_cpu, p50) = (median(&cpus(&s.build)), median(&millis(&asks)));
    let (w, c) = (slow.wall, slow.cpu);
    vec![
        scaled(
            "setup_s",
            setup,
            w,
            "s",
            s.setup.len(),
            "median over set-ups",
        ),
        scaled("build_s", build, w, "s", cycles, over_cycles),
        scaled("build_cpu_s", build_cpu, c, "s", cycles, over_cycles),
        scaled("query_p50_ms", p50, w, "ms", queries, "median cold ask"),
        scaled("query_tail_ms", tail, w, "ms", queries, &tail_note),
        Metric::new("query_qps", qps * w, "1/s", queries, &qps_note),
        scaled(
            "query_cpu_ms",
            cpu_ms,
            c,
            "ms",
            queries,
            "process CPU per cold ask",
        ),
        Metric::new("peak_rss_mb", peak_rss_mb, "MB", 1, "VmHWM, not scaled"),
    ]
}

fn walls(xs: &[Cost]) -> Vec<f64> {
    xs.iter().map(|c| c.wall.as_secs_f64()).collect()
}

fn cpus(xs: &[Cost]) -> Vec<f64> {
    xs.iter().map(|c| c.cpu.as_secs_f64()).collect()
}

fn millis(xs: &[Cost]) -> Vec<f64> {
    xs.iter().map(|c| ms(c.wall)).collect()
}
