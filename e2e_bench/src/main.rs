//! End-to-end benchmark: build a queryable universe through the public
//! API, then ask it distinct knowledge formulas, each once per snapshot
//! generation, so every latency sample is a cold query.
//!
//! ```text
//! cargo run --release --manifest-path e2e_bench/Cargo.toml -- \
//!     --workload <bus_cold|star_grow|gossip_faults> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the traced
//! variant and prints the per-layer metrics. Every metric is printed with
//! its unit and sample count, and the last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. The exit
//! code is 0 only when every answer and count was correct.

mod calibrate;
mod corpus;
mod measure;
mod probes;
mod report;
mod run;
mod workloads;

use run::{Config, Samples};
use std::process::ExitCode;
use workloads::{Tracer, Workload};

const USAGE: &str = "usage: hpl-e2e-bench --workload <bus_cold|star_grow|gossip_faults> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

fn main() -> ExitCode {
    let cfg = match parse_args(std::env::args().skip(1)) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match bench(&cfg) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{}: {e}", cfg.workload.name());
            ExitCode::from(1)
        }
    }
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Config, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|e: std::num::ParseIntError| bad(e.to_string()))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e: std::num::ParseFloatError| bad(e.to_string()))?;
            }
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return Err(bad(String::new())),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Runs the workload and prints its report. `Ok(false)` when a check
/// failed.
fn bench(cfg: &Config) -> Result<bool, String> {
    let w = cfg.workload;
    println!(
        "workload {} seed {} seconds {} trace {} nproc {} shards {} query-workers 1 clients 1",
        w.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        workloads::SHARDS,
    );
    let started = std::time::Instant::now();
    let mut s = Samples::default();
    let mut cursor = 0;
    let (metrics, verified) = if cfg.trace {
        let comparators = probes::comparators(w)?;
        // one untraced cycle first: the reference for the tracing overhead
        let mut reference = Samples::default();
        let kept = run::run_cycles(cfg, 1, &mut Tracer::new(false), &mut reference, &mut cursor)?;
        let untraced_build_s = reference.build[0].wall.as_secs_f64();
        let mut verified = run::verify(w, kept, &mut reference);
        let cycles = cfg.cycles().saturating_sub(1).max(1);
        let kept = run::run_cycles(cfg, cycles, &mut Tracer::new(true), &mut s, &mut cursor)?;
        print_corpus(&kept, cursor);
        let (metrics, checks, failures) =
            probes::layers(w, &s, &kept, &comparators, untraced_build_s);
        s.attempted += reference.attempted + checks;
        s.failed += reference.failed + failures;
        verified += run::verify(w, kept, &mut s);
        (metrics, verified)
    } else {
        // cycles set up once each; cheap set-ups are timed more often
        run::extra_setups(cfg, run::MIN_SETUPS.saturating_sub(cfg.cycles()), &mut s)?;
        let kept = run::run_cycles(
            cfg,
            cfg.cycles(),
            &mut Tracer::new(false),
            &mut s,
            &mut cursor,
        )?;
        print_corpus(&kept, cursor);
        let rss = measure::peak_rss_mb();
        let verified = run::verify(w, kept, &mut s);
        (run::end_to_end(&s, rss), verified)
    };
    println!(
        "verified {verified} served sets against an independent sequential evaluator; \
         run took {:.1} s",
        started.elapsed().as_secs_f64()
    );
    let slow = s.calibrator.slowdown();
    println!(
        "host slowdown {:.4} wall, {:.4} CPU against the reference \
         (median of {} calibration slices)",
        slow.wall,
        slow.cpu,
        s.calibrator.slices()
    );
    report::print_lines(&metrics);
    #[allow(clippy::cast_precision_loss)]
    let failed_share = s.failed as f64 / s.attempted.max(1) as f64;
    println!(
        "  {:<26} {:>16.6} {:<6} n={:<6} failed or wrong / attempted ({} / {})",
        "failed_share", failed_share, "share", s.attempted, s.failed, s.attempted
    );
    let correct = s.failed == 0;
    println!(
        "{}",
        report::json_line(correct, s.attempted, s.failed, &metrics)
    );
    Ok(correct)
}

fn print_corpus(kept: &run::Kept, asked: usize) {
    let corpus = &kept.stage.corpus;
    println!(
        "corpus {} formulas, digest {:016x}, {asked} asks",
        corpus.texts.len(),
        corpus.digest
    );
}
