//! The traced run's per-layer metrics: spans recorded around calls into
//! each layer during the traced cycles, plus same-run comparators that
//! call a layer's public functions directly (1 vs 2 shards, extend vs
//! rebuild, the fault pipeline's simulation alone, a fresh evaluator per
//! formula, re-asking an answered formula).

use crate::measure::{self, median, ms, timed, us, Cost};
use crate::report::Metric;
use crate::run::{Kept, Samples};
use crate::workloads::{
    depth, gossip_model, gossip_node, star_config, Phase, Workload, GOSSIP_N, SCENARIO, SHARDS,
};
use hpl_core::{
    build_fault_universe, canonical_key, enumerate_sharded, extend_sharded, ClassCache,
    EnumerationStats, Evaluator, QuotientPolicy, ShardConfig, ShardedEnumeration,
};
use hpl_protocols::token_bus::{BroadcastBus, TokenBus, TOKEN};
use hpl_sim::Simulation;
use std::hint::black_box;
use std::time::Instant;

/// Comparator timings taken before the traced cycles, while no snapshot
/// is held in memory.
#[derive(Default)]
pub struct Comparators {
    /// The build's enumeration calls at one shard.
    enum_shard1: Cost,
    /// star_grow: the final growth step at one shard.
    extend_shard1: Cost,
    /// star_grow: from-scratch enumeration at the final depth, at the
    /// workload's shards and at one shard.
    rebuild: Option<(Cost, ShardedEnumeration)>,
    rebuild_shard1: Cost,
    faults_shard1: Cost,
    faults_sim: Cost,
}

/// Runs the comparators a workload's layers have.
pub fn comparators(w: Workload) -> Result<Comparators, String> {
    let mut c = Comparators::default();
    let err = |e: hpl_core::CoreError| e.to_string();
    match w {
        Workload::BusCold => {
            let cfg = ShardConfig::with_shards(1);
            let (out, cost) =
                timed(|| enumerate_sharded(&TokenBus::with_chatter(3, 2), depth(12), &cfg));
            drop(out.map_err(err)?);
            c.enum_shard1 = cost;
        }
        Workload::StarGrow => {
            let star = BroadcastBus::new(6);
            let one = star_config(1);
            let mut frontier = enumerate_sharded(&star, depth(12), &one)
                .map_err(err)?
                .frontier
                .ok_or("checkpoint requested")?;
            for d in 13..=14 {
                let (grown, cost) = timed(|| extend_sharded(&star, &frontier, depth(d), &one));
                frontier = grown.map_err(err)?.frontier.ok_or("checkpoint requested")?;
                c.enum_shard1 += cost;
                c.extend_shard1 = cost;
            }
            let (out, cost) = timed(|| enumerate_sharded(&star, depth(14), &one));
            drop(out.map_err(err)?);
            c.rebuild_shard1 = cost;
            let (out, cost) = timed(|| enumerate_sharded(&star, depth(14), &star_config(SHARDS)));
            c.rebuild = Some((cost, out.map_err(err)?));
        }
        Workload::GossipFaults => {
            let model = gossip_model();
            let (out, cost) = timed(|| build_fault_universe(GOSSIP_N, &model, 1, gossip_node));
            drop(out.map_err(err)?);
            c.faults_shard1 = cost;
            // the same seeded runs, simulated alone: the fault pipeline
            // minus trace interning and universe insertion
            let ((), cost) = timed(|| {
                for run in 0..model.runs {
                    let mut sim = Simulation::builder(GOSSIP_N)
                        .seed(model.base_seed.wrapping_add(run as u64))
                        .network(model.network.clone())
                        .build(gossip_node);
                    sim.run_until(model.horizon);
                    black_box(sim.trace());
                }
            });
            c.faults_sim = cost;
        }
    }
    Ok(c)
}

/// Per-layer metrics of a traced run, in the order `BENCHMARK.json`
/// lists them; layers a workload never calls read 0. Returns the metrics
/// and the checks made and failed (the grown universe against its
/// rebuild).
pub fn layers(
    w: Workload,
    s: &Samples,
    kept: &Kept,
    c: &Comparators,
    untraced_build_s: f64,
) -> (Vec<Metric>, usize, usize) {
    let cycles = s.traced.len();
    // per traced cycle: summed spans of one name in one phase
    let summed = |name: &str, phase: Phase| -> Vec<Cost> {
        s.traced
            .iter()
            .map(|t| {
                let mut sum = Cost::default();
                for sp in t
                    .spans
                    .iter()
                    .filter(|sp| sp.name == name && sp.phase == phase)
                {
                    sum += sp.cost;
                }
                sum
            })
            .collect()
    };
    // every span of one name, any phase
    let each = |name: &str| -> Vec<Cost> {
        s.traced
            .iter()
            .flat_map(|t| {
                t.spans
                    .iter()
                    .filter(|sp| sp.name == name)
                    .map(|sp| sp.cost)
            })
            .collect()
    };
    let med_ms = |costs: &[Cost]| median(&costs.iter().map(|c| ms(c.wall)).collect::<Vec<_>>());
    let mut m = Vec::new();
    let (mut checks, mut failures) = (0, 0);

    // hpl_core::parallel
    let enum_costs = summed("enum", Phase::Build);
    let enum_wall = med_ms(&enum_costs);
    let enum_cpu = median(&enum_costs.iter().map(|c| ms(c.cpu)).collect::<Vec<_>>());
    let stats: Vec<EnumerationStats> = kept.built.iter().filter_map(|b| b.enum_stats).collect();
    let last = stats.last();
    let count = |f: fn(&EnumerationStats) -> usize| last.map_or(0.0, |st| f(st) as f64);
    let new_nodes: usize = stats.iter().map(|st| st.explored - st.resumed).sum();
    let enumerates = !stats.is_empty();
    // sample counts of a layer the workload never calls are 0
    let (n_cycles, n_one) = if enumerates { (cycles, 1) } else { (0, 0) };
    m.push(Metric::new(
        "enum.wall_ms",
        enum_wall,
        "ms",
        n_cycles,
        "build's enumeration calls, median",
    ));
    m.push(Metric::new(
        "enum.cpu_ms",
        enum_cpu,
        "ms",
        n_cycles,
        "process CPU over them, median",
    ));
    m.push(Metric::new(
        "enum.explored",
        count(|st| st.explored),
        "count",
        n_one,
        "final step",
    ));
    m.push(Metric::new(
        "enum.unique",
        count(|st| st.unique),
        "count",
        n_one,
        "final step",
    ));
    m.push(Metric::new(
        "enum.resumed",
        count(|st| st.resumed),
        "count",
        n_one,
        "final step",
    ));
    m.push(Metric::new(
        "enum.nodes_per_cpu_s",
        if enumerates {
            new_nodes as f64 / (enum_cpu / 1e3)
        } else {
            0.0
        },
        "1/s",
        n_cycles,
        "nodes explored (not replayed) per CPU second",
    ));
    m.push(Metric::new(
        "enum.merge_ms",
        stats.iter().map(|st| st.merge_wall_ms).sum(),
        "ms",
        stats.len(),
        "EnumerationStats::merge_wall_ms, summed over steps",
    ));
    m.push(Metric::new(
        "enum.peak_buffered_kb",
        stats
            .iter()
            .map(|st| st.peak_buffered_bytes)
            .max()
            .unwrap_or(0) as f64
            / 1024.0,
        "KiB",
        stats.len(),
        "largest over steps",
    ));
    let shard1 = ms(c.enum_shard1.wall);
    m.push(Metric::new(
        "enum.shard1_wall_ms",
        shard1,
        "ms",
        n_one,
        "same calls, 1 shard",
    ));
    m.push(Metric::new(
        "enum.speedup_2v1",
        if enumerates { shard1 / enum_wall } else { 0.0 },
        "ratio",
        n_one,
        "1-shard wall / 2-shard wall",
    ));

    // hpl_core::symmetry
    let final_built = kept.built.last().expect("every workload builds");
    let (key_us, keys) = match &final_built.orbits {
        Some(orbits) => {
            let t0 = Instant::now();
            for (_, x) in final_built.universe.iter() {
                black_box(canonical_key(x, orbits.elements(), &mut |_| TOKEN));
            }
            let n = final_built.universe.len();
            (us(t0.elapsed()) / n as f64, n)
        }
        None => (0.0, 0),
    };
    m.push(Metric::new(
        "canon.key_us",
        key_us,
        "us",
        keys,
        "canonical_key per grown representative",
    ));
    m.push(Metric::new(
        "canon.group_order",
        count(|st| st.group_order),
        "count",
        n_one,
        "|G|",
    ));
    m.push(Metric::new(
        "enum.reduction_factor",
        last.map_or(0.0, EnumerationStats::reduction_factor),
        "ratio",
        n_one,
        "explored / kept, final step",
    ));

    // growth
    let grows = w == Workload::StarGrow;
    let extend: Vec<f64> = s
        .traced
        .iter()
        .filter_map(|t| {
            t.spans
                .iter()
                .rfind(|sp| sp.name == "enum" && sp.phase == Phase::Build)
        })
        .map(|sp| ms(sp.cost.wall))
        .collect();
    let extend_ms = if grows { median(&extend) } else { 0.0 };
    let rebuild_ms = c.rebuild.as_ref().map_or(0.0, |(cost, _)| ms(cost.wall));
    m.push(Metric::new(
        "extend.wall_ms",
        extend_ms,
        "ms",
        extend.len() * usize::from(grows),
        "final growth step, median",
    ));
    m.push(Metric::new(
        "rebuild.wall_ms",
        rebuild_ms,
        "ms",
        usize::from(grows),
        "from-scratch enumerate_sharded, same depth and shards",
    ));
    m.push(Metric::new(
        "extend.speedup",
        if grows { rebuild_ms / extend_ms } else { 0.0 },
        "ratio",
        usize::from(grows),
        "rebuild / extend",
    ));
    m.push(Metric::new(
        "extend.speedup_1shard",
        if grows {
            ms(c.rebuild_shard1.wall) / ms(c.extend_shard1.wall)
        } else {
            0.0
        },
        "ratio",
        usize::from(grows),
        "rebuild / extend, both enumerate_sharded at 1 shard",
    ));
    let rereg = each("service.reregister");
    m.push(Metric::new(
        "service.reregister_ms",
        med_ms(&rereg),
        "ms",
        rereg.len(),
        "reregister_quotient, median",
    ));
    if let Some((_, rebuilt)) = &c.rebuild {
        checks += 1;
        if !identical(rebuilt, final_built) {
            failures += 1;
            eprintln!("star_grow: the grown universe differs from its from-scratch rebuild");
        }
    }

    // hpl_core::fault_universe + hpl_sim::engine
    let faults = summed("faults", Phase::Build);
    let fstats = final_built.fault_stats.unwrap_or_default();
    let builds_faults = final_built.fault_stats.is_some();
    let (shard1_ms, sim_ms) = (ms(c.faults_shard1.wall), ms(c.faults_sim.wall));
    m.push(Metric::new(
        "faults.build_ms",
        med_ms(&faults),
        "ms",
        faults.len() * usize::from(builds_faults),
        "build_fault_universe, 2 shards, median",
    ));
    m.push(Metric::new(
        "faults.sim_ms",
        sim_ms,
        "ms",
        usize::from(builds_faults),
        "the same runs through Simulation alone",
    ));
    m.push(Metric::new(
        "faults.intern_insert_ms",
        shard1_ms - sim_ms,
        "ms",
        usize::from(builds_faults),
        "derived: shard1_ms - sim_ms",
    ));
    m.push(Metric::new(
        "faults.shard1_ms",
        shard1_ms,
        "ms",
        usize::from(builds_faults),
        "build_fault_universe, 1 shard",
    ));
    let n_faults = usize::from(builds_faults);
    m.push(Metric::new(
        "faults.runs",
        fstats.runs as f64,
        "count",
        n_faults,
        "",
    ));
    m.push(Metric::new(
        "faults.distinct_traces",
        fstats.distinct_traces as f64,
        "count",
        n_faults,
        "",
    ));
    m.push(Metric::new(
        "faults.prefix_added",
        fstats.prefix_added as f64,
        "count",
        n_faults,
        "",
    ));
    m.push(Metric::new(
        "faults.universe",
        if builds_faults {
            final_built.universe.len() as f64
        } else {
            0.0
        },
        "count",
        n_faults,
        "",
    ));

    // hpl_runtime::service; the cache counters are read before the
    // re-asks below turn into hits
    let snapshot = kept.stage.service.snapshot(SCENARIO).expect("registered");
    let cache = snapshot.sat_cache_stats();
    let register = each("service.register");
    m.push(Metric::new(
        "service.register_ms",
        med_ms(&register),
        "ms",
        register.len(),
        "register / register_quotient, median",
    ));
    let session = kept.stage.service.session(SCENARIO).expect("registered");
    let hits: Vec<f64> = kept
        .last_batch
        .iter()
        .map(|&idx| {
            let t0 = Instant::now();
            let r = session.query(&kept.stage.corpus.texts[idx]);
            let t = us(t0.elapsed());
            black_box(r.is_ok());
            t
        })
        .collect();
    m.push(Metric::new(
        "service.hit_us",
        median(&hits),
        "us",
        hits.len(),
        "re-ask of an answered formula, median",
    ));

    // hpl_core::parser, hpl_runtime::planner
    let parses: Vec<f64> = each("parse").iter().map(|c| us(c.wall)).collect();
    m.push(Metric::new(
        "parse.us",
        median(&parses),
        "us",
        parses.len(),
        "hpl_core::parse per formula, median",
    ));
    let (mut plan_us, mut quotient, mut fallback, mut deduped) = (Vec::new(), 0, 0, 0);
    for &idx in &kept.last_batch {
        let f = &kept.stage.corpus.formulas[idx];
        let (plan, cost) = timed(|| snapshot.plan(f));
        plan_us.push(us(cost.wall));
        let st = plan.stats();
        quotient += st.quotient_steps;
        fallback += st.fallback_steps;
        deduped += st.deduped;
    }
    let planned = plan_us.len();
    m.push(Metric::new(
        "plan.us",
        median(&plan_us),
        "us",
        planned,
        "Snapshot::plan per formula, median",
    ));
    m.push(Metric::new(
        "plan.quotient_subtrees",
        quotient as f64,
        "count",
        planned,
        "summed over the final batch",
    ));
    m.push(Metric::new(
        "plan.fallback_subtrees",
        fallback as f64,
        "count",
        planned,
        "summed over the final batch",
    ));
    m.push(Metric::new(
        "plan.deduped",
        deduped as f64,
        "count",
        planned,
        "summed over the final batch",
    ));

    // hpl_core::eval: a fresh sequential evaluator per formula, no
    // satisfaction cache (plain evaluators share one class cache, as the
    // service's do)
    let classes = ClassCache::shared();
    let evals: Vec<f64> = kept
        .last_batch
        .iter()
        .map(|&idx| {
            let f = &kept.stage.corpus.formulas[idx];
            let u = &final_built.universe;
            let interp = &kept.stage.interp;
            let mut eval = match &final_built.orbits {
                Some(o) => Evaluator::with_symmetry_policy(u, interp, o, QuotientPolicy::Expand),
                None => Evaluator::with_class_cache(u, interp, std::sync::Arc::clone(&classes)),
            };
            let (sat, cost) = timed(|| eval.try_sat_set(f));
            black_box(sat.is_ok());
            ms(cost.wall)
        })
        .collect();
    let (eval_tail, eval_pct) = measure::tail(&evals);
    m.push(Metric::new(
        "eval.p50_ms",
        median(&evals),
        "ms",
        evals.len(),
        "fresh Evaluator per formula, median",
    ));
    m.push(Metric::new(
        "eval.tail_ms",
        eval_tail,
        "ms",
        evals.len(),
        &format!("p{eval_pct:.2}, {} beyond", measure::TAIL_BEYOND),
    ));
    m.push(Metric::new(
        "sat_cache.hits",
        cache.hits as f64,
        "count",
        1,
        "final snapshot, before re-asks",
    ));
    m.push(Metric::new(
        "sat_cache.misses",
        cache.misses as f64,
        "count",
        1,
        "final snapshot",
    ));
    m.push(Metric::new(
        "sat_cache.hit_rate",
        cache.hit_rate(),
        "ratio",
        1,
        "hits / lookups",
    ));
    m.push(Metric::new(
        "sat_cache.evictions",
        cache.evictions as f64,
        "count",
        1,
        "final snapshot",
    ));

    // what the spans do not cover, and what tracing costs
    let unattributed: Vec<f64> = s
        .traced
        .iter()
        .map(|t| {
            let spanned: f64 = t
                .spans
                .iter()
                .filter(|sp| sp.phase != Phase::Setup)
                .map(|sp| ms(sp.cost.wall))
                .sum();
            ms(t.build.wall) + ms(t.query.wall) - spanned
        })
        .collect();
    m.push(Metric::new(
        "unattributed_ms",
        median(&unattributed),
        "ms",
        cycles,
        "build + query wall minus the layer calls inside it, median per cycle",
    ));
    let traced_build = median(
        &s.traced
            .iter()
            .map(|t| t.build.wall.as_secs_f64())
            .collect::<Vec<_>>(),
    );
    m.push(Metric::new(
        "trace.overhead_ms",
        (traced_build - untraced_build_s) * 1e3,
        "ms",
        cycles,
        "traced minus untraced build_s",
    ));
    (m, checks, failures)
}

/// Whether the grown universe equals its rebuild computation by
/// computation, with equal orbit multiplicities.
fn identical(rebuilt: &ShardedEnumeration, grown: &crate::workloads::Built) -> bool {
    let (a, b) = (rebuilt.universe.universe(), &grown.universe);
    let (Some(oa), Some(ob)) = (&rebuilt.orbits, &grown.orbits) else {
        return false;
    };
    a.len() == b.len()
        && a.iter().zip(b.iter()).all(|((ia, ca), (ib, cb))| {
            ia == ib && ca == cb && oa.multiplicity(ia) == ob.multiplicity(ib)
        })
}
