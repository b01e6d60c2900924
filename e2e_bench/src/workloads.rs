//! The three build-then-ask workloads: how each sets up, how it builds a
//! queryable snapshot through the public API, and the counts every build
//! must reproduce.
//!
//! The universes are fixed protocol configurations; `--seed` drives only
//! the query corpus. So the expected counts below hold for every seed.

use crate::corpus::{self, Corpus, Vocabulary};
use crate::measure::{timed, Cost};
use hpl_core::{
    build_fault_universe, enumerate_sharded, extend_sharded, EnumerationLimits, EnumerationStats,
    FaultModel, FaultStats, Frontier, Interpretation, Orbits, QuotientPolicy, ShardConfig,
    Universe,
};
use hpl_model::ProcessId;
use hpl_protocols::gossip::GossipNode;
use hpl_protocols::token_bus::{self, BroadcastBus, TokenBus};
use hpl_runtime::QueryService;
use hpl_sim::{ChannelConfig, DelayModel, NetworkConfig, Node};
use std::sync::Arc;

/// Enumeration and fault-simulation threads. With the client thread and
/// one query worker, the load stays within two CPUs.
pub const SHARDS: usize = 2;
/// The scenario name every workload registers its snapshot under.
pub const SCENARIO: &str = "bench";
/// Formulas generated per corpus: more than a run asks, so no formula is
/// asked twice in one generation.
const CORPUS_SIZE: usize = 512;

const BUS_DEPTH: usize = 12;
const STAR_START: usize = 12;
const STAR_STEPS: usize = 2;
pub const GOSSIP_N: usize = 5;
const GOSSIP_RUNS: usize = 2000;
const GOSSIP_FAULT_SEED: u64 = 1;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// `TokenBus::with_chatter(3, 2)`, full universe at depth 12 (≈1M
    /// computations), quotient off.
    BusCold,
    /// `BroadcastBus::new(6)` in quotient mode (|G| = 120), grown from
    /// depth 12 one horizon at a time with `extend_sharded`.
    StarGrow,
    /// Push gossip over a lossy network: 2000 seeded fault simulations,
    /// prefix-closed.
    GossipFaults,
}

/// Counts one build step must reproduce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expected {
    Enum {
        explored: usize,
        unique: usize,
        resumed: usize,
    },
    Faults {
        runs: usize,
        distinct_traces: usize,
        prefix_added: usize,
        universe: usize,
    },
}

/// Which side of a traced interval a span was recorded in.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    Setup,
    Build,
    Query,
}

/// One timed call into a layer.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub phase: Phase,
    pub cost: Cost,
}

/// Records spans around calls into the system's layers. When off, it
/// only runs the calls.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    pub phase: Phase,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            phase: Phase::Setup,
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let (out, cost) = timed(f);
        self.spans.push(Span {
            name,
            phase: self.phase,
            cost,
        });
        out
    }
}

/// A started service, its interpretation and corpus, and whatever the
/// workload's next build step resumes from.
pub struct Stage {
    pub service: QueryService,
    pub interp: Arc<Interpretation>,
    pub corpus: Corpus,
    frontier: Option<Frontier>,
}

/// A queryable snapshot produced by one build step.
pub struct Built {
    pub universe: Arc<Universe>,
    pub orbits: Option<Arc<Orbits>>,
    pub enum_stats: Option<EnumerationStats>,
    pub fault_stats: Option<FaultStats>,
    /// A description of every count that differs from its expected value.
    pub mismatch: Option<String>,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::BusCold,
        Workload::StarGrow,
        Workload::GossipFaults,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BusCold => "bus_cold",
            Workload::StarGrow => "star_grow",
            Workload::GossipFaults => "gossip_faults",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Build steps per cycle; the corpus batch is asked after each.
    pub fn steps(self) -> usize {
        match self {
            Workload::StarGrow => STAR_STEPS,
            Workload::BusCold | Workload::GossipFaults => 1,
        }
    }

    /// Distinct formulas asked of each snapshot generation.
    pub fn batch(self) -> usize {
        match self {
            Workload::BusCold => 40,
            Workload::StarGrow => 24,
            Workload::GossipFaults => 200,
        }
    }

    /// Starts a one-worker service, builds the interpretation and the
    /// seeded corpus, and (for `star_grow`) enumerates and registers the
    /// starting checkpoint.
    pub fn setup(self, seed: u64, tracer: &mut Tracer) -> Result<Stage, String> {
        tracer.phase = Phase::Setup;
        let service = QueryService::start(1);
        let (interp, vocab) = self.vocabulary();
        let corpus = corpus::generate(&vocab, &interp, seed, CORPUS_SIZE)?;
        let interp = Arc::new(interp);
        let mut stage = Stage {
            service,
            interp,
            corpus,
            frontier: None,
        };
        if self == Workload::StarGrow {
            let cfg = star_config(SHARDS);
            let out = tracer
                .time("enum.start", || {
                    enumerate_sharded(&BroadcastBus::new(6), depth(STAR_START), &cfg)
                })
                .map_err(|e| format!("starting enumeration: {e}"))?;
            if let Some(m) = check_enum(&out.stats, star_expected(STAR_START)) {
                return Err(format!("starting enumeration: {m}"));
            }
            let orbits = Arc::new(out.orbits.ok_or("quotient mode attaches orbits")?);
            let universe = Arc::new(out.universe.into_universe());
            tracer.time("service.register", || {
                stage.service.register_quotient(
                    SCENARIO,
                    universe,
                    Arc::clone(&stage.interp),
                    orbits,
                    QuotientPolicy::Expand,
                )
            });
            stage.frontier = Some(out.frontier.ok_or("checkpoint requested")?);
        }
        Ok(stage)
    }

    /// Build step `i`: produces and registers a new snapshot generation.
    pub fn build(self, stage: &mut Stage, i: usize, tracer: &mut Tracer) -> Result<Built, String> {
        tracer.phase = Phase::Build;
        let interp = Arc::clone(&stage.interp);
        match self {
            Workload::BusCold => {
                let cfg = ShardConfig::with_shards(SHARDS);
                let out = tracer
                    .time("enum", || {
                        enumerate_sharded(&TokenBus::with_chatter(3, 2), depth(BUS_DEPTH), &cfg)
                    })
                    .map_err(|e| format!("enumeration: {e}"))?;
                let universe = Arc::new(out.universe.into_universe());
                tracer.time("service.register", || {
                    stage
                        .service
                        .register(SCENARIO, Arc::clone(&universe), interp)
                });
                Ok(Built {
                    universe,
                    orbits: None,
                    mismatch: check_enum(&out.stats, self.expected(i)),
                    enum_stats: Some(out.stats),
                    fault_stats: None,
                })
            }
            Workload::StarGrow => {
                let frontier = stage.frontier.take().ok_or("growth needs a checkpoint")?;
                let cfg = star_config(SHARDS);
                let to = STAR_START + 1 + i;
                let grown = tracer
                    .time("enum", || {
                        extend_sharded(&BroadcastBus::new(6), &frontier, depth(to), &cfg)
                    })
                    .map_err(|e| format!("extension to depth {to}: {e}"))?;
                let orbits = Arc::new(grown.orbits.ok_or("quotient mode attaches orbits")?);
                let growth = grown.growth.ok_or("extensions report growth")?;
                let universe = Arc::new(grown.universe.into_universe());
                tracer
                    .time("service.reregister", || {
                        stage.service.reregister_quotient(
                            SCENARIO,
                            Arc::clone(&universe),
                            interp,
                            Arc::clone(&orbits),
                            QuotientPolicy::Expand,
                            &growth,
                        )
                    })
                    .map_err(|e| format!("reregister at depth {to}: {e}"))?;
                stage.frontier = Some(grown.frontier.ok_or("checkpoint requested")?);
                Ok(Built {
                    universe,
                    orbits: Some(orbits),
                    mismatch: check_enum(&grown.stats, self.expected(i)),
                    enum_stats: Some(grown.stats),
                    fault_stats: None,
                })
            }
            Workload::GossipFaults => {
                let model = gossip_model();
                let fu = tracer
                    .time("faults", || {
                        build_fault_universe(GOSSIP_N, &model, SHARDS, gossip_node)
                    })
                    .map_err(|e| format!("fault universe: {e}"))?;
                let mismatch = check_faults(&fu.stats, fu.universe.len(), self.expected(i));
                let universe = Arc::new(fu.universe);
                tracer.time("service.register", || {
                    stage
                        .service
                        .register(SCENARIO, Arc::clone(&universe), interp)
                });
                Ok(Built {
                    universe,
                    orbits: None,
                    enum_stats: None,
                    fault_stats: Some(fu.stats),
                    mismatch,
                })
            }
        }
    }

    /// The counts build step `i` must reproduce.
    pub fn expected(self, i: usize) -> Expected {
        match self {
            Workload::BusCold => Expected::Enum {
                explored: 1_049_353,
                unique: 1_049_353,
                resumed: 0,
            },
            Workload::StarGrow => star_expected(STAR_START + 1 + i),
            Workload::GossipFaults => Expected::Faults {
                runs: GOSSIP_RUNS,
                distinct_traces: 2000,
                prefix_added: 74_304,
                universe: 76_304,
            },
        }
    }

    /// The interpretation and the corpus vocabulary over it.
    fn vocabulary(self) -> (Interpretation, Vocabulary) {
        let mut interp = Interpretation::new();
        match self {
            Workload::BusCold => {
                token_bus::token_atoms(&mut interp, 3);
                let mut atoms: Vec<String> = (0..3).map(|i| format!("token-at-p{i}")).collect();
                for i in 0..3 {
                    let p = ProcessId::new(i);
                    let name = format!("chatted-p{i}");
                    interp.register(&name, move |c| {
                        c.iter().any(|e| e.is_on(p) && e.is_internal())
                    });
                    atoms.push(name);
                }
                let vocab = Vocabulary {
                    processes: 3,
                    pairs: false,
                    atoms,
                    inner_sets: Vec::new(),
                    rare_atoms: Vec::new(),
                    rare_every: 0,
                };
                (interp, vocab)
            }
            Workload::StarGrow => {
                // token-at-p0 and the pass counts are invariant under the
                // group fixing p0, and {p0} is the only small process set it
                // stabilizes: formulas over these atoms that nest knowledge
                // only of p0 stay on the quotient. Every 32nd formula asks
                // about a token-at-pi, i > 0, which the group moves, and
                // takes the planner's orbit-expansion fallback.
                token_bus::token_atoms(&mut interp, 6);
                let mut atoms = vec!["token-at-p0".to_owned()];
                for k in 1..=5 {
                    let name = format!("passed-{k}");
                    interp.register_invariant(&name, move |c| c.sends() >= k);
                    atoms.push(name);
                }
                let vocab = Vocabulary {
                    processes: 6,
                    pairs: true,
                    atoms,
                    inner_sets: vec!["{p0}".into()],
                    rare_atoms: (1..6).map(|i| format!("token-at-p{i}")).collect(),
                    rare_every: 32,
                };
                (interp, vocab)
            }
            Workload::GossipFaults => {
                let mut atoms = Vec::new();
                for i in 0..GOSSIP_N {
                    let p = ProcessId::new(i);
                    let name = format!("heard-p{i}");
                    interp.register(&name, move |c| {
                        c.iter().any(|e| e.is_on(p) && e.is_receive())
                    });
                    atoms.push(name);
                }
                let vocab = Vocabulary {
                    processes: GOSSIP_N,
                    pairs: false,
                    atoms,
                    inner_sets: Vec::new(),
                    rare_atoms: Vec::new(),
                    rare_every: 0,
                };
                (interp, vocab)
            }
        }
    }
}

pub fn depth(max_events: usize) -> EnumerationLimits {
    EnumerationLimits {
        max_events,
        max_computations: 4_000_000,
    }
}

pub fn star_config(shards: usize) -> ShardConfig {
    ShardConfig::with_shards(shards).quotient().checkpoint()
}

fn star_expected(d: usize) -> Expected {
    let (explored, unique, resumed) = match d {
        12 => (39_061, 555, 0),
        13 => (117_186, 1410, 39_061),
        _ => (195_311, 2265, 117_186),
    };
    Expected::Enum {
        explored,
        unique,
        resumed,
    }
}

pub fn gossip_model() -> FaultModel {
    FaultModel::new(NetworkConfig::uniform(ChannelConfig {
        delay: DelayModel::Uniform { lo: 1, hi: 10 },
        drop_probability: 0.2,
        fifo: false,
    }))
    .runs(GOSSIP_RUNS)
    .seeded(GOSSIP_FAULT_SEED)
}

pub fn gossip_node(p: ProcessId) -> Box<dyn Node> {
    Box::new(GossipNode::new(p, GOSSIP_N, 2, 50, 3))
}

fn check_enum(stats: &EnumerationStats, expected: Expected) -> Option<String> {
    let got = Expected::Enum {
        explored: stats.explored,
        unique: stats.unique,
        resumed: stats.resumed,
    };
    (got != expected).then(|| format!("enumeration counts {got:?}, expected {expected:?}"))
}

fn check_faults(stats: &FaultStats, universe: usize, expected: Expected) -> Option<String> {
    let got = Expected::Faults {
        runs: stats.runs,
        distinct_traces: stats.distinct_traces,
        prefix_added: stats.prefix_added,
        universe,
    };
    (got != expected).then(|| format!("fault counts {got:?}, expected {expected:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_seed_yields_a_full_corpus() {
        for w in Workload::ALL {
            let (interp, vocab) = w.vocabulary();
            for seed in 0..40 {
                let c = corpus::generate(&vocab, &interp, seed, CORPUS_SIZE)
                    .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", w.name()));
                assert_eq!(c.texts.len(), CORPUS_SIZE);
            }
        }
    }
}
