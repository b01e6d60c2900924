//! Real threads, analysed with the paper's machinery.
//!
//! Runs a relay over OS threads (standard channels), records the live
//! interleaving as a validated computation, and then applies the
//! calculus: process-chain detection (Theorem 1 dichotomy) and the
//! Theorem-5 observation that the last process can only "know" the
//! relay value after a chain from the first.
//!
//! Run with `cargo run --example live_run`.

use hpl_core::{decompose, Decomposition};
use hpl_model::{CausalClosure, ProcessId, ProcessSet};
use hpl_runtime::{Behavior, Runtime, ThreadCtx};

struct Relay {
    n: usize,
}

impl Behavior for Relay {
    fn run(&mut self, ctx: &mut ThreadCtx) {
        let me = ctx.me().index();
        if me == 0 {
            ctx.send(ProcessId::new(1), 1);
        } else if let Some((_, v)) = ctx.recv() {
            if me + 1 < self.n {
                ctx.send(ProcessId::new(me + 1), v + 1);
            } else {
                ctx.internal(hpl_model::ActionId::new(99)); // "value arrived"
            }
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 5;
    println!("running a {n}-thread relay on real OS threads…");
    let trace = Runtime::new(n).run(|_| Box::new(Relay { n }));
    println!("recorded computation ({} events):\n  {trace}", trace.len());

    // the forward chain exists; the reverse does not
    let fwd: Vec<ProcessSet> = (0..n).map(|i| ProcessSet::from_indices([i])).collect();
    let rev: Vec<ProcessSet> = fwd.iter().rev().copied().collect();
    println!("\nprocess chains in the live trace:");
    println!(
        "  ⟨p0 p1 p2 p3 p4⟩: {}",
        hpl_model::has_chain(&trace, 0, &fwd)
    );
    println!(
        "  ⟨p4 p3 p2 p1 p0⟩: {}",
        hpl_model::has_chain(&trace, 0, &rev)
    );

    // Theorem 1, constructively, on the live trace
    let x = trace.prefix(0);
    match decompose(&x, &trace, &rev)? {
        Decomposition::Path(p) => println!(
            "\ntheorem 1: no reverse chain ⇒ isomorphism path with {} intermediates",
            p.intermediates().len()
        ),
        Decomposition::Chain(_) => unreachable!("no reverse chain exists in a forward relay"),
    }

    // knowledge gain needs the chain: the final marker event is causally
    // after every send (Theorem 5's footprint in a real execution)
    let hb = CausalClosure::new(&trace);
    let marker = trace
        .iter()
        .position(|e| e.is_internal())
        .expect("arrival marker");
    let all_sends_before = trace
        .iter()
        .enumerate()
        .filter(|(_, e)| e.is_send())
        .all(|(i, _)| hb.happened_before(i, marker));
    println!("every send happened-before the arrival marker: {all_sends_before}");
    assert!(all_sends_before);
    Ok(())
}
