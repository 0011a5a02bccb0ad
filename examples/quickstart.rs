//! Quickstart: build the dependency graph over the curated 44-service
//! dataset, inspect its shape, and ask the query facade both of the
//! paper's questions.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use actfort::core::dot;
use actfort::core::profile::AttackerProfile;
use actfort::core::{Analysis, Tdg};
use actfort::ecosystem::dataset::curated_services;
use actfort::ecosystem::policy::Platform;

fn main() {
    // The attacker profile of the paper: knows the victim's number and
    // can intercept SMS codes.
    let ap = AttackerProfile::paper_default();
    let tdg = Tdg::build(&curated_services(), Platform::MobileApp, ap);

    let stats = dot::stats(&tdg);
    println!("Transformation Dependency Graph (mobile):");
    println!("  nodes: {} ({} fringe / {} internal)", stats.nodes, stats.fringe, stats.internal);
    println!("  strong-directivity edges: {}", stats.strong_edges);
    println!("  couple-file entries: {}", stats.couples);
    println!();

    // Question 1 (forward): what falls, starting from nothing but the
    // attacker profile?
    let forward = Analysis::of(&tdg).forward(&[]).run().expect("no seeds to reject");
    println!(
        "Forward analysis: {} of {} accounts compromised in {} rounds",
        forward.compromised_count(),
        stats.nodes,
        forward.rounds.len().saturating_sub(1),
    );
    println!("  survivors: {:?}", forward.uncompromised.iter().map(|s| s.as_str()).collect::<Vec<_>>());
    println!();

    // Question 2 (backward): how do I reach a hardened Fintech target?
    for target in ["alipay", "paypal", "union-bank"] {
        let chains = Analysis::of(&tdg)
            .backward(&target.into())
            .max_chains(1)
            .run()
            .expect("curated service ids");
        match chains.first() {
            Some(chain) => println!("Attack chain for {target}: {chain}"),
            None => println!("Attack chain for {target}: none — the account resists this profile"),
        }
    }
}
