//! Federated collector tier bench: steady digest throughput and leaf
//! re-homing latency at 2, 4, and 8 leaves.
//!
//! Each fleet size stands up a real loopback federation (control plane,
//! root, leaves, agents routed by the rendezvous ring), measures steady
//! synopsis throughput over timed rounds once every host has delivered,
//! then kills one leaf mid-stream and measures how long until every
//! orphaned host delivers again through its new leaf. Results go to
//! `BENCH_federation.json` (throughput as the rounds' median and
//! quartiles); an agent that drops a synopsis, a failover that is not
//! counted exactly once, or a fleet that never re-homes, fails the run.

use saad_bench::federation::{render_federation_json, run_federation};
use saad_bench::full_scale;

fn main() {
    let per_host = if full_scale() { 5_000 } else { 1_000 };
    let hosts = 32;
    println!("federation fleets: {hosts} hosts, waves of {per_host} synopses/host\n");
    println!(
        " {:>6} {:>6} {:>12} {:>30} {:>13} {:>10}",
        "leaves", "hosts", "synopses", "throughput/s (q1 median q3)", "orphan_hosts", "rehome_ms"
    );

    let results: Vec<_> = [2usize, 4, 8]
        .iter()
        .enumerate()
        .map(|(i, &leaves)| run_federation(leaves, hosts, per_host, 0x5AAD_F00D ^ i as u64))
        .collect();

    for r in &results {
        let [q1, median, q3] = r.throughput;
        println!(
            " {:>6} {:>6} {:>12} {q1:>10.0}{median:>10.0}{q3:>10.0} {:>13} {:>10.1}",
            r.leaves, r.hosts, r.steady_synopses, r.orphan_hosts, r.rehome_ms
        );
    }

    let json = render_federation_json(&results);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_federation.json");
    std::fs::write(path, json).expect("write BENCH_federation.json");
    println!("\nwrote {path}");

    for r in &results {
        assert_eq!(
            r.failovers, 1,
            "{} leaves: failover must be counted exactly once",
            r.leaves
        );
        assert!(
            r.orphan_hosts > 0,
            "{} leaves: victim owned no hosts",
            r.leaves
        );
        assert!(
            r.rehome_ms < 30_000.0,
            "{} leaves: re-homing took {:.0} ms",
            r.leaves,
            r.rehome_ms
        );
    }
}
