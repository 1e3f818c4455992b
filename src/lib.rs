//! # SAAD — Stage-Aware Anomaly Detection
//!
//! Facade crate re-exporting the full reproduction of *"Stage-Aware
//! Anomaly Detection through Tracking Log Points"* (Middleware 2014):
//!
//! * [`core`] — the paper's contribution: task execution tracker,
//!   synopses, outlier model, windowed statistical anomaly detector — and
//!   the sharded analyzer pool with durable, drift-adaptive, per-tenant
//!   models;
//! * [`logging`] — the log4j-style facade with identified log points;
//! * [`stats`] — the statistical machinery (percentiles, the exact
//!   proportion test, k-fold);
//! * [`sim`] — virtual time, clocks, queued resources;
//! * [`stage`] — a real-threaded staged server runtime;
//! * [`fault`] — error/delay fault injection and disk-hog schedules;
//! * [`net`] — the TCP collector/agent pair that carries synopses from
//!   tracker shims to the analyzer over real sockets;
//! * [`obs`] — self-observability: lock-free metrics registry and
//!   Prometheus exposition for SAAD's own pipeline;
//! * [`hdfs`] / [`hbase`] / [`cassandra`] — the simulated storage systems
//!   the paper evaluates on;
//! * [`relay`] — the g3proxy-shaped staged relay simulator whose
//!   long-lived, interleaved tasks carry the gray-failure scenarios;
//! * [`workload`] — the YCSB-like workload generator;
//! * [`textmine`] — the conventional log-mining baseline;
//! * [`instrument`] — the static source instrumentation pass.
//!
//! See `examples/quickstart.rs` for an end-to-end tour, and
//! `crates/bench` for the harness that regenerates every table and figure
//! in the paper.

pub use saad_cassandra as cassandra;
pub use saad_core as core;
pub use saad_fault as fault;
pub use saad_hbase as hbase;
pub use saad_hdfs as hdfs;
pub use saad_instrument as instrument;
pub use saad_logging as logging;
pub use saad_net as net;
pub use saad_obs as obs;
pub use saad_relay as relay;
pub use saad_sim as sim;
pub use saad_stage as stage;
pub use saad_stats as stats;
pub use saad_textmine as textmine;
pub use saad_workload as workload;
