//! # saad-adapt — empty
//!
//! Adaptive model maintenance lives in the lifecycle pool of
//! `saad_core::pipeline`: one model per tenant
//! ([`LifecycleConfig::tenants`](saad_core::pipeline::LifecycleConfig::tenants)),
//! retrained from the router's ring through the k-fold gate, and
//! Page-Hinkley drift detection ([`AdaptPolicy`](saad_core::pipeline::AdaptPolicy))
//! that triggers the in-band swap. This crate holds no code. It stays in
//! the workspace only because the stand-alone `benchmark/` package's lock
//! file lists it, with its dependencies, under `saad-bench`; it goes when
//! that package next changes.
