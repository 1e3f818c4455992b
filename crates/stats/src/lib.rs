//! Statistics substrate for SAAD (Stage-Aware Anomaly Detection).
//!
//! The SAAD paper's statistical analyzer was written in R; this crate
//! re-implements, from scratch, exactly the machinery that analyzer needs:
//!
//! * descriptive statistics and streaming (Welford) moments
//!   ([`descriptive`]),
//! * empirical quantiles and the cumulative share curve ([`quantile`]),
//! * special functions — `ln Γ` and the regularized incomplete beta
//!   ([`special`]),
//! * the one-sided proportion test used for flow and performance anomaly
//!   detection at significance level 0.001, an exact binomial tail
//!   ([`hypothesis`]),
//! * k-fold cross-validation used to discard signatures whose duration
//!   distribution cannot support a percentile threshold ([`kfold`]),
//! * the window summaries a lifecycle pool's drift detector compares: a
//!   relative-error quantile sketch ([`sketch`]), signature-frequency
//!   counting ([`decay`]), and Page-Hinkley change detection ([`drift`]).
//!
//! # Example
//!
//! ```
//! use saad_stats::hypothesis::{one_sided_proportion_test, Alternative};
//!
//! // Training saw 1% outliers; a runtime window sees 40 outliers in
//! // 200 tasks. Is the proportion significantly greater?
//! let res = one_sided_proportion_test(40, 200, 0.01, Alternative::Greater);
//! assert!(res.p_value < 0.001);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod decay;
pub mod descriptive;
pub mod drift;
pub mod hypothesis;
pub mod kfold;
pub mod quantile;
pub mod sketch;
pub mod special;

pub use decay::DecayedFrequency;
pub use descriptive::{OnlineStats, Summary};
pub use drift::PageHinkley;
pub use hypothesis::{one_sided_proportion_test, Alternative, TestResult};
pub use quantile::{percentile, percentile_nan_below};
pub use sketch::QuantileSketch;
