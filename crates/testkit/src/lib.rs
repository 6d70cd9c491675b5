//! `puma-testkit` — the cross-crate differential test harness.
//!
//! PUMA's credibility rests on three independent implementations of the
//! same semantics agreeing: the compiler + functional simulator, the
//! host-side reference evaluators, and the published tables. This crate
//! packages the machinery every future PR verifies against:
//!
//! - [`harness`] — compile-and-run glue (graph → PUMAsim → outputs) and
//!   fixed-point-tolerance comparison of output maps;
//! - [`modelgen`] — proptest strategies producing random-but-valid
//!   [`Model`](puma_compiler::graph::Model) graphs with MLP/LSTM shapes
//!   (and CNN workload specs) drawn from the Table 5 zoo families;
//! - [`isagen`] — a strategy covering every encodable instruction, for
//!   encode/decode/assemble round-trip suites;
//! - [`imagegen`] — random small multi-tile machine images and the
//!   engine-differential check the image fuzzer runs them through;
//! - [`golden`] — stdout snapshot checking for the figure/table binaries,
//!   so paper numbers cannot silently drift.
//!
//! Everything is deterministic: the vendored proptest seeds each test from
//! its own name, and all model weights/inputs derive from explicit seeds.
//!
//! # Example: a one-off differential check
//!
//! ```
//! use puma_compiler::graph::Model;
//! use puma_core::tensor::Matrix;
//! use puma_testkit::harness;
//!
//! let mut m = Model::new("demo");
//! let x = m.input("x", 16);
//! let a = m.constant_matrix("A", Matrix::from_fn(16, 16, |r, c| ((r + c) % 5) as f32 * 0.01));
//! let ax = m.mvm(a, x).unwrap();
//! let z = m.relu(ax);
//! m.output("z", z);
//!
//! let inputs = vec![("x".to_string(), vec![0.1; 16])];
//! let got = harness::run_functional(&m, &harness::small_node_config(16), &inputs).unwrap();
//! let want = harness::reference_outputs(&m, &inputs).unwrap();
//! harness::compare_outputs(&got, &want, 0.02).unwrap();
//! ```

#![warn(missing_docs)]

pub mod golden;
pub mod harness;
pub mod imagegen;
pub mod isagen;
pub mod modelgen;
