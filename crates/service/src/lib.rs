//! # service
//!
//! The long-running experiment service (`repro serve`): the scenario
//! registry and parallel runner of this reproduction, resident behind
//! a hand-rolled HTTP/1.1 server with a job queue, a content-addressed
//! result cache and a `/metrics` endpoint.
//!
//! One-shot `repro run` pays process startup and recomputes every sweep on
//! every invocation. The service amortizes both: scenarios run once per
//! `(scenario id, scale, root seed)` and every later request for the same
//! key is served from memory/disk — exact, not approximate, because the
//! runner's determinism contract makes results a pure function of the key.
//! That is the prerequisite for interactive-latency bandwidth/BER sweeps
//! (paper Sec. VII) and mirrors how cache-attack evaluations amortize
//! calibration across thousands of channel trials.
//!
//! ## Endpoints
//!
//! | Endpoint | Meaning |
//! |---|---|
//! | `GET /` | endpoint index |
//! | `GET /scenarios` | the registry, one NDJSON line per scenario |
//! | `POST /jobs` | submit `{"scenarios", "scale", "seed", "threads"}` |
//! | `GET /jobs/<id>` | job status line + result NDJSON rows once done |
//! | `GET /results/<key>` | one cached scenario body by cache key |
//! | `GET /metrics` | request/latency/queue/cache/pool counters |
//! | `POST /shutdown` | stop accepting jobs, drain in-flight, exit |
//!
//! The crate is registry-generic like [`runner`] itself: `bench` hands its
//! scenario registry to [`Server::bind`], tests hand in synthetic ones.
//! Request bodies are read with [`analysis::json`], the workspace's one
//! JSON reader.
//!
//! ```no_run
//! use runner::Registry;
//! use service::{Server, ServerConfig};
//!
//! let registry = Registry::new(); // bench::registry() in the real binary
//! let config = ServerConfig {
//!     addr: "127.0.0.1:0".to_owned(),
//!     ..ServerConfig::default()
//! };
//! let server = Server::bind(registry, config)?;
//! println!("serving on http://{}", server.local_addr()?);
//! server.serve()?; // blocks until POST /shutdown has drained the queue
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod client;
pub mod http;
pub mod job;
pub mod metrics;
pub mod server;

pub use cache::{result_key, ResultCache};
pub use client::ClientResponse;
pub use job::{Job, JobSpec, JobState};
pub use metrics::{Endpoint, Metrics};
pub use server::{Server, ServerConfig};
