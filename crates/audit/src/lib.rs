//! Correctness tooling for the RIPS reproduction: the runtime
//! invariant auditors that check the paper's theorems against traced
//! scheduler runs.
//!
//! * [`auditor`] — the invariant [`Auditor`], a trace sink that checks
//!   Theorem 1 (post-schedule load balance), Theorem 2 / Lemma 1
//!   (non-local-task minimality), task and migration conservation,
//!   barrier pairing, and phase monotonicity against any traced
//!   scheduler run. Run it via `rips run --audit`; the golden and
//!   property tests run it across the whole roster.
//! * [`serve`] extends it to multi-job serve runs: each dispatch window
//!   feeds a fresh inner auditor, plus job-lifecycle invariants
//!   (per-job conservation, no overlapping windows, no work outside a
//!   window, shed jobs never dispatch).
//!
//! The crate depends only on `rips-trace`, whose sink interface the
//! auditors implement. The workspace's source-level rules (no seeded
//! containers or wall-clock time in simulated code, no `unsafe`, and
//! so on) are compiler and clippy lints, not code here: DESIGN §7
//! lists each with where it is configured.

#![forbid(unsafe_code)]
#![deny(
    missing_docs,
    unreachable_pub,
    reason = "RIPS-L005: every public item is documented, and `pub` means reachable"
)]

pub mod auditor;
pub mod serve;

pub use auditor::{min_nonlocal_lower_bound, quotas, AuditReport, Auditor};
pub use serve::{ServeAuditReport, ServeAuditor};
