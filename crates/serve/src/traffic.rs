//! Open-loop traffic generation: each tenant's job arrivals are drawn
//! ahead of time from a seeded interarrival process, so the offered
//! load never reacts to service times (the defining property of an
//! open-loop experiment — see EXPERIMENTS.md) and a run is fully
//! determined by its seed.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use crate::catalog::{Catalog, JobApp};

/// Interarrival process shape. Both produce the same long-run offered
/// rate for a given mean; they differ in variance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Exponential interarrival gaps (memoryless, the M/G/1 textbook
    /// arrival side).
    Poisson,
    /// Arrivals come in bursts: `burst` jobs in quick succession
    /// (gaps of one tenth of the mean), then one exponential gap
    /// stretched by `burst` so the long-run rate matches Poisson at
    /// the same mean.
    Bursty {
        /// Jobs per burst (≥ 1; 1 degenerates to Poisson).
        burst: u32,
    },
}

impl ArrivalProcess {
    /// Parses `poisson` or `bursty[:burst]`.
    pub fn parse(s: &str) -> Option<ArrivalProcess> {
        match s.split(':').collect::<Vec<_>>().as_slice() {
            ["poisson"] => Some(ArrivalProcess::Poisson),
            ["bursty"] => Some(ArrivalProcess::Bursty { burst: 4 }),
            ["bursty", b] => b.parse().ok().map(|burst| ArrivalProcess::Bursty { burst }),
            _ => None,
        }
    }

    /// Label used in reports and JSON.
    pub fn label(&self) -> String {
        match self {
            ArrivalProcess::Poisson => "poisson".into(),
            ArrivalProcess::Bursty { burst } => format!("bursty:{burst}"),
        }
    }
}

/// The traffic side of a serve run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficConfig {
    /// Number of simulated tenants.
    pub tenants: u32,
    /// Jobs each tenant submits over the run.
    pub jobs_per_tenant: u32,
    /// Mean interarrival gap per tenant (µs of serve time).
    pub mean_interarrival_us: u64,
    /// Gap distribution.
    pub process: ArrivalProcess,
    /// Seed for the per-tenant interarrival/app-choice streams. This
    /// is the *only* randomness in the serve layer (RIPS-L002 in the
    /// root `clippy.toml`: seeded shim RNG, no ambient entropy).
    pub seed: u64,
}

/// One job submission, fixed before the run starts.
#[derive(Debug, Clone)]
pub struct Arrival {
    /// Serve-timeline submission instant (µs).
    pub time: u64,
    /// Submitting tenant.
    pub tenant: u32,
    /// Serve-wide job id (position in global arrival order).
    pub job: u64,
    /// What the tenant asked to run.
    pub app: Arc<JobApp>,
}

/// SplitMix64-style mix so per-tenant streams are decorrelated.
fn mix_seed(seed: u64, tenant: u64) -> u64 {
    let mut z = seed ^ tenant.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Exponential gap with the given mean, via inverse CDF on the shim's
/// `[0, 1)` uniform. Clamped to ≥ 1 µs so arrivals strictly advance
/// within a tenant.
fn exp_gap(rng: &mut SmallRng, mean_us: u64) -> u64 {
    let u: f64 = rng.random();
    let gap = -(1.0 - u).ln() * mean_us as f64;
    (gap as u64).max(1)
}

/// Generates the full arrival schedule: per-tenant streams drawn
/// independently, merged by `(time, tenant)`, job ids assigned in
/// merged order. Deterministic in `cfg.seed`.
pub fn generate(cfg: &TrafficConfig, catalog: &Catalog) -> Vec<Arrival> {
    let mut all = Vec::new();
    for tenant in 0..cfg.tenants {
        let mut rng = SmallRng::seed_from_u64(mix_seed(cfg.seed, u64::from(tenant)));
        let mut t = 0u64;
        let mut in_burst = 0u32;
        for _ in 0..cfg.jobs_per_tenant {
            let gap = match cfg.process {
                ArrivalProcess::Poisson => exp_gap(&mut rng, cfg.mean_interarrival_us),
                ArrivalProcess::Bursty { burst } => {
                    let burst = burst.max(1);
                    if in_burst == 0 {
                        in_burst = burst - 1;
                        exp_gap(&mut rng, cfg.mean_interarrival_us * u64::from(burst))
                    } else {
                        in_burst -= 1;
                        (cfg.mean_interarrival_us / 10).max(1)
                    }
                }
            };
            t += gap;
            all.push(Arrival {
                time: t,
                tenant,
                job: 0, // assigned after the merge
                app: catalog.pick(&mut rng),
            });
        }
    }
    all.sort_by_key(|a| (a.time, a.tenant));
    for (i, a) in all.iter_mut().enumerate() {
        a.job = i as u64;
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(process: ArrivalProcess) -> TrafficConfig {
        TrafficConfig {
            tenants: 3,
            jobs_per_tenant: 50,
            mean_interarrival_us: 10_000,
            process,
            seed: 42,
        }
    }

    #[test]
    fn schedule_is_seed_deterministic_and_ordered() {
        let cat = Catalog::tiny();
        let a = generate(&cfg(ArrivalProcess::Poisson), &cat);
        let b = generate(&cfg(ArrivalProcess::Poisson), &cat);
        assert_eq!(a.len(), 150);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.time, x.tenant, x.job), (y.time, y.tenant, y.job));
            assert_eq!(x.app.name, y.app.name);
        }
        assert!(a.windows(2).all(|w| w[0].time <= w[1].time));
        assert!(a.iter().enumerate().all(|(i, x)| x.job == i as u64));
    }

    #[test]
    fn poisson_mean_gap_is_roughly_the_configured_mean() {
        let cat = Catalog::tiny();
        let c = TrafficConfig {
            tenants: 1,
            jobs_per_tenant: 2000,
            ..cfg(ArrivalProcess::Poisson)
        };
        let a = generate(&c, &cat);
        let span = a.last().unwrap().time - a[0].time;
        let mean = span as f64 / (a.len() - 1) as f64;
        assert!(
            (mean - 10_000.0).abs() < 1_500.0,
            "mean gap {mean} too far from 10000"
        );
    }

    #[test]
    fn bursty_matches_poisson_rate_but_clumps() {
        let cat = Catalog::tiny();
        let c = TrafficConfig {
            tenants: 1,
            jobs_per_tenant: 2000,
            ..cfg(ArrivalProcess::Bursty { burst: 4 })
        };
        let a = generate(&c, &cat);
        let span = a.last().unwrap().time - a[0].time;
        let mean = span as f64 / (a.len() - 1) as f64;
        assert!(
            (mean - 10_000.0).abs() < 2_500.0,
            "long-run bursty rate {mean} drifted from 10000"
        );
        // Clumping: many gaps are the short intra-burst gap.
        let short = a
            .windows(2)
            .filter(|w| w[1].time - w[0].time <= 1_000)
            .count();
        assert!(short > a.len() / 2, "only {short} short gaps");
    }
}
