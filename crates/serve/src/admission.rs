//! Admission control: a bounded pending queue with per-tenant quotas.
//!
//! Open-loop traffic cannot be back-pressured — jobs keep arriving at
//! the offered rate no matter how slow the fleet is — so past
//! saturation the only alternatives are unbounded queue growth or
//! load-shedding. The controller sheds: a job is rejected (never to
//! dispatch) when the fleet-wide pending bound or its tenant's quota
//! is already full, and admitted otherwise. Both checks are against
//! *admitted-but-not-yet-dispatched* jobs only.

/// Bounds for the admission controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Fleet-wide cap on admitted-but-undispatched jobs.
    pub max_pending: usize,
    /// Per-tenant cap on admitted-but-undispatched jobs (isolation:
    /// one flooding tenant cannot occupy the whole pending queue).
    pub tenant_quota: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_pending: 64,
            tenant_quota: 16,
        }
    }
}

/// Why a job was shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The fleet-wide pending bound was full.
    QueueFull,
    /// The tenant's own quota was full.
    QuotaExceeded,
}

/// Pending-queue accountant. The fairness layer holds the actual job
/// queues; this tracks only the counts the bounds are defined over.
///
/// Per-tenant counts are indexed by tenant id and grow to the largest
/// id admitted, so ids should be dense (`0..tenants`).
#[derive(Debug)]
pub struct Admission {
    cfg: AdmissionConfig,
    pending: usize,
    per_tenant: Vec<usize>,
    /// High-water mark of the fleet-wide pending count.
    pub peak_pending: usize,
    /// High-water mark per tenant.
    peak_per_tenant: Vec<usize>,
}

impl Admission {
    /// A controller with the given bounds.
    pub fn new(cfg: AdmissionConfig) -> Self {
        Admission {
            cfg,
            pending: 0,
            per_tenant: Vec::new(),
            peak_pending: 0,
            peak_per_tenant: Vec::new(),
        }
    }

    /// Admits one job for `tenant`, or says why not. Counts are only
    /// mutated on success.
    pub fn try_admit(&mut self, tenant: u32) -> Result<(), ShedReason> {
        if self.pending >= self.cfg.max_pending {
            return Err(ShedReason::QueueFull);
        }
        let tenant = tenant as usize;
        if tenant >= self.per_tenant.len() {
            self.per_tenant.resize(tenant + 1, 0);
            self.peak_per_tenant.resize(tenant + 1, 0);
        }
        let t = &mut self.per_tenant[tenant];
        if *t >= self.cfg.tenant_quota {
            return Err(ShedReason::QuotaExceeded);
        }
        *t += 1;
        self.pending += 1;
        self.peak_pending = self.peak_pending.max(self.pending);
        let peak = &mut self.peak_per_tenant[tenant];
        *peak = (*peak).max(*t);
        Ok(())
    }

    /// Releases one admitted job of `tenant` (it was dispatched).
    ///
    /// # Panics
    /// If the tenant has no admitted jobs — a serve-loop bug.
    pub fn release(&mut self, tenant: u32) {
        let t = self
            .per_tenant
            .get_mut(tenant as usize)
            .expect("tenant admitted");
        assert!(*t > 0 && self.pending > 0, "release without admit");
        *t -= 1;
        self.pending -= 1;
    }

    /// Admitted-but-undispatched jobs fleet-wide.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// High-water mark of `tenant`'s admitted-but-undispatched jobs (0
    /// for a tenant never admitted).
    pub fn peak_tenant(&self, tenant: u32) -> usize {
        self.peak_per_tenant
            .get(tenant as usize)
            .copied()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quota_binds_before_global_bound() {
        let mut a = Admission::new(AdmissionConfig {
            max_pending: 10,
            tenant_quota: 2,
        });
        assert!(a.try_admit(0).is_ok());
        assert!(a.try_admit(0).is_ok());
        assert_eq!(a.try_admit(0), Err(ShedReason::QuotaExceeded));
        // Another tenant still gets in: isolation.
        assert!(a.try_admit(1).is_ok());
        assert_eq!(a.pending(), 3);
    }

    #[test]
    fn global_bound_sheds_everyone() {
        let mut a = Admission::new(AdmissionConfig {
            max_pending: 2,
            tenant_quota: 8,
        });
        assert!(a.try_admit(0).is_ok());
        assert!(a.try_admit(1).is_ok());
        assert_eq!(a.try_admit(2), Err(ShedReason::QueueFull));
        a.release(0);
        assert!(a.try_admit(2).is_ok());
        assert_eq!(a.peak_pending, 2);
    }
}
