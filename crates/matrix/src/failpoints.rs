//! Fault-injection sites for the numerical kernels.
//!
//! A *failpoint* is a [`Site`] inside a kernel (`steqr`, `laed4`, `gemm`,
//! plus the NaN-corruption variants `nan-steqr` / `nan-gemm`) that can be
//! armed to fire on its N-th hit, either from a spec string through
//! [`arm_spec`] (`laed4:3` — fire on the third LAED4 root solve; `gemm:2+`
//! — fire on every hit from the second on; several specs comma-separated;
//! the `dcst` binary passes `DCST_FAIL` here) or from tests via [`arm`] /
//! [`exclusive`]. The sites are always compiled: while nothing is armed,
//! [`fire`] is one `Relaxed` load of the armed count and touches no
//! per-site counter.
//!
//! The registry is process-global while Rust tests in one binary run on
//! parallel threads, so arming tests must serialize against anything whose
//! behaviour an armed site could corrupt: arm through [`exclusive`] (takes
//! a write lock, disarms on drop) and have fragile-but-unarmed tests hold a
//! [`quiet`] read guard.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

/// A fault-injection site; the discriminant indexes the site table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Site {
    /// Leaf QR iteration reports `NoConvergence`.
    Steqr,
    /// A secular root solve reports `NoConvergence`.
    Laed4,
    /// The eigenvector update reports a `gemm` breakdown.
    Gemm,
    /// A leaf's eigenvalues are poisoned after a successful solve.
    NanSteqr,
    /// An eigenvector-update panel is poisoned after its GEMMs.
    NanGemm,
}

impl Site {
    pub const ALL: [Site; 5] = [
        Site::Steqr,
        Site::Laed4,
        Site::Gemm,
        Site::NanSteqr,
        Site::NanGemm,
    ];

    /// The site's name in a spec string.
    pub fn name(self) -> &'static str {
        match self {
            Site::Steqr => "steqr",
            Site::Laed4 => "laed4",
            Site::Gemm => "gemm",
            Site::NanSteqr => "nan-steqr",
            Site::NanGemm => "nan-gemm",
        }
    }
}

/// Which hits of an armed site fire (1-based: the spec's `N` / `N+`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trigger {
    /// Fire once, on the N-th hit.
    AtHit(usize),
    /// Fire on every hit from the N-th on.
    FromHit(usize),
}

struct State {
    /// Times this site has been reached while some site was armed.
    hits: AtomicUsize,
    /// 1-based hit index to fire on; 0 = disarmed.
    trigger: AtomicUsize,
    /// Fire on *every* hit >= trigger (the `N+` spec) instead of once.
    every: AtomicBool,
    /// Times this site has actually fired.
    fired: AtomicUsize,
}

static SITES: [State; Site::ALL.len()] = [const {
    State {
        hits: AtomicUsize::new(0),
        trigger: AtomicUsize::new(0),
        every: AtomicBool::new(false),
        fired: AtomicUsize::new(0),
    }
}; Site::ALL.len()];
/// Number of sites with a nonzero trigger: the only word an unarmed
/// [`fire`] reads. `Relaxed` there suffices: an arm made before a solve
/// reaches the pool workers through the handoff that starts the solve.
static ARMED: AtomicUsize = AtomicUsize::new(0);
static REGISTRY_LOCK: RwLock<()> = RwLock::new(());

/// Hit `site`. Returns true when the site is armed and this hit matches
/// its trigger — the caller then injects its failure.
// dcst-hot
#[inline]
pub fn fire(site: Site) -> bool {
    if ARMED.load(Ordering::Relaxed) == 0 {
        return false;
    }
    fire_armed(site)
}

#[cold]
#[inline(never)]
fn fire_armed(site: Site) -> bool {
    let s = &SITES[site as usize];
    let hit = s.hits.fetch_add(1, Ordering::SeqCst) + 1;
    let trigger = s.trigger.load(Ordering::SeqCst);
    if trigger == 0 {
        return false;
    }
    let fire = if s.every.load(Ordering::SeqCst) {
        hit >= trigger
    } else {
        hit == trigger
    };
    if fire {
        s.fired.fetch_add(1, Ordering::SeqCst);
    }
    fire
}

/// Hit a NaN-corruption site: when it fires, poison `buf[0]` so the
/// corruption propagates through downstream arithmetic exactly like a
/// real mid-computation breakdown would.
// dcst-hot
#[inline]
pub fn poke_nan(site: Site, buf: &mut [f64]) {
    if fire(site) {
        if let Some(x) = buf.first_mut() {
            *x = f64::NAN;
        }
    }
}

/// Arm `site` with `trigger`, resetting its counters. Panics on a 0
/// trigger (hits are 1-based).
pub fn arm(site: Site, trigger: Trigger) {
    let (n, every) = match trigger {
        Trigger::AtHit(n) => (n, false),
        Trigger::FromHit(n) => (n, true),
    };
    assert!(n > 0, "failpoint trigger is 1-based");
    let s = &SITES[site as usize];
    s.hits.store(0, Ordering::SeqCst);
    s.fired.store(0, Ordering::SeqCst);
    s.every.store(every, Ordering::SeqCst);
    if s.trigger.swap(n, Ordering::SeqCst) == 0 {
        ARMED.fetch_add(1, Ordering::SeqCst);
    }
}

/// Arm every site a spec names: comma-separated `site:N` (fire once, on
/// the N-th hit) or `site:N+` (fire on every hit from the N-th on). The
/// whole spec is checked before anything is armed; an error names the
/// offending part.
pub fn arm_spec(spec: &str) -> Result<(), String> {
    let mut armed = Vec::new();
    for part in spec.split(',') {
        let part = part.trim();
        let (name, count) = part
            .split_once(':')
            .ok_or_else(|| format!("failpoint spec '{part}' is not site:N or site:N+"))?;
        let site = Site::ALL
            .into_iter()
            .find(|s| s.name() == name)
            .ok_or_else(|| format!("unknown failpoint site '{name}' in '{part}'"))?;
        let n = |digits: &str| {
            digits
                .parse::<usize>()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| format!("failpoint trigger in '{part}' must be N or N+ with N >= 1"))
        };
        let trigger = match count.strip_suffix('+') {
            Some(digits) => Trigger::FromHit(n(digits)?),
            None => Trigger::AtHit(n(count)?),
        };
        armed.push((site, trigger));
    }
    for (site, trigger) in armed {
        arm(site, trigger);
    }
    Ok(())
}

/// Disarm every site and zero all counters.
pub fn disarm_all() {
    for s in &SITES {
        s.trigger.store(0, Ordering::SeqCst);
        s.every.store(false, Ordering::SeqCst);
        s.hits.store(0, Ordering::SeqCst);
        s.fired.store(0, Ordering::SeqCst);
    }
    ARMED.store(0, Ordering::SeqCst);
}

/// Times `site` has actually fired since it was last armed.
pub fn fired(site: Site) -> usize {
    SITES[site as usize].fired.load(Ordering::SeqCst)
}

/// Times `site` has been reached since it was last armed/reset, counting
/// only hits while some site was armed.
pub fn hits(site: Site) -> usize {
    SITES[site as usize].hits.load(Ordering::SeqCst)
}

/// Exclusive-arming guard: holds the registry write lock with a site
/// armed; disarms everything when dropped. Tests that arm sites MUST go
/// through this so parallel test threads never observe a stray arm.
pub struct Armed {
    _guard: RwLockWriteGuard<'static, ()>,
}

impl Drop for Armed {
    fn drop(&mut self) {
        disarm_all();
    }
}

/// Arm `site` with `trigger` under the registry write lock.
pub fn exclusive(site: Site, trigger: Trigger) -> Armed {
    let guard = REGISTRY_LOCK.write().unwrap_or_else(|e| e.into_inner());
    disarm_all();
    arm(site, trigger);
    Armed { _guard: guard }
}

/// Shared no-failpoints guard for tests that would be corrupted by a
/// concurrently armed site: blocks while any [`exclusive`] arm is live.
pub struct Quiet {
    _guard: RwLockReadGuard<'static, ()>,
}

/// Take a read guard on the registry (all sites disarmed while held).
pub fn quiet() -> Quiet {
    Quiet {
        _guard: REGISTRY_LOCK.read().unwrap_or_else(|e| e.into_inner()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_site_never_fires() {
        let _x = exclusive(Site::Gemm, Trigger::AtHit(1));
        for _ in 0..10 {
            assert!(!fire(Site::Steqr));
        }
        assert_eq!(fired(Site::Steqr), 0);
    }

    #[test]
    fn unarmed_fire_counts_nothing() {
        let _q = quiet();
        for site in Site::ALL {
            for _ in 0..3 {
                assert!(!fire(site), "{site:?}");
            }
        }
        for site in Site::ALL {
            assert_eq!(hits(site), 0, "{site:?}");
            assert_eq!(fired(site), 0, "{site:?}");
        }
    }

    #[test]
    fn fires_exactly_on_nth_hit() {
        let _x = exclusive(Site::Laed4, Trigger::AtHit(3));
        assert!(!fire(Site::Laed4));
        assert!(!fire(Site::Laed4));
        assert!(fire(Site::Laed4));
        assert!(!fire(Site::Laed4));
        assert_eq!(fired(Site::Laed4), 1);
        assert_eq!(hits(Site::Laed4), 4);
    }

    #[test]
    fn plus_spec_fires_repeatedly() {
        let _x = exclusive(Site::Gemm, Trigger::FromHit(2));
        assert!(!fire(Site::Gemm));
        assert!(fire(Site::Gemm));
        assert!(fire(Site::Gemm));
        assert_eq!(fired(Site::Gemm), 2);
    }

    #[test]
    fn poke_nan_poisons_on_trigger_only() {
        let _x = exclusive(Site::NanGemm, Trigger::AtHit(2));
        let mut buf = [1.0, 2.0];
        poke_nan(Site::NanGemm, &mut buf);
        assert!(buf[0].is_finite());
        poke_nan(Site::NanGemm, &mut buf);
        assert!(buf[0].is_nan());
        assert_eq!(buf[1], 2.0);
    }

    #[test]
    fn guard_drop_disarms() {
        {
            let _x = exclusive(Site::Steqr, Trigger::AtHit(1));
        }
        let _q = quiet();
        assert!(!fire(Site::Steqr));
    }

    #[test]
    fn spec_parse_accepts_and_rejects() {
        let _x = exclusive(Site::Gemm, Trigger::AtHit(1));
        for site in Site::ALL {
            disarm_all();
            arm_spec(&format!("{}:2", site.name())).unwrap();
            assert!(!fire(site) && fire(site) && !fire(site), "{site:?}");
            disarm_all();
            arm_spec(&format!("{}:2+", site.name())).unwrap();
            assert!(!fire(site) && fire(site) && fire(site), "{site:?}");
        }
        disarm_all();
        arm_spec(" steqr:1 , nan-gemm:3+").unwrap();
        assert!(fire(Site::Steqr) && !fire(Site::Laed4));

        disarm_all();
        for bad in [
            "steqr:0",
            "laed4:x",
            "laed4:+",
            "nosuch:1",
            "bogus",
            "steqr:1,,gemm:1",
            "",
        ] {
            let err = arm_spec(bad).expect_err(bad);
            assert!(!err.is_empty(), "{bad}");
            // A rejected spec arms nothing, not even its valid parts.
            assert_eq!(ARMED.load(Ordering::SeqCst), 0, "{bad}");
        }
    }
}
