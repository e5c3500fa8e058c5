//! Named failpoints for fault-injection testing.
//!
//! A failpoint is a named hook compiled into cold-adjacent spots of the
//! engine (`apply.mid`, `banks.settle`, `pool.return`) that tests —
//! in-process via [`arm`] or externally via the `CLA_FAILPOINTS`
//! environment variable — can arm to force a fault at exactly that
//! spot. The fault-injection suite uses them to prove the engine stays
//! serving and pre-fault-consistent whether a search is cut short, a
//! search panics while returning its scratch, or an apply aborts.
//!
//! Disarmed cost is one relaxed atomic load (a global armed count kept
//! at zero), so the hooks stay compiled into release builds — which is
//! what lets integration tests and the CI fault leg arm them in the
//! exact binaries that ship.
//!
//! # Arming
//!
//! ```
//! use cla_core::failpoints;
//!
//! let _x = failpoints::exclusive(); // serialize vs. other arming tests
//! failpoints::arm("banks.settle", failpoints::FailpointMode::Once);
//! assert!(failpoints::triggered("banks.settle")); // fires once…
//! assert!(!failpoints::triggered("banks.settle")); // …then disarms
//! assert_eq!(failpoints::hits("banks.settle"), 1);
//! failpoints::disarm_all();
//! ```
//!
//! Environment arming (picked up by [`arm_from_env`], which the engine
//! calls once at construction): `CLA_FAILPOINTS=banks.settle=once` or
//! `CLA_FAILPOINTS=apply.mid=once,banks.settle=always`.
//!
//! The registry is process-global; concurrent tests that arm points
//! must hold the [`exclusive`] guard so one test's faults can't leak
//! into another's searches.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Every failpoint name compiled into the engine. The `cla-xtask`
/// failpoint lint cross-checks names referenced in tests and CI
/// workflows against this list, so a renamed or removed hook can't
/// leave dangling references behind.
pub const REGISTERED: &[&str] = &["apply.mid", "banks.settle", "pool.return"];

/// How an armed failpoint fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailpointMode {
    /// Fire on the next [`triggered`] probe, then disarm.
    Once,
    /// Fire on every probe until [`disarm`]ed.
    Always,
}

#[derive(Default)]
struct Registry {
    /// Armed points. Absent = disarmed.
    modes: HashMap<String, FailpointMode>,
    /// Cumulative fire counts, surviving disarm (reset by
    /// [`disarm_all`]).
    hits: HashMap<String, u64>,
}

/// Number of currently armed points — the only thing the hot path
/// reads. Zero means every [`triggered`] probe is one relaxed load.
static ARMED: AtomicUsize = AtomicUsize::new(0);

static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();

/// Guard for tests that arm failpoints: the registry is process-global,
/// so `cargo test`'s parallel threads would otherwise leak faults into
/// each other's searches.
static EXCLUSIVE: Mutex<()> = Mutex::new(());

fn registry() -> &'static Mutex<Registry> {
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

fn lock() -> MutexGuard<'static, Registry> {
    // A panic *at* a failpoint (its whole purpose) may unwind through
    // this lock; the state itself is never left half-written.
    registry().lock().unwrap_or_else(|e| e.into_inner())
}

fn sync_armed(reg: &Registry) {
    // ordering: Relaxed — ARMED is a hint (writers hold the registry
    // mutex); a stale read on the probe fast path only costs taking
    // the lock, or misses a fire the test never synchronized with.
    ARMED.store(reg.modes.len(), Ordering::Relaxed);
}

/// Serialize a failpoint-arming test against every other one. Poisoned
/// guards are taken over (an unwound test must not wedge the suite).
pub fn exclusive() -> MutexGuard<'static, ()> {
    EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Arm `name` to fire in the given mode, replacing any previous mode.
pub fn arm(name: &str, mode: FailpointMode) {
    let mut reg = lock();
    reg.modes.insert(name.to_owned(), mode);
    sync_armed(&reg);
}

/// Disarm `name` (no-op when not armed). Hit counts are retained.
pub fn disarm(name: &str) {
    let mut reg = lock();
    reg.modes.remove(name);
    sync_armed(&reg);
}

/// Disarm every point and zero all hit counts.
pub fn disarm_all() {
    let mut reg = lock();
    reg.modes.clear();
    reg.hits.clear();
    sync_armed(&reg);
}

/// Probe `name`: `true` iff it is armed, recording a hit. `Once` points
/// disarm on their first `true`. The disarmed fast path is a single
/// relaxed atomic load.
pub fn triggered(name: &str) -> bool {
    // ordering: Relaxed — pure fast-path hint; the authoritative check
    // re-reads `modes` under the mutex below.
    if ARMED.load(Ordering::Relaxed) == 0 {
        return false;
    }
    let mut reg = lock();
    let Some(mode) = reg.modes.get(name).copied() else {
        return false;
    };
    *reg.hits.entry(name.to_owned()).or_insert(0) += 1;
    if mode == FailpointMode::Once {
        reg.modes.remove(name);
        sync_armed(&reg);
    }
    true
}

/// Cumulative number of times `name` has fired since the last
/// [`disarm_all`].
pub fn hits(name: &str) -> u64 {
    lock().hits.get(name).copied().unwrap_or(0)
}

/// Arm points from the `CLA_FAILPOINTS` environment variable:
/// a comma-separated list of `name=once` / `name=always` entries
/// (a bare `name` means `once`). Unknown modes are ignored rather than
/// panicking — a typo in CI must not take the binary down before the
/// suite can report it. Returns the number of points armed.
pub fn arm_from_env() -> usize {
    let Ok(spec) = std::env::var("CLA_FAILPOINTS") else {
        return 0;
    };
    let mut armed = 0;
    for entry in spec.split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (name, mode) = match entry.split_once('=') {
            Some((n, m)) => (n.trim(), m.trim()),
            None => (entry, "once"),
        };
        let mode = match mode {
            "once" => FailpointMode::Once,
            "always" => FailpointMode::Always,
            _ => continue,
        };
        arm(name, mode);
        armed += 1;
    }
    armed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn once_fires_exactly_once_and_counts() {
        let _x = exclusive();
        disarm_all();
        assert!(!triggered("t.once"));
        arm("t.once", FailpointMode::Once);
        assert!(triggered("t.once"));
        assert!(!triggered("t.once"));
        assert_eq!(hits("t.once"), 1);
        disarm_all();
    }

    #[test]
    fn always_fires_until_disarmed() {
        let _x = exclusive();
        disarm_all();
        arm("t.always", FailpointMode::Always);
        assert!(triggered("t.always"));
        assert!(triggered("t.always"));
        disarm("t.always");
        assert!(!triggered("t.always"));
        assert_eq!(hits("t.always"), 2);
        disarm_all();
    }

    #[test]
    fn disarmed_probe_is_free_of_registry_state() {
        let _x = exclusive();
        disarm_all();
        // With nothing armed the probe must not even create hit
        // entries (it returns before touching the registry).
        assert!(!triggered("t.unknown"));
        assert_eq!(hits("t.unknown"), 0);
    }
}
