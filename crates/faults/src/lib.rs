//! Deterministic fault injection for resilience testing.
//!
//! Production code is threaded with named *fault points* — `should_fire("x")`
//! calls that are always-false no-ops unless a [`FaultPlan`] has been armed.
//! A plan is a declarative spec of which points fire, how many times, and
//! after how many passes — parsed from the `ROUGHSIM_FAULTS` environment
//! variable at first use, or installed programmatically by tests. Because the
//! plan is counter-based (no clocks, no randomness), the same plan against
//! the same workload reproduces the same failures —
//! chaos runs are debuggable, and CI chaos smoke is stable.
//!
//! # Plan grammar
//!
//! Entries are separated by `;` or `,`:
//!
//! ```text
//! ROUGHSIM_FAULTS="worker.exit#w0:1;solver.krylov.breakdown:*;checkpoint.append.torn:2@1"
//! ```
//!
//! Each entry is `name[#scope][:count][@skip]`:
//!
//! * `name` — the fault point, e.g. `solver.krylov.breakdown`;
//! * `#scope` — only arm the point in processes whose `ROUGHSIM_FAULT_SCOPE`
//!   environment variable equals `scope` (the socket executor sets `w<index>`
//!   for each spawned worker, so `worker.exit#w0` kills exactly one member of
//!   the fleet instead of every worker process);
//! * `:count` — fire this many times then pass (default 1; `*` = always);
//! * `@skip` — pass this many hits before the first firing (default 0).
//!
//! An entry containing `=`, such as `seed=42`, is refused like any other
//! malformed entry, rather than arming a fault point that never fires.
//!
//! # Process model
//!
//! The armed plan is process-global (workers are separate processes and each
//! parses its own `ROUGHSIM_FAULTS`). Tests that install plans in-process
//! must serialize against each other and [`clear`] when done; the
//! [`ScopedPlan`] guard does both ends of that.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Environment variable holding the fault plan spec.
pub const FAULTS_ENV: &str = "ROUGHSIM_FAULTS";

/// Environment variable naming this process's fault scope (matched against
/// `#scope` suffixes). The socket executor sets it to `w<index>` in each
/// spawned worker.
pub const SCOPE_ENV: &str = "ROUGHSIM_FAULT_SCOPE";

/// One armed fault point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEntry {
    /// Fault-point name.
    pub name: String,
    /// Scope restriction (`None` = every process).
    pub scope: Option<String>,
    /// How many times the point fires (`None` = unlimited).
    pub count: Option<u64>,
    /// Hits to pass before the first firing.
    pub skip: u64,
}

/// A parsed, declarative fault-injection spec.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    entries: Vec<FaultEntry>,
}

impl FaultPlan {
    /// The empty plan: no point ever fires.
    pub fn none() -> Self {
        Self::default()
    }

    /// Parses a plan spec (see the module docs for the grammar). Malformed
    /// entries are rejected rather than silently dropped: a chaos run with a
    /// typo'd plan should fail loudly, not pass vacuously.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first malformed entry.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = Self::default();
        for raw in spec.split([';', ',']) {
            let raw = raw.trim();
            if raw.is_empty() {
                continue;
            }
            if raw.contains('=') {
                return Err(format!("fault plan: `{raw}` is not a fault point"));
            }
            let (head, skip) = match raw.split_once('@') {
                Some((head, skip)) => (
                    head,
                    skip.parse()
                        .map_err(|_| format!("fault plan: bad skip in `{raw}`"))?,
                ),
                None => (raw, 0),
            };
            let (head, count) = match head.split_once(':') {
                Some((head, "*")) => (head, None),
                Some((head, count)) => (
                    head,
                    Some(
                        count
                            .parse()
                            .map_err(|_| format!("fault plan: bad count in `{raw}`"))?,
                    ),
                ),
                None => (head, Some(1)),
            };
            let (name, scope) = match head.split_once('#') {
                Some((name, scope)) => (name, Some(scope.to_owned())),
                None => (head, None),
            };
            if name.is_empty() {
                return Err(format!("fault plan: empty fault name in `{raw}`"));
            }
            plan.entries.push(FaultEntry {
                name: name.to_owned(),
                scope,
                count,
                skip,
            });
        }
        Ok(plan)
    }

    /// The armed entries.
    pub fn entries(&self) -> &[FaultEntry] {
        &self.entries
    }

    /// Whether the plan arms `name` for the given process scope.
    pub fn arms(&self, name: &str, scope: Option<&str>) -> bool {
        self.entries.iter().any(|e| {
            e.name == name
                && match (&e.scope, scope) {
                    (None, _) => true,
                    (Some(want), Some(have)) => want == have,
                    (Some(_), None) => false,
                }
        })
    }
}

/// Mutable per-process state of the armed plan: hit counters per entry.
#[derive(Debug, Default)]
struct Armed {
    plan: FaultPlan,
    /// This process's scope (from [`SCOPE_ENV`] at arm time).
    scope: Option<String>,
    /// Hits per entry index.
    hits: Vec<u64>,
    /// Total *firings* per fault-point name (test observability).
    fired: HashMap<String, u64>,
}

impl Armed {
    fn new(plan: FaultPlan, scope: Option<String>) -> Self {
        let hits = vec![0; plan.entries.len()];
        Self {
            plan,
            scope,
            hits,
            fired: HashMap::new(),
        }
    }

    fn should_fire(&mut self, point: &str) -> bool {
        let scope = self.scope.as_deref();
        let mut fire = false;
        for (i, entry) in self.plan.entries.iter().enumerate() {
            if entry.name != point {
                continue;
            }
            let in_scope = match (&entry.scope, scope) {
                (None, _) => true,
                (Some(want), Some(have)) => want == have,
                (Some(_), None) => false,
            };
            if !in_scope {
                continue;
            }
            let hit = self.hits[i];
            self.hits[i] += 1;
            if hit < entry.skip {
                continue;
            }
            let fired_so_far = hit - entry.skip;
            if entry.count.is_none_or(|c| fired_so_far < c) {
                fire = true;
            }
        }
        if fire {
            *self.fired.entry(point.to_owned()).or_insert(0) += 1;
        }
        fire
    }
}

/// Fast path: `false` means no plan is armed and [`should_fire`] is a single
/// relaxed atomic load.
static ANY_ARMED: AtomicBool = AtomicBool::new(false);

static ARMED: OnceLock<Mutex<Armed>> = OnceLock::new();

fn armed() -> MutexGuard<'static, Armed> {
    let cell = ARMED.get_or_init(|| {
        let plan = env_plan().unwrap_or_else(|e| {
            eprintln!("roughsim: ignoring {e}");
            FaultPlan::none()
        });
        let scope = std::env::var(SCOPE_ENV).ok();
        if !plan.entries.is_empty() {
            ANY_ARMED.store(true, Ordering::Release);
        }
        Mutex::new(Armed::new(plan, scope))
    });
    cell.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The plan in [`FAULTS_ENV`]; the empty plan when the variable is unset.
fn env_plan() -> Result<FaultPlan, String> {
    match std::env::var(FAULTS_ENV) {
        Ok(spec) => FaultPlan::parse(&spec).map_err(|e| format!("{FAULTS_ENV}={spec:?}: {e}")),
        Err(std::env::VarError::NotPresent) => Ok(FaultPlan::none()),
        Err(std::env::VarError::NotUnicode(_)) => Err(format!("{FAULTS_ENV} is not UTF-8")),
    }
}

/// Parses and arms the environment plan (if any). [`should_fire`] arms
/// lazily and ignores a malformed plan with one stderr line; call this
/// eagerly at process start to refuse one instead.
///
/// # Errors
///
/// Returns a message naming [`FAULTS_ENV`] when its plan does not parse;
/// nothing is armed then.
pub fn init_from_env() -> Result<(), String> {
    env_plan()?;
    drop(armed());
    Ok(())
}

/// Returns `true` when the armed plan says fault point `point` fires now.
///
/// With no plan armed this is one relaxed atomic load — cheap enough to
/// leave in hot paths. Each call counts as one *hit* of the point against
/// every matching entry (skip/count bookkeeping is per entry).
pub fn should_fire(point: &str) -> bool {
    if !ANY_ARMED.load(Ordering::Acquire) {
        // Arm from the environment exactly once; cheap no-op afterwards.
        if ARMED.get().is_none() {
            drop(armed());
            if ANY_ARMED.load(Ordering::Acquire) {
                return armed().should_fire(point);
            }
        }
        return false;
    }
    armed().should_fire(point)
}

/// How many times fault point `point` has fired in this process.
pub fn fired_count(point: &str) -> u64 {
    if ARMED.get().is_none() {
        return 0;
    }
    armed().fired.get(point).copied().unwrap_or(0)
}

/// Installs `plan` programmatically (tests, soak drivers), replacing any
/// armed plan and resetting all counters. The scope is re-read from
/// [`SCOPE_ENV`].
pub fn install(plan: FaultPlan) {
    let any = !plan.entries.is_empty();
    let scope = std::env::var(SCOPE_ENV).ok();
    *armed() = Armed::new(plan, scope);
    ANY_ARMED.store(any, Ordering::Release);
}

/// Disarms fault injection entirely (counters reset).
pub fn clear() {
    install(FaultPlan::none());
}

/// Serializes tests that install in-process plans: the global plan is
/// process-wide state, so concurrent installs would interfere.
static TEST_GUARD: Mutex<()> = Mutex::new(());

/// RAII guard for tests: holds the cross-test lock, installs a plan, and
/// clears it on drop.
pub struct ScopedPlan {
    _lock: MutexGuard<'static, ()>,
}

impl ScopedPlan {
    /// Locks out other in-process plan users and arms `plan`.
    pub fn install(plan: FaultPlan) -> Self {
        let lock = TEST_GUARD
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        install(plan);
        Self { _lock: lock }
    }

    /// Parses and arms `spec` (panics on a malformed spec — test helper).
    pub fn parse(spec: &str) -> Self {
        Self::install(FaultPlan::parse(spec).expect("valid fault plan spec"))
    }
}

impl Drop for ScopedPlan {
    fn drop(&mut self) {
        clear();
    }
}

/// SplitMix64 — the tiny, high-quality mixer used for deterministic jitter.
/// Public so the socket worker's dial loop can derive per-attempt jitter
/// from the attempt number without any shared RNG state.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parsing_covers_the_grammar() {
        let plan = FaultPlan::parse(
            "worker.exit#w0:1; solver.krylov.breakdown:* , checkpoint.append.torn:2@1",
        )
        .unwrap();
        assert_eq!(plan.entries().len(), 3);
        assert_eq!(
            plan.entries()[0],
            FaultEntry {
                name: "worker.exit".into(),
                scope: Some("w0".into()),
                count: Some(1),
                skip: 0,
            }
        );
        assert_eq!(plan.entries()[1].count, None);
        assert_eq!(plan.entries()[2].count, Some(2));
        assert_eq!(plan.entries()[2].skip, 1);
        assert!(plan.arms("solver.krylov.breakdown", None));
        assert!(plan.arms("worker.exit", Some("w0")));
        assert!(!plan.arms("worker.exit", Some("w1")));
        assert!(!plan.arms("worker.exit", None));
    }

    #[test]
    fn malformed_specs_are_rejected() {
        assert!(FaultPlan::parse("x:abc").is_err());
        assert!(FaultPlan::parse("x@zz").is_err());
        assert!(FaultPlan::parse(":3").is_err());
        assert!(FaultPlan::parse("seed=notanumber").is_err());
        assert!(FaultPlan::parse("seed=42").is_err());
        assert!(FaultPlan::parse("worker.exit:1;seed=42").is_err());
        assert_eq!(FaultPlan::parse("  ;; , ").unwrap(), FaultPlan::none());
    }

    #[test]
    fn init_from_env_refuses_a_malformed_plan() {
        // Holds the in-process plan lock: the variable is process-wide.
        let _lock = TEST_GUARD
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let saved = std::env::var_os(FAULTS_ENV);
        std::env::set_var(FAULTS_ENV, "worker.exit#w0:1;seed=42");
        let malformed = init_from_env();
        std::env::remove_var(FAULTS_ENV);
        let unset = init_from_env();
        if let Some(value) = saved {
            std::env::set_var(FAULTS_ENV, value);
        }
        let err = malformed.expect_err("a malformed plan must be refused");
        assert!(err.contains(FAULTS_ENV), "{err}");
        assert_eq!(unset, Ok(()));
    }

    #[test]
    fn counts_and_skips_gate_firings() {
        let _guard = ScopedPlan::parse("p:2@1");
        assert!(!should_fire("p"), "skip must pass the first hit");
        assert!(should_fire("p"));
        assert!(should_fire("p"));
        assert!(!should_fire("p"), "count exhausted");
        assert_eq!(fired_count("p"), 2);
        assert!(!should_fire("unrelated"));
    }

    #[test]
    fn unlimited_counts_always_fire() {
        let _guard = ScopedPlan::parse("q:*");
        for _ in 0..10 {
            assert!(should_fire("q"));
        }
        assert_eq!(fired_count("q"), 10);
    }

    #[test]
    fn cleared_plans_never_fire() {
        {
            let _guard = ScopedPlan::parse("r:1");
            assert!(should_fire("r"));
        }
        assert!(!should_fire("r"));
    }

    #[test]
    fn scoped_entries_only_fire_in_their_scope() {
        // This process has no ROUGHSIM_FAULT_SCOPE, so a scoped entry never
        // fires here — exactly the behaviour the socket dispatcher (unscoped
        // parent) relies on when its children carry w<i> scopes.
        let _guard = ScopedPlan::parse("s#w0:1");
        assert!(!should_fire("s"));
    }

    #[test]
    fn splitmix_is_deterministic_and_mixes() {
        assert_eq!(splitmix64(1), splitmix64(1));
        assert_ne!(splitmix64(1), splitmix64(2));
    }
}
