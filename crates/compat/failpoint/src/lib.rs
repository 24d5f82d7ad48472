//! A vendored, dependency-free stand-in for a fail-rs-style failpoint crate.
//!
//! Production code marks interesting fault sites with [`point!`]:
//!
//! ```ignore
//! failpoint::point!("serve/cache-commit", |msg: String| Err(io::Error::other(msg)));
//! ```
//!
//! By default (feature `failpoints` off) every `point!` expands to an empty block —
//! zero code, zero branches, zero dependencies on this crate's runtime. With the
//! feature on, each evaluation consults a process-global registry that maps point
//! names to fault specs, configured either through the `FAILPOINTS` environment
//! variable (`name=spec;name=spec`) or the `configure`/`configure_guard` test API.
//!
//! # Spec grammar
//!
//! ```text
//! spec   := [count "*"] action
//! count  := K              -- fire on the first K evaluations only
//!         | N "/" M ["@" SEED]  -- fire on a seeded choice of N of every M evaluations
//! action := "off"
//!         | "panic" [ "(" msg ")" ]
//!         | "return" [ "(" msg ")" ]
//!         | "delay" "(" millis ")"
//! ```
//!
//! Examples: `panic`, `2*return(disk full)`, `delay(25)`, `1/8@42*panic`.
//!
//! The `N/M@SEED` mode makes injected schedules reproducible: evaluations are split
//! into consecutive windows of `M`, and within each window a seeded Fisher–Yates
//! shuffle picks exactly `N` positions that fire. The *sequence* of firing hit
//! indices is a pure function of `(N, M, SEED)`; when callers race, which caller
//! observes a given hit index still depends on arrival order.
//!
//! Like the other `crates/compat` shims this is an API-compatible reconstruction of
//! the subset the workspace needs, not a copy of any upstream implementation.

#![forbid(unsafe_code)]

/// Mark a fault-injection site.
///
/// `point!(name)` supports `panic` and `delay` actions (a `return` spec fires but is
/// ignored at a unit point). `point!(name, on_return)` additionally handles `return`
/// specs: `on_return` is a closure `String -> R` whose result is returned from the
/// *enclosing function*, so the site must live in a function returning `R`.
#[cfg(feature = "failpoints")]
#[macro_export]
macro_rules! point {
    ($name:expr) => {{
        let _ = $crate::eval($name);
    }};
    ($name:expr, $on_return:expr) => {{
        if let ::std::option::Option::Some(__failpoint_msg) = $crate::eval($name) {
            return ($on_return)(__failpoint_msg);
        }
    }};
}

/// No-op form compiled when the `failpoints` feature is off: expands to an empty
/// block, so release builds carry no trace of the instrumentation.
#[cfg(not(feature = "failpoints"))]
#[macro_export]
macro_rules! point {
    ($name:expr) => {{}};
    ($name:expr, $on_return:expr) => {{}};
}

#[cfg(feature = "failpoints")]
mod runtime {
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};
    use std::time::Duration;

    /// What a firing evaluation does.
    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Action {
        /// Registered but inert; useful to override an env-configured point.
        Off,
        Panic(Option<String>),
        Return(Option<String>),
        Delay(u64),
    }

    /// Which evaluations fire.
    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Mode {
        Always,
        /// Only the first `k` evaluations fire.
        First(u64),
        /// A seeded choice of `n` out of every window of `m` evaluations fires.
        NofM {
            n: u64,
            m: u64,
            seed: u64,
        },
    }

    #[derive(Debug)]
    struct PointState {
        spec: String,
        mode: Mode,
        action: Action,
        /// Evaluations seen so far (fired or not).
        hits: u64,
        /// Cached firing mask for the current `NofM` window.
        window: Option<(u64, Vec<bool>)>,
    }

    impl PointState {
        /// Advance the evaluation counter and decide whether this evaluation fires.
        fn advance(&mut self) -> Option<Action> {
            let hit = self.hits;
            self.hits += 1;
            let fires = match &self.mode {
                Mode::Always => true,
                Mode::First(k) => hit < *k,
                Mode::NofM { n, m, seed } => {
                    let (n, m, seed) = (*n, *m, *seed);
                    let window = hit / m;
                    let pos = (hit % m) as usize;
                    if self.window.as_ref().is_none_or(|(w, _)| *w != window) {
                        self.window = Some((window, window_mask(n, m, seed, window)));
                    }
                    self.window.as_ref().expect("mask cached above").1[pos]
                }
            };
            if fires && self.action != Action::Off {
                Some(self.action.clone())
            } else {
                None
            }
        }
    }

    /// Deterministic `n`-of-`m` firing mask for one window: a partial Fisher–Yates
    /// shuffle of `0..m` driven by a SplitMix64 stream keyed on `(seed, window)`.
    fn window_mask(n: u64, m: u64, seed: u64, window: u64) -> Vec<bool> {
        let mut state = seed ^ window.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let m = m as usize;
        let mut slots: Vec<usize> = (0..m).collect();
        let picks = (n as usize).min(m);
        for i in 0..picks {
            let j = i + (next() as usize) % (m - i);
            slots.swap(i, j);
        }
        let mut mask = vec![false; m];
        for &slot in &slots[..picks] {
            mask[slot] = true;
        }
        mask
    }

    fn registry() -> &'static Mutex<HashMap<String, PointState>> {
        static REGISTRY: OnceLock<Mutex<HashMap<String, PointState>>> = OnceLock::new();
        REGISTRY.get_or_init(|| {
            let mut map = HashMap::new();
            if let Ok(env) = std::env::var("FAILPOINTS") {
                for entry in env.split(';').map(str::trim).filter(|s| !s.is_empty()) {
                    match entry.split_once('=') {
                        Some((name, spec)) => match parse_spec(spec) {
                            Ok(state) => {
                                map.insert(name.trim().to_string(), state);
                            }
                            Err(err) => {
                                eprintln!("failpoint: ignoring FAILPOINTS entry {entry:?}: {err}")
                            }
                        },
                        None => {
                            eprintln!("failpoint: ignoring FAILPOINTS entry {entry:?}: missing '='")
                        }
                    }
                }
            }
            Mutex::new(map)
        })
    }

    /// Parse one fault spec (see the crate docs for the grammar).
    fn parse_spec(spec: &str) -> Result<PointState, String> {
        let spec = spec.trim();
        // A `*` before any `(` separates the count prefix from the action; a `*`
        // inside a message like `return(a*b)` is left alone.
        let split_at = match (spec.find('*'), spec.find('(')) {
            (Some(star), Some(paren)) if star < paren => Some(star),
            (Some(star), None) => Some(star),
            _ => None,
        };
        let (mode, action_str) = match split_at {
            Some(star) => (parse_count(&spec[..star])?, &spec[star + 1..]),
            None => (Mode::Always, spec),
        };
        let action = parse_action(action_str)?;
        Ok(PointState { spec: spec.to_string(), mode, action, hits: 0, window: None })
    }

    fn parse_count(count: &str) -> Result<Mode, String> {
        let count = count.trim();
        if let Some((n, rest)) = count.split_once('/') {
            let n: u64 = n.trim().parse().map_err(|_| format!("bad count {count:?}"))?;
            let (m, seed) = match rest.split_once('@') {
                Some((m, seed)) => (
                    m.trim().parse::<u64>().map_err(|_| format!("bad count {count:?}"))?,
                    seed.trim().parse::<u64>().map_err(|_| format!("bad seed in {count:?}"))?,
                ),
                None => {
                    (rest.trim().parse::<u64>().map_err(|_| format!("bad count {count:?}"))?, 0)
                }
            };
            if m == 0 || m > 1 << 16 {
                return Err(format!("window size must be in 1..={}, got {m}", 1u64 << 16));
            }
            if n > m {
                return Err(format!("cannot fire {n} of every {m} evaluations"));
            }
            Ok(Mode::NofM { n, m, seed })
        } else {
            let k: u64 = count.parse().map_err(|_| format!("bad count {count:?}"))?;
            Ok(Mode::First(k))
        }
    }

    fn parse_action(action: &str) -> Result<Action, String> {
        let action = action.trim();
        let (head, arg) = match action.split_once('(') {
            Some((head, rest)) => {
                let arg = rest
                    .strip_suffix(')')
                    .ok_or_else(|| format!("unterminated argument in {action:?}"))?;
                (head.trim(), Some(arg.to_string()))
            }
            None => (action, None),
        };
        match head {
            "off" => Ok(Action::Off),
            "panic" => Ok(Action::Panic(arg)),
            "return" => Ok(Action::Return(arg)),
            "delay" => {
                let arg = arg.ok_or_else(|| "delay requires a millisecond argument".to_string())?;
                let millis =
                    arg.trim().parse().map_err(|_| format!("bad delay milliseconds {arg:?}"))?;
                Ok(Action::Delay(millis))
            }
            other => Err(format!("unknown failpoint action {other:?}")),
        }
    }

    /// Evaluate the named point. Returns `Some(message)` when a `return` spec fires
    /// (the [`point!`] macro forwards it to the site's `on_return` closure); `panic`
    /// and `delay` specs are acted on internally.
    pub fn eval(name: &str) -> Option<String> {
        let fired = {
            let mut registry = registry().lock().expect("failpoint registry poisoned");
            registry.get_mut(name).and_then(PointState::advance)
        };
        match fired? {
            Action::Off => None,
            Action::Delay(millis) => {
                std::thread::sleep(Duration::from_millis(millis));
                None
            }
            Action::Panic(msg) => {
                let msg = msg.unwrap_or_else(|| "injected panic".to_string());
                panic!("failpoint {name}: {msg}");
            }
            Action::Return(msg) => {
                Some(msg.unwrap_or_else(|| format!("failpoint {name}: injected failure")))
            }
        }
    }

    /// Register (or replace) a fault spec for `name`. Counters restart from zero.
    pub fn configure(name: &str, spec: &str) -> Result<(), String> {
        let state = parse_spec(spec)?;
        registry().lock().expect("failpoint registry poisoned").insert(name.to_string(), state);
        Ok(())
    }

    /// Remove the fault spec for `name`; evaluations become no-ops again.
    pub fn deconfigure(name: &str) {
        registry().lock().expect("failpoint registry poisoned").remove(name);
    }

    /// Remove every configured fault spec.
    pub fn teardown() {
        registry().lock().expect("failpoint registry poisoned").clear();
    }

    /// Number of times `name` has been evaluated (fired or not) since configuration.
    pub fn evaluations(name: &str) -> u64 {
        registry()
            .lock()
            .expect("failpoint registry poisoned")
            .get(name)
            .map_or(0, |state| state.hits)
    }

    /// Snapshot of the configured points as `(name, spec)` pairs, name-sorted.
    pub fn list() -> Vec<(String, String)> {
        let registry = registry().lock().expect("failpoint registry poisoned");
        let mut entries: Vec<(String, String)> =
            registry.iter().map(|(name, state)| (name.clone(), state.spec.clone())).collect();
        entries.sort();
        entries
    }

    /// RAII wrapper around [`configure`]: the point is deconfigured on drop, so a
    /// panicking test cannot leak a fault spec into its neighbours.
    #[derive(Debug)]
    pub struct FailGuard {
        name: String,
    }

    /// Configure `name` and return a guard that deconfigures it when dropped.
    pub fn configure_guard(name: &str, spec: &str) -> Result<FailGuard, String> {
        configure(name, spec)?;
        Ok(FailGuard { name: name.to_string() })
    }

    impl Drop for FailGuard {
        fn drop(&mut self) {
            deconfigure(&self.name);
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        // Each test uses unique point names: the registry is process-global and the
        // test harness runs threads in parallel.

        #[test]
        fn unconfigured_points_do_not_fire() {
            assert_eq!(eval("tests/unconfigured"), None);
        }

        #[test]
        fn return_fires_with_default_and_custom_messages() {
            let _guard = configure_guard("tests/ret-default", "return").unwrap();
            let msg = eval("tests/ret-default").expect("always-on return must fire");
            assert!(msg.contains("tests/ret-default"), "default message names the point: {msg}");
            let _guard2 = configure_guard("tests/ret-custom", "return(disk full)").unwrap();
            assert_eq!(eval("tests/ret-custom").as_deref(), Some("disk full"));
        }

        #[test]
        fn first_k_fires_exactly_k_times() {
            let _guard = configure_guard("tests/first-k", "3*return(x)").unwrap();
            let fired: usize = (0..10).filter(|_| eval("tests/first-k").is_some()).count();
            assert_eq!(fired, 3);
            assert_eq!(evaluations("tests/first-k"), 10);
        }

        #[test]
        fn panic_action_panics_with_the_point_name() {
            let _guard = configure_guard("tests/panic", "panic(boom)").unwrap();
            let payload = std::panic::catch_unwind(|| eval("tests/panic"))
                .expect_err("configured panic must unwind");
            let msg = payload.downcast_ref::<String>().expect("string payload");
            assert!(msg.contains("tests/panic") && msg.contains("boom"), "got {msg}");
        }

        #[test]
        fn delay_action_sleeps_and_does_not_fire_a_return() {
            let _guard = configure_guard("tests/delay", "delay(20)").unwrap();
            let start = std::time::Instant::now();
            assert_eq!(eval("tests/delay"), None);
            assert!(start.elapsed() >= Duration::from_millis(15));
        }

        #[test]
        fn off_action_never_fires() {
            let _guard = configure_guard("tests/off", "off").unwrap();
            for _ in 0..8 {
                assert_eq!(eval("tests/off"), None);
            }
        }

        #[test]
        fn n_of_m_fires_exactly_n_per_window_and_is_seed_deterministic() {
            let schedule = |name: &str, spec: &str| -> Vec<bool> {
                let _guard = configure_guard(name, spec).unwrap();
                (0..40).map(|_| eval(name).is_some()).collect()
            };
            let a = schedule("tests/nofm-a", "3/8@42*return");
            let b = schedule("tests/nofm-b", "3/8@42*return");
            assert_eq!(a, b, "same (n, m, seed) must give the same schedule");
            for (w, window) in a.chunks(8).enumerate() {
                assert_eq!(
                    window.iter().filter(|&&f| f).count(),
                    3,
                    "window {w} must fire exactly 3 of 8"
                );
            }
            let c = schedule("tests/nofm-c", "3/8@43*return");
            assert_ne!(a, c, "a different seed should give a different schedule");
        }

        #[test]
        fn reconfigure_resets_counters() {
            configure("tests/reset", "1*return").unwrap();
            assert!(eval("tests/reset").is_some());
            assert!(eval("tests/reset").is_none());
            configure("tests/reset", "1*return").unwrap();
            assert!(eval("tests/reset").is_some(), "reconfiguring restarts the count");
            deconfigure("tests/reset");
            assert!(eval("tests/reset").is_none());
        }

        #[test]
        fn malformed_specs_are_rejected() {
            for bad in [
                "explode",
                "x*return",
                "3/2*return", // n > m
                "1/0*return", // empty window
                "delay",      // missing argument
                "delay(fast)",
                "return(unterminated",
            ] {
                assert!(configure("tests/bad", bad).is_err(), "spec {bad:?} should be rejected");
            }
        }

        #[test]
        fn message_may_contain_a_star() {
            let _guard = configure_guard("tests/star", "return(a*b)").unwrap();
            assert_eq!(eval("tests/star").as_deref(), Some("a*b"));
        }

        #[test]
        fn list_reports_configured_points() {
            let _guard = configure_guard("tests/list-one", "off").unwrap();
            let entries = list();
            assert!(entries.iter().any(|(name, spec)| name == "tests/list-one" && spec == "off"));
        }
    }
}

#[cfg(feature = "failpoints")]
pub use runtime::{
    configure, configure_guard, deconfigure, eval, evaluations, list, teardown, FailGuard,
};
