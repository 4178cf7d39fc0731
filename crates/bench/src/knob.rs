//! Strict, warn-once parsing of environment knobs.
//!
//! Every `QSM_*` integer knob in the harness funnels through
//! [`parse_usize_knob`]: absent or empty values mean "use the
//! default", while a value that fails to parse warns on stderr instead
//! of being silently swallowed or aborting the run. Every other knob
//! that rejects a value (paths, topologies, link gaps) warns through
//! [`warn_once`], the one registry that keeps a broken knob to a single
//! warning per process however often a sweep re-reads it.

use std::sync::Mutex;

/// Knob names that already produced a warning, so repeated reads of
/// the same broken knob warn exactly once.
static WARNED_KNOBS: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());

/// Print `warning: {msg}` on stderr unless knob `name` already warned
/// in this process.
pub(crate) fn warn_once(name: &'static str, msg: std::fmt::Arguments) {
    let mut warned = WARNED_KNOBS.lock().unwrap_or_else(|e| e.into_inner());
    if !warned.contains(&name) {
        warned.push(name);
        eprintln!("warning: {msg}");
    }
}

/// Parse the raw value of a `usize` environment knob. `None` when the
/// knob is absent or set to an empty/whitespace value (treated as
/// unset). A value that does not parse as a non-negative integer is
/// **not** silently swallowed: it warns on stderr — once per knob
/// name per process — and returns `None`, so the caller's default
/// applies but the typo is visible.
pub fn parse_usize_knob(name: &'static str, raw: Option<&str>) -> Option<usize> {
    let trimmed = raw?.trim();
    if trimmed.is_empty() {
        return None;
    }
    let parsed = trimmed.parse::<usize>().ok();
    if parsed.is_none() {
        warn_once(
            name,
            format_args!(
                "ignoring unparseable {name}={trimmed:?} \
                 (expected a non-negative integer); using the default"
            ),
        );
    }
    parsed
}

/// Read and parse a `usize` environment knob via [`parse_usize_knob`].
pub fn env_usize(name: &'static str) -> Option<usize> {
    parse_usize_knob(name, std::env::var(name).ok().as_deref())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usize_knobs_parse_strictly_but_warn_not_panic() {
        // Use fake knob names: the warned-once registry is process
        // global and must not collide with real knobs in other tests.
        assert_eq!(parse_usize_knob("QSM_TEST_KNOB_A", None), None);
        assert_eq!(parse_usize_knob("QSM_TEST_KNOB_A", Some("")), None);
        assert_eq!(parse_usize_knob("QSM_TEST_KNOB_A", Some("   ")), None);
        assert_eq!(parse_usize_knob("QSM_TEST_KNOB_A", Some("8")), Some(8));
        assert_eq!(parse_usize_knob("QSM_TEST_KNOB_A", Some(" 12 ")), Some(12));
        // Garbage values fall back to None (caller default) instead of
        // being silently swallowed mid-parse; negative numbers do not
        // fit a usize and get the same treatment.
        assert_eq!(parse_usize_knob("QSM_TEST_KNOB_B", Some("abc")), None);
        assert_eq!(parse_usize_knob("QSM_TEST_KNOB_B", Some("-3")), None);
        // The warning registry records each knob at most once however
        // often the broken value is re-read.
        assert_eq!(parse_usize_knob("QSM_TEST_KNOB_B", Some("abc")), None);
        let warned = WARNED_KNOBS.lock().unwrap_or_else(|e| e.into_inner());
        assert_eq!(warned.iter().filter(|&&n| n == "QSM_TEST_KNOB_B").count(), 1);
    }
}
