//! The one reader of the workspace's `CO_*` configuration variables.
//!
//! Every knob of every crate is read through [`var`], which takes each
//! variable from the environment at most once per process, and parsed
//! under one rejection rule: a variable that is set but unparsable or
//! out of range keeps its default and yields one [`ConfigWarning`]
//! naming the variable and the rejected value. [`Knob::parse`] is that
//! rule as a pure function of the raw value; [`Knob::from_env`] is the
//! thin wrapper that feeds it [`var`] and emits the warning — once per
//! variable per process — as a single [`crate::warn`] line.
//!
//! The eleven variables: `CO_ENGINE_THREADS`, `CO_GC_EVERY_ROUND`
//! (co-engine), `CO_MEMO_SHARD_CAP`, `CO_GC_HIGH_WATER` (co-object),
//! `CO_TRACE` (co-obs) and the six `CO_SERVER_*` settings (co-server).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::str::FromStr;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Each variable's value as first read (`None` = unset).
static READ: Mutex<BTreeMap<String, Option<String>>> = Mutex::new(BTreeMap::new());
/// Variables already warned about.
static WARNED: Mutex<BTreeSet<String>> = Mutex::new(BTreeSet::new());

// Every update is one map insert, so a guard poisoned by a panic
// elsewhere still holds a valid map.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The value of configuration variable `name`: read from the environment
/// on the first call, and the same value on every later call. `None`
/// when unset; a value that is not valid unicode is read lossily, so the
/// parser rejects it like any other bad value.
pub fn var(name: &str) -> Option<String> {
    lock(&READ)
        .entry(name.to_owned())
        .or_insert_with(|| std::env::var_os(name).map(|v| v.to_string_lossy().into_owned()))
        .clone()
}

/// A set-but-rejected configuration variable. The fields are separate
/// (not a pre-baked message) so the emitted JSON carries `variable` and
/// `rejected` as machine-readable fields.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigWarning {
    /// The `CO_*` variable that was set.
    pub variable: String,
    /// The value that was rejected, verbatim.
    pub rejected: String,
    /// Why it was rejected and which default is kept.
    pub detail: String,
}

impl ConfigWarning {
    /// A rejection of `rejected` as the value of `variable`.
    pub fn new(variable: &str, rejected: &str, detail: String) -> ConfigWarning {
        ConfigWarning {
            variable: variable.to_owned(),
            rejected: rejected.to_owned(),
            detail,
        }
    }

    /// Emits the warning as one structured line through [`crate::warn`]
    /// (stderr unless `CO_TRACE` routes it to a file) — at most once per
    /// variable per process.
    pub fn emit(&self) {
        if lock(&WARNED).insert(self.variable.clone()) {
            crate::warn(
                "config",
                "ignoring rejected configuration variable",
                &[
                    ("variable", crate::FieldValue::Str(&self.variable)),
                    ("rejected", crate::FieldValue::Str(&self.rejected)),
                    ("detail", crate::FieldValue::Str(&self.detail)),
                ],
            );
        }
    }
}

impl fmt::Display for ConfigWarning {
    /// `ignoring CO_SERVER_MAX_FRAME="-5": not an integer >= 1; keeping
    /// 16777216`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ignoring {}={:?}: {}",
            self.variable, self.rejected, self.detail
        )
    }
}

/// One numeric configuration variable: its name, its default, and the
/// least value it accepts.
#[derive(Clone, Copy, Debug)]
pub struct Knob<T> {
    /// The `CO_*` variable.
    pub name: &'static str,
    /// The value when the variable is unset or rejected.
    pub default: T,
    /// The least accepted value.
    pub min: T,
}

impl<T: FromStr + PartialOrd + fmt::Display + Copy> Knob<T> {
    /// The rejection rule as a pure function of the raw value: `Ok(None)`
    /// when the variable is unset, `Ok(Some(v))` when the trimmed value
    /// parses as `T` and is at least `min`, and otherwise the warning.
    pub fn parse(&self, raw: Option<&str>) -> Result<Option<T>, ConfigWarning> {
        let Some(raw) = raw else { return Ok(None) };
        match raw.trim().parse::<T>() {
            Ok(v) if v >= self.min => Ok(Some(v)),
            _ => Err(ConfigWarning::new(
                self.name,
                raw,
                format!("not an integer >= {}; keeping {}", self.min, self.default),
            )),
        }
    }

    /// The knob's value from the variable source `get`: the parsed value,
    /// or the default when unset or rejected — a rejection is pushed onto
    /// `warnings`.
    pub fn resolve(
        &self,
        get: impl Fn(&str) -> Option<String>,
        warnings: &mut Vec<ConfigWarning>,
    ) -> T {
        match self.parse(get(self.name).as_deref()) {
            Ok(v) => v.unwrap_or(self.default),
            Err(w) => {
                warnings.push(w);
                self.default
            }
        }
    }

    /// The knob's value in this process: [`Knob::resolve`] over [`var`],
    /// emitting a rejection once.
    pub fn from_env(&self) -> T {
        let mut warnings = Vec::new();
        let value = self.resolve(var, &mut warnings);
        warnings.iter().for_each(ConfigWarning::emit);
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SESSIONS: Knob<usize> = Knob {
        name: "CO_SERVER_MAX_SESSIONS",
        default: 1024,
        min: 1,
    };
    const FRAME: Knob<u64> = Knob {
        name: "CO_SERVER_MAX_FRAME",
        default: 16 << 20,
        min: 1,
    };

    #[test]
    fn unset_is_none_and_accepted_values_are_trimmed() {
        assert_eq!(SESSIONS.parse(None), Ok(None));
        assert_eq!(SESSIONS.parse(Some(" 7\n")), Ok(Some(7)));
        assert_eq!(FRAME.parse(Some("1")), Ok(Some(1)));
    }

    #[test]
    fn unparsable_values_are_rejected_naming_variable_and_value() {
        for (err, variable, raw) in [
            (SESSIONS.parse(Some("1k")).unwrap_err(), SESSIONS.name, "1k"),
            (FRAME.parse(Some("-5")).unwrap_err(), FRAME.name, "-5"),
        ] {
            assert_eq!(
                (err.variable.as_str(), err.rejected.as_str()),
                (variable, raw)
            );
            let rendered = err.to_string();
            assert!(rendered.starts_with("ignoring "), "{rendered}");
            assert!(
                rendered.contains(variable) && rendered.contains(raw),
                "{rendered}"
            );
        }
    }

    #[test]
    fn out_of_range_values_are_rejected_and_keep_the_default() {
        let err = SESSIONS.parse(Some("0")).unwrap_err();
        assert_eq!(err.rejected, "0");
        assert_eq!(err.detail, "not an integer >= 1; keeping 1024");
        let mut warnings = Vec::new();
        let value = SESSIONS.resolve(|_| Some("0".to_owned()), &mut warnings);
        assert_eq!((value, warnings.len()), (1024, 1));
        // Unset: the default, silently.
        assert_eq!(SESSIONS.resolve(|_| None, &mut warnings), 1024);
        assert_eq!(warnings.len(), 1);
    }

    #[test]
    fn a_variable_is_read_once_per_process() {
        let first = var("CO_SERVER_ADDR");
        assert_eq!(lock(&READ).get("CO_SERVER_ADDR"), Some(&first));
        assert_eq!(var("CO_SERVER_ADDR"), first);
    }
}
