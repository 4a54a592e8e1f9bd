//! The scenario registry: ordered collection plus glob selection.

use crate::scenario::Scenario;

/// An ordered collection of registered scenarios with unique ids.
///
/// Registration order is the canonical execution and manifest order, so it
/// should follow the paper's narrative (Table II before Figure 6, …).
#[derive(Debug, Default)]
pub struct Registry {
    scenarios: Vec<Scenario>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Registers a scenario.
    ///
    /// # Panics
    ///
    /// Panics if a scenario with the same id is already registered —
    /// duplicate ids are a programming error in the registering crate.
    pub fn register(&mut self, scenario: Scenario) {
        assert!(
            self.get(scenario.id).is_none(),
            "duplicate scenario id {:?}",
            scenario.id
        );
        self.scenarios.push(scenario);
    }

    /// All scenarios, in registration order.
    pub fn scenarios(&self) -> &[Scenario] {
        &self.scenarios
    }

    /// Looks a scenario up by exact id.
    pub fn get(&self, id: &str) -> Option<&Scenario> {
        self.scenarios.iter().find(|s| s.id == id)
    }

    /// Selects scenarios matching any of `patterns` (exact ids or globs with
    /// `*`/`?`; the keyword `all` selects everything). The selection is
    /// deduplicated and returned in registration order.
    ///
    /// # Errors
    ///
    /// Returns the first pattern that matches no scenario — a typo on the
    /// command line should fail loudly, not silently run nothing.
    pub fn select(&self, patterns: &[String]) -> Result<Vec<&Scenario>, String> {
        let mut picked = vec![false; self.scenarios.len()];
        for pattern in patterns {
            let mut hit = false;
            for (i, scenario) in self.scenarios.iter().enumerate() {
                if pattern == "all" || glob_match(pattern, scenario.id) {
                    picked[i] = true;
                    hit = true;
                }
            }
            if !hit {
                return Err(format!(
                    "no scenario matches {pattern:?} (try `repro list`)"
                ));
            }
        }
        Ok(self
            .scenarios
            .iter()
            .zip(picked)
            .filter_map(|(scenario, p)| p.then_some(scenario))
            .collect())
    }
}

/// Matches `text` against a glob `pattern` where `*` matches any run of
/// characters and `?` matches exactly one. Iterative backtracking over
/// bytes (scenario ids are ASCII), no recursion.
pub fn glob_match(pattern: &str, text: &str) -> bool {
    let (p, t) = (pattern.as_bytes(), text.as_bytes());
    let (mut pi, mut ti) = (0, 0);
    let mut star: Option<(usize, usize)> = None;
    while ti < t.len() {
        if pi < p.len() && (p[pi] == b'?' || p[pi] == t[ti]) {
            pi += 1;
            ti += 1;
        } else if pi < p.len() && p[pi] == b'*' {
            star = Some((pi, ti));
            pi += 1;
        } else if let Some((sp, st)) = star {
            // Backtrack: let the last `*` swallow one more character.
            pi = sp + 1;
            ti = st + 1;
            star = Some((sp, st + 1));
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == b'*' {
        pi += 1;
    }
    pi == p.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Scale;
    use crate::scenario::{PointCtx, PointOutput};

    fn dummy(id: &'static str) -> Scenario {
        fn one(_: Scale) -> usize {
            1
        }
        fn run(_: &PointCtx) -> Result<PointOutput, String> {
            Ok(PointOutput::default())
        }
        fn assemble(_: Scale, _: &[PointOutput]) -> Vec<(String, analysis::table::Table)> {
            Vec::new()
        }
        Scenario {
            id,
            paper_ref: "Table 0",
            section: "Sec. 0",
            summary: "dummy",
            points: one,
            run_point: run,
            assemble,
        }
    }

    #[test]
    fn glob_matching_covers_star_and_question_mark() {
        assert!(glob_match("table*", "table2"));
        assert!(glob_match("*", "anything"));
        assert!(glob_match("fig?", "fig4"));
        assert!(glob_match("fig*7", "fig5-7"));
        assert!(!glob_match("fig?", "fig5-7"));
        assert!(!glob_match("table*", "fig4"));
        assert!(glob_match("a*b*c", "aXbYc"));
        assert!(!glob_match("a*b*c", "aXc"));
        assert!(glob_match("", ""));
        assert!(!glob_match("", "x"));
    }

    #[test]
    fn glob_matching_edge_cases() {
        // A bare `*` swallows anything, including the empty string.
        assert!(glob_match("*", ""));
        assert!(glob_match("**", "anything"));
        assert!(glob_match("***", "x"));
        // Star-free patterns are exact matches (`?` still matches one byte).
        assert!(glob_match("table2", "table2"));
        assert!(!glob_match("table2", "table22"));
        assert!(!glob_match("table2", "table"));
        assert!(glob_match("t?ble2", "table2"));
        assert!(!glob_match("t?ble2", "tble2"));
        // A suffix after a star must backtrack to the *last* viable spot.
        assert!(glob_match("ta*2", "table2"));
        assert!(glob_match("*2", "table2"));
        assert!(glob_match("*22", "table222"));
        assert!(!glob_match("*3", "table2"));
        assert!(glob_match("a*a", "aa"));
        assert!(!glob_match("a*a", "a"));
        // The empty pattern matches only the empty string.
        assert!(glob_match("", ""));
        assert!(!glob_match("", "table2"));
        // Trailing stars after the text is consumed are fine.
        assert!(glob_match("table2*", "table2"));
        assert!(glob_match("table2***", "table2"));
        // A `?` can never match the empty remainder.
        assert!(!glob_match("table2?", "table2"));
    }

    #[test]
    fn select_rejects_the_empty_pattern_loudly() {
        let mut registry = Registry::new();
        registry.register(dummy("table2"));
        let error = registry.select(&[String::new()]).unwrap_err();
        assert!(error.contains("no scenario matches"), "{error}");
    }

    #[test]
    fn select_deduplicates_and_preserves_registration_order() {
        let mut registry = Registry::new();
        registry.register(dummy("table2"));
        registry.register(dummy("fig4"));
        registry.register(dummy("table5"));
        let picked = registry
            .select(&["table*".to_owned(), "table2".to_owned(), "fig4".to_owned()])
            .unwrap();
        let ids: Vec<&str> = picked.iter().map(|s| s.id).collect();
        assert_eq!(ids, ["table2", "fig4", "table5"]);
        let all = registry.select(&["all".to_owned()]).unwrap();
        assert_eq!(all.len(), 3);
        assert!(registry.select(&["nope".to_owned()]).is_err());
    }

    #[test]
    #[should_panic(expected = "duplicate scenario id")]
    fn duplicate_registration_panics() {
        let mut registry = Registry::new();
        registry.register(dummy("x"));
        registry.register(dummy("x"));
    }
}
