//! Job specs, job lifecycle state and the NDJSON bodies they render to.
//!
//! A *job* is one `POST /jobs` submission: a scenario selection (glob
//! patterns), a scale, a root seed and a thread count. Scenario patterns
//! are resolved against the registry at submission time (a typo is a `400`,
//! not a queued failure); execution happens later on a job worker, which
//! serves each resolved scenario from the result cache when possible and
//! runs the rest through `runner::execute`.

use analysis::json::Json;
use analysis::table::json_string;
use runner::{Scale, ScenarioRun};
use std::sync::Arc;

/// Everything a `POST /jobs` body can say.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Scenario selection: exact ids, globs, or `all`.
    pub patterns: Vec<String>,
    /// Experiment scale.
    pub scale: Scale,
    /// Root seed all scenario/point seeds derive from.
    pub seed: u64,
    /// Worker threads for this job's sweep (clamped by the server config).
    pub threads: usize,
}

impl JobSpec {
    /// Parses a job spec from the `POST /jobs` JSON body.
    ///
    /// Accepted fields: `scenarios` (string or array of strings, required),
    /// `scale` (`"quick"`/`"full"`, default quick), `seed` (unsigned
    /// integer or `"0x…"` string, default `default_seed`) and `threads`
    /// (unsigned integer, default and upper bound `max_threads`).
    ///
    /// # Errors
    ///
    /// Returns a message describing the first invalid field; the server
    /// responds `400` with it.
    pub fn from_json(
        json: &Json,
        default_seed: u64,
        max_threads: usize,
    ) -> Result<JobSpec, String> {
        let patterns = match json.get("scenarios") {
            Some(Json::Str(one)) => vec![one.clone()],
            Some(Json::Array(items)) => {
                let patterns: Vec<String> = items
                    .iter()
                    .map(|item| item.as_str().map(str::to_owned))
                    .collect::<Option<_>>()
                    .ok_or("\"scenarios\" array must contain only strings")?;
                if patterns.is_empty() {
                    return Err("\"scenarios\" must not be empty".to_owned());
                }
                patterns
            }
            Some(_) => return Err("\"scenarios\" must be a string or array of strings".to_owned()),
            None => return Err("missing required field \"scenarios\"".to_owned()),
        };
        let scale = match json.get("scale") {
            None => Scale::Quick,
            Some(value) => value
                .as_str()
                .and_then(Scale::from_label)
                .ok_or("\"scale\" must be \"quick\" or \"full\"")?,
        };
        let seed = match json.get("seed") {
            None => default_seed,
            Some(Json::UInt(n)) => *n,
            Some(Json::Str(text)) => parse_seed(text)
                .ok_or_else(|| format!("\"seed\" string {text:?} is not a decimal or 0x… u64"))?,
            Some(_) => return Err("\"seed\" must be an unsigned integer or \"0x…\"".to_owned()),
        };
        let threads = match json.get("threads") {
            None => max_threads,
            Some(value) => match value.as_u64() {
                Some(n) if n >= 1 => (n as usize).min(max_threads),
                _ => return Err("\"threads\" must be an integer >= 1".to_owned()),
            },
        };
        Ok(JobSpec {
            patterns,
            scale,
            seed,
            threads,
        })
    }
}

/// Parses a seed written in decimal or `0x…` hexadecimal.
pub fn parse_seed(text: &str) -> Option<u64> {
    if let Some(hex) = text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        text.parse().ok()
    }
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a job worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// All scenarios finished (individual scenarios may still have errored;
    /// see the per-result status lines).
    Done,
}

impl JobState {
    /// Stable lower-case label used in status lines.
    pub fn label(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
        }
    }
}

/// One submitted job and everything learned about it so far.
#[derive(Debug, Clone)]
pub struct Job {
    /// Sequential id, rendered as `j<n>`.
    pub id: u64,
    /// The validated spec.
    pub spec: JobSpec,
    /// Scenario ids the patterns resolved to, in registry order.
    pub scenario_ids: Vec<&'static str>,
    /// Lifecycle state.
    pub state: JobState,
    /// Result-cache keys, one per scenario (filled in when done).
    pub keys: Vec<String>,
    /// Scenarios served from the cache.
    pub cache_hits: usize,
    /// Scenarios that had to run.
    pub cache_misses: usize,
    /// Scenarios that finished with an error.
    pub errors: usize,
    /// Bodies of errored scenarios (errors are not cached), keyed like the
    /// cache so body assembly can fall back to them.
    pub error_bodies: Vec<(String, Arc<str>)>,
}

impl Job {
    /// A freshly accepted job.
    pub fn new(id: u64, spec: JobSpec, scenario_ids: Vec<&'static str>) -> Job {
        Job {
            id,
            spec,
            scenario_ids,
            state: JobState::Queued,
            keys: Vec::new(),
            cache_hits: 0,
            cache_misses: 0,
            errors: 0,
            error_bodies: Vec::new(),
        }
    }

    /// The job's public name (`j<n>`).
    pub fn name(&self) -> String {
        format!("j{}", self.id)
    }

    /// The one-line status record: the first line of every `/jobs/<id>`
    /// response and the body of the `POST /jobs` acknowledgement.
    ///
    /// Job-specific fields (id, state, cache counters) live only on this
    /// line; everything after it is the scenarios' cached result bodies,
    /// which are byte-identical across identical jobs.
    pub fn status_line(&self) -> String {
        let scenarios: Vec<String> = self.scenario_ids.iter().map(|id| json_string(id)).collect();
        format!(
            "{{\"type\":\"job\",\"id\":{},\"state\":{},\"scenarios\":[{}],\
             \"scale\":{},\"seed\":{},\"threads\":{},\"cache_hits\":{},\
             \"cache_misses\":{},\"errors\":{}}}\n",
            json_string(&self.name()),
            json_string(self.state.label()),
            scenarios.join(","),
            json_string(self.spec.scale.label()),
            json_string(&format!("{:#018x}", self.spec.seed)),
            self.spec.threads,
            self.cache_hits,
            self.cache_misses,
            self.errors,
        )
    }
}

/// Renders one completed scenario run as its cacheable NDJSON body: a
/// `{"type":"result",...}` header line, then each output table's NDJSON.
///
/// The body is a pure function of the run's tables (wall time and any other
/// non-deterministic field is deliberately excluded), which is what makes
/// cache bodies byte-identical across identical submissions.
pub fn scenario_body(run: &ScenarioRun, key: &str) -> String {
    let mut out = match &run.error {
        Some(error) => format!(
            "{{\"type\":\"result\",\"key\":{},\"scenario\":{},\"status\":\"error\",\
             \"error\":{}}}\n",
            json_string(key),
            json_string(run.id),
            json_string(error),
        ),
        None => format!(
            "{{\"type\":\"result\",\"key\":{},\"scenario\":{},\"status\":\"ok\",\
             \"tables\":{}}}\n",
            json_string(key),
            json_string(run.id),
            run.tables.len(),
        ),
    };
    for (stem, table) in &run.tables {
        out.push_str(&table.to_ndjson(stem));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use analysis::table::Table;

    fn spec_from(text: &str) -> Result<JobSpec, String> {
        JobSpec::from_json(&Json::parse(text).unwrap(), 2022, 8)
    }

    #[test]
    fn spec_defaults_and_clamps() {
        let spec = spec_from("{\"scenarios\":\"table2\"}").unwrap();
        assert_eq!(spec.patterns, ["table2"]);
        assert_eq!(spec.scale, Scale::Quick);
        assert_eq!(spec.seed, 2022);
        assert_eq!(spec.threads, 8);
        let spec = spec_from(
            "{\"scenarios\":[\"table*\",\"fig6\"],\"scale\":\"full\",\"seed\":7,\"threads\":99}",
        )
        .unwrap();
        assert_eq!(spec.patterns, ["table*", "fig6"]);
        assert_eq!(spec.scale, Scale::Full);
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.threads, 8, "clamped to the server maximum");
    }

    #[test]
    fn spec_accepts_hex_seed_strings() {
        let spec = spec_from("{\"scenarios\":\"x\",\"seed\":\"0xff\"}").unwrap();
        assert_eq!(spec.seed, 255);
        let spec = spec_from("{\"scenarios\":\"x\",\"seed\":\"123\"}").unwrap();
        assert_eq!(spec.seed, 123);
    }

    #[test]
    fn spec_rejects_bad_fields_with_clear_messages() {
        assert!(spec_from("{}").unwrap_err().contains("scenarios"));
        assert!(spec_from("{\"scenarios\":[]}")
            .unwrap_err()
            .contains("empty"));
        assert!(spec_from("{\"scenarios\":[1]}")
            .unwrap_err()
            .contains("strings"));
        assert!(spec_from("{\"scenarios\":\"x\",\"scale\":\"paper\"}")
            .unwrap_err()
            .contains("scale"));
        assert!(spec_from("{\"scenarios\":\"x\",\"seed\":\"0xzz\"}")
            .unwrap_err()
            .contains("seed"));
        assert!(spec_from("{\"scenarios\":\"x\",\"threads\":0}")
            .unwrap_err()
            .contains("threads"));
    }

    #[test]
    fn status_line_is_one_compact_json_record() {
        let spec = spec_from("{\"scenarios\":\"table2\",\"seed\":2022,\"threads\":2}").unwrap();
        let mut job = Job::new(1, spec, vec!["table2"]);
        job.state = JobState::Done;
        job.cache_hits = 1;
        let line = job.status_line();
        assert_eq!(
            line,
            "{\"type\":\"job\",\"id\":\"j1\",\"state\":\"done\",\"scenarios\":[\"table2\"],\
             \"scale\":\"quick\",\"seed\":\"0x00000000000007e6\",\"threads\":2,\
             \"cache_hits\":1,\"cache_misses\":0,\"errors\":0}\n"
        );
        assert_eq!(line.lines().count(), 1);
    }

    #[test]
    fn scenario_bodies_render_ok_and_error_runs() {
        let mut table = Table::new("Demo", &["a"]);
        table.push_row(["1"]);
        let ok = ScenarioRun {
            id: "table2",
            paper_ref: "Table II",
            scale: Scale::Quick,
            seed: 1,
            points: 1,
            wall_ms: 123.4,
            sim_cycles: 7,
            sim_accesses: 3,
            phase_cycles: [0; runner::scenario::PHASE_COUNT],
            tables: vec![("table2".to_owned(), table)],
            error: None,
        };
        let body = scenario_body(&ok, "table2-quick-0x1");
        assert!(body.starts_with(
            "{\"type\":\"result\",\"key\":\"table2-quick-0x1\",\"scenario\":\"table2\",\
             \"status\":\"ok\",\"tables\":1}\n"
        ));
        assert!(body.contains("\"type\":\"row\""));
        // Wall time must never leak into the cacheable body.
        assert!(!body.contains("123.4"));

        let failed = ScenarioRun {
            tables: Vec::new(),
            error: Some("boom".to_owned()),
            ..ok
        };
        let body = scenario_body(&failed, "k");
        assert!(body.contains("\"status\":\"error\""));
        assert!(body.contains("\"error\":\"boom\""));
        assert_eq!(body.lines().count(), 1);
    }
}
