//! Actors and actions: the micro-operation interface between simulated
//! programs and the SMT core.
//!
//! A simulated program (the WB sender, the WB receiver, a benign `g++`-like
//! co-runner, a noise process, a victim with secret-dependent accesses…) is
//! an [`Actor`]: a state machine that, whenever its hardware thread is ready,
//! produces the next [`Action`] and is later told the [`Completion`] of that
//! action.  The machine executes actions against the shared cache hierarchy
//! and attributes their latency and perf events to the actor's domain.

use sim_cache::addr::PhysAddr;
use sim_cache::line::DomainId;
use sim_cache::outcome::AccessOutcome;

/// One micro-operation issued by an actor.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Action {
    /// A demand load.
    Load(PhysAddr),
    /// A demand store.
    Store(PhysAddr),
    /// A `clflush` of the line containing the address.
    Flush(PhysAddr),
    /// A *measured*, fully serialised pointer-chasing walk over the given
    /// addresses (the paper's Figure 3 loop).  The completion carries the
    /// `rdtscp`-measured latency including measurement noise.
    MeasuredChase(Vec<PhysAddr>),
    /// Spin without memory accesses until the time-stamp counter reaches the
    /// given absolute cycle value (the `while TSC < T_last + Ts` loops of
    /// Algorithm 3).
    WaitUntil(u64),
    /// Busy compute for the given number of cycles (no memory accesses).
    Compute(u64),
    /// The actor has finished; its thread goes idle permanently.
    Done,
}

/// The result of an executed action, delivered back to the issuing actor.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Completion {
    /// Cycle at which the action finished.
    pub finished_at: u64,
    /// True latency of the action in cycles.
    pub latency: u64,
    /// The value an `rdtscp` measurement reported, for measured actions.
    pub measured: Option<u64>,
    /// Outcomes of the individual memory accesses performed by the action.
    ///
    /// [`Action::MeasuredChase`] is executed through the batched trace
    /// engine and does **not** materialise per-line outcomes — this vector
    /// stays empty for chases; `latency` and `measured` carry the result.
    pub outcomes: Vec<AccessOutcome>,
}

/// A simulated program.
///
/// Actors are polled cooperatively: [`Actor::next_action`] is called when the
/// hardware thread is free, and [`Actor::on_completion`] when the issued
/// action has finished.  Returning [`Action::Done`] retires the actor.
pub trait Actor {
    /// Short name used in traces and perf reports.
    fn name(&self) -> &str;

    /// The cache/perf attribution domain of this actor.
    fn domain(&self) -> DomainId;

    /// Produces the next action.  `now` is the current cycle.
    fn next_action(&mut self, now: u64) -> Action;

    /// Receives the completion of the previously issued action.
    fn on_completion(&mut self, completion: &Completion);
}

/// A trivial actor that executes a fixed list of actions and then stops.
///
/// Useful for tests and for scripted victims; the covert-channel sender and
/// receiver have their own stateful actor implementations in `wb-channel`.
#[derive(Debug, Clone)]
pub struct ScriptedActor {
    name: String,
    domain: DomainId,
    script: std::collections::VecDeque<Action>,
    completions: Vec<Completion>,
}

impl ScriptedActor {
    /// Creates an actor that will execute `script` in order.
    pub fn new<S: Into<String>>(name: S, domain: DomainId, script: Vec<Action>) -> ScriptedActor {
        ScriptedActor {
            name: name.into(),
            domain,
            script: script.into(),
            completions: Vec::new(),
        }
    }

    /// The completions observed so far (one per executed action).
    pub fn completions(&self) -> &[Completion] {
        &self.completions
    }

    /// The measured latencies of all measured actions, in order.
    pub fn measurements(&self) -> Vec<u64> {
        self.completions.iter().filter_map(|c| c.measured).collect()
    }
}

impl Actor for ScriptedActor {
    fn name(&self) -> &str {
        &self.name
    }

    fn domain(&self) -> DomainId {
        self.domain
    }

    fn next_action(&mut self, _now: u64) -> Action {
        self.script.pop_front().unwrap_or(Action::Done)
    }

    fn on_completion(&mut self, completion: &Completion) {
        self.completions.push(completion.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_actor_replays_script_then_finishes() {
        let mut actor = ScriptedActor::new(
            "test",
            2,
            vec![Action::Load(PhysAddr(0)), Action::Compute(5)],
        );
        assert_eq!(actor.name(), "test");
        assert_eq!(actor.domain(), 2);
        assert_eq!(actor.next_action(0), Action::Load(PhysAddr(0)));
        actor.on_completion(&Completion {
            finished_at: 4,
            latency: 4,
            measured: None,
            outcomes: vec![],
        });
        assert_eq!(actor.next_action(4), Action::Compute(5));
        assert_eq!(actor.next_action(9), Action::Done);
        assert_eq!(actor.completions().len(), 1);
        assert!(actor.measurements().is_empty());
    }
}
