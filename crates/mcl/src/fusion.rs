//! Chain-fusion planning: the static half of the fusion/fission engine.
//!
//! Figure 7-2 attributes most per-streamlet overhead to channel crossings
//! — queue admission, pool reference handoff, wakeup — which a run of
//! simple stateless transforms pays at every hop. This module analyzes a
//! compiled [`ConfigTable`] and finds **maximal runs of fusable
//! streamlets** whose interior channels can be collapsed away: the runtime
//! (`mobigate-core::fusion`) then drives each run as one execution unit,
//! handing every emission directly to the next member.
//!
//! A streamlet instance is *fusable* when all of the following hold:
//!
//! 1. it is part of the **initial** topology (not declared inside `when`);
//! 2. its definition has **exactly one input and at most one output
//!    port** (a pipeline stage, or a zero-output sink such as the
//!    `communicator` — fan-in/fan-out stays on real channels). A sink has
//!    no outgoing edge, so it can only ever end a run;
//! 3. it is **stateless** (pooling-eligible, §3.3.4) — stateful logics may
//!    observe the missing channel boundary;
//! 4. its logic opts in (`StreamletLogic::fusable`, probed by the caller
//!    through the directory — the planner itself never instantiates);
//! 5. it is **not referenced by any `when (EVENT)` rule**: an instance a
//!    reconfiguration may rewire must stay individually addressable.
//!    (The runtime can still fission a fused unit on demand; excluding
//!    statically known targets just avoids predictable churn.)
//!
//! An interior channel collapses only when it is a plain point-to-point
//! asynchronous link: carried by exactly one connection, joining two
//! fusable instances port-to-port with MIME-compatible types, not
//! exported, and not referenced by any `when` rule. Synchronous channels
//! rendezvous — removing one changes observable blocking behavior — so
//! they never fuse. Content-Session sharing attaches extra consumers to a
//! channel as additional connection rows, which fails the single-use test,
//! so shared segments are structurally excluded.

use crate::ast::ChannelKind;
use crate::config::{ConfigTable, ReconfigAction, StreamletSpec};
use mobigate_mime::TypeRegistry;
use std::collections::{BTreeMap, HashMap, HashSet};

/// One maximal fusable run, upstream → downstream.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedRun {
    /// Member instance names in pipeline order (always ≥ 2).
    pub members: Vec<String>,
    /// Interior channel names collapsed away (always `members.len() - 1`,
    /// in pipeline order: `interior_channels[i]` joined `members[i]` to
    /// `members[i + 1]`).
    pub interior_channels: Vec<String>,
}

/// The full fusion plan for one stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FusionPlan {
    /// Disjoint maximal runs (an instance appears in at most one).
    pub runs: Vec<FusedRun>,
}

impl FusionPlan {
    /// True when nothing fuses.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// The run containing `instance`, if any.
    pub fn run_of(&self, instance: &str) -> Option<&FusedRun> {
        self.runs
            .iter()
            .find(|r| r.members.iter().any(|m| m == instance))
    }
}

/// Every instance name a reconfiguration action can touch. The runtime's
/// fission pre-pass uses the same relation to decide which fused units an
/// incoming action forces back into discrete form.
pub fn action_instances(action: &ReconfigAction) -> Vec<&str> {
    match action {
        ReconfigAction::NewStreamlet { name, .. } => vec![name],
        ReconfigAction::RemoveStreamlet { name } => vec![name],
        ReconfigAction::NewChannel { .. } | ReconfigAction::RemoveChannel { .. } => vec![],
        ReconfigAction::Connect { from, to, .. } => vec![&from.0, &to.0],
        ReconfigAction::Disconnect { from, to } => vec![&from.0, &to.0],
        ReconfigAction::DisconnectAll { instance } => vec![instance],
        ReconfigAction::Insert { from, to, instance } => vec![&from.0, &to.0, instance],
        ReconfigAction::Replace { old, new } => vec![old, new],
    }
}

/// Every channel name a reconfiguration action can touch.
pub fn action_channels(action: &ReconfigAction) -> Vec<&str> {
    match action {
        ReconfigAction::NewChannel { name, .. } => vec![name],
        ReconfigAction::RemoveChannel { name } => vec![name],
        ReconfigAction::Connect { channel, .. } => vec![channel],
        _ => vec![],
    }
}

/// Computes the fusion plan for `table`. `fusable` answers rule 4 for a
/// definition — the core runtime probes the streamlet directory/pool with
/// it; analyses that only care about the graph shape can pass `|_| true`.
pub fn plan(
    table: &ConfigTable,
    defs: &BTreeMap<String, StreamletSpec>,
    registry: &TypeRegistry,
    fusable: &dyn Fn(&StreamletSpec) -> bool,
) -> FusionPlan {
    let when_instances: HashSet<&str> = table
        .when_rules
        .iter()
        .flat_map(|r| r.actions.iter())
        .flat_map(action_instances)
        .collect();
    let when_channels: HashSet<&str> = table
        .when_rules
        .iter()
        .flat_map(|r| r.actions.iter())
        .flat_map(action_channels)
        .collect();

    // Rules 1–5 per instance.
    let mut eligible: HashSet<&str> = HashSet::new();
    for row in table.initial_instances() {
        let Some(def) = defs.get(&row.def) else {
            continue;
        };
        if def.inputs.len() == 1
            && def.outputs.len() <= 1
            && !def.stateful
            && !when_instances.contains(row.name.as_str())
            && fusable(def)
        {
            eligible.insert(&row.name);
        }
    }

    // Channel usage and per-instance degree counts over the initial
    // connection rows.
    let mut channel_uses: HashMap<&str, usize> = HashMap::new();
    let mut out_degree: HashMap<&str, usize> = HashMap::new();
    let mut in_degree: HashMap<&str, usize> = HashMap::new();
    for c in &table.connections {
        *channel_uses.entry(c.channel.as_str()).or_default() += 1;
        *out_degree.entry(c.from.0.as_str()).or_default() += 1;
        *in_degree.entry(c.to.0.as_str()).or_default() += 1;
    }
    let exported_in: HashSet<(&str, &str)> = table
        .exported_inputs
        .iter()
        .map(|(i, p, _)| (i.as_str(), p.as_str()))
        .collect();
    let exported_out: HashSet<(&str, &str)> = table
        .exported_outputs
        .iter()
        .map(|(i, p, _)| (i.as_str(), p.as_str()))
        .collect();

    // Fusable edges: next/prev are functions (degree checks make each
    // endpoint's pipeline neighborhood unique).
    let mut next: HashMap<&str, (&str, &str)> = HashMap::new(); // from → (to, channel)
    let mut prev: HashMap<&str, &str> = HashMap::new();
    for c in &table.connections {
        let (from, from_port) = (&c.from.0, &c.from.1);
        let (to, to_port) = (&c.to.0, &c.to.1);
        if !eligible.contains(from.as_str()) || !eligible.contains(to.as_str()) || from == to {
            continue;
        }
        if out_degree.get(from.as_str()) != Some(&1) || in_degree.get(to.as_str()) != Some(&1) {
            continue;
        }
        if channel_uses.get(c.channel.as_str()) != Some(&1)
            || when_channels.contains(c.channel.as_str())
        {
            continue;
        }
        let Some(ch) = table.channel(&c.channel) else {
            continue;
        };
        if ch.spec.kind != ChannelKind::Async {
            continue;
        }
        // The collapsed boundary's ports must not be the stream's own
        // surface.
        if exported_out.contains(&(from.as_str(), from_port.as_str()))
            || exported_in.contains(&(to.as_str(), to_port.as_str()))
        {
            continue;
        }
        // MIME compatibility across the vanishing boundary (§4.4.1's check,
        // re-asserted because the fused unit bypasses the runtime check the
        // channel would have applied).
        let (Some(fd), Some(td)) = (
            table.instance(from).and_then(|r| defs.get(&r.def)),
            table.instance(to).and_then(|r| defs.get(&r.def)),
        ) else {
            continue;
        };
        let (Some(out_ty), Some(in_ty)) = (fd.port_type(from_port), td.port_type(to_port)) else {
            continue;
        };
        if !registry.connectable(out_ty, in_ty) {
            continue;
        }
        next.insert(from, (to, &c.channel));
        prev.insert(to, from);
    }

    // Walk maximal paths. Heads are nodes with a successor but no fusable
    // predecessor; a pure cycle (feedback loop) has no head and is left
    // unfused — the analyses reject loops anyway.
    let mut runs = Vec::new();
    let mut heads: Vec<&str> = next
        .keys()
        .filter(|n| !prev.contains_key(*n))
        .copied()
        .collect();
    heads.sort_unstable();
    for head in heads {
        let mut members = vec![head.to_string()];
        let mut interior = Vec::new();
        let mut cur = head;
        while let Some((to, ch)) = next.get(cur) {
            members.push((*to).to_string());
            interior.push((*ch).to_string());
            cur = to;
            if cur == head {
                break; // cycle guard; unreachable for analyzed programs
            }
        }
        if members.len() >= 2 {
            runs.push(FusedRun {
                members,
                interior_channels: interior,
            });
        }
    }
    FusionPlan { runs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;

    fn chain_source(extra: &str) -> String {
        format!(
            "streamlet tag {{\n\
             port {{ in pi : text/plain; out po : text/plain; }}\n\
             attribute {{ type = STATELESS; library = \"builtin/tag\"; }}\n}}\n\
             main stream s {{\n\
             streamlet a = new-streamlet (tag);\n\
             streamlet b = new-streamlet (tag);\n\
             streamlet c = new-streamlet (tag);\n\
             connect (a.po, b.pi);\n\
             connect (b.po, c.pi);\n\
             {extra}\n}}"
        )
    }

    fn plan_for(source: &str) -> FusionPlan {
        let program = compile(source).expect("compiles");
        let table = program.main().expect("main stream");
        plan(
            table,
            &program.streamlet_defs,
            &TypeRegistry::standard(),
            &|_| true,
        )
    }

    #[test]
    fn whole_chain_fuses_into_one_run() {
        let p = plan_for(&chain_source(""));
        assert_eq!(p.runs.len(), 1);
        assert_eq!(p.runs[0].members, vec!["a", "b", "c"]);
        assert_eq!(p.runs[0].interior_channels.len(), 2);
        assert!(p.run_of("b").is_some());
        assert!(p.run_of("zz").is_none());
    }

    #[test]
    fn when_referenced_instances_break_the_run() {
        // `b` is an insert target: it must stay discrete, so only nothing
        // fuses (a→b and b→c both touch b; a run of one never forms).
        let p = plan_for(&chain_source(
            "when (LOW_BANDWIDTH) { streamlet x = new-streamlet (tag); insert (a.po, b.pi, x); }",
        ));
        assert!(
            p.run_of("b").is_none(),
            "insert target must stay discrete: {p:?}"
        );
        assert!(p.run_of("a").is_none(), "a's only fusable edge died: {p:?}");
    }

    #[test]
    fn fusable_predicate_vetoes() {
        let program = compile(&chain_source("")).expect("compiles");
        let table = program.main().expect("main stream");
        let p = plan(
            table,
            &program.streamlet_defs,
            &TypeRegistry::standard(),
            &|_| false,
        );
        assert!(p.is_empty());
    }

    #[test]
    fn stateful_instances_never_fuse() {
        let source = "streamlet tag {\n\
             port { in pi : text/plain; out po : text/plain; }\n\
             attribute { type = STATELESS; library = \"builtin/tag\"; }\n}\n\
             streamlet keeper {\n\
             port { in pi : text/plain; out po : text/plain; }\n\
             attribute { type = STATEFUL; library = \"builtin/keeper\"; }\n}\n\
             main stream s {\n\
             streamlet a = new-streamlet (tag);\n\
             streamlet k = new-streamlet (keeper);\n\
             streamlet c = new-streamlet (tag);\n\
             connect (a.po, k.pi);\n\
             connect (k.po, c.pi);\n}";
        let p = plan_for(source);
        assert!(p.is_empty(), "a stateful middle leaves runs of one: {p:?}");
    }

    #[test]
    fn fan_out_keeps_real_channels() {
        let source = "streamlet tag {\n\
             port { in pi : text/plain; out po : text/plain; }\n\
             attribute { type = STATELESS; library = \"builtin/tag\"; }\n}\n\
             main stream s {\n\
             streamlet a = new-streamlet (tag);\n\
             streamlet b = new-streamlet (tag);\n\
             streamlet c = new-streamlet (tag);\n\
             connect (a.po, b.pi);\n\
             connect (a.po, c.pi);\n}";
        let p = plan_for(source);
        assert!(p.is_empty(), "fan-out must not fuse: {p:?}");
    }

    /// `a → b → c → out` where `out` is a zero-output sink, plus `extra`.
    fn sink_chain_source(extra: &str) -> String {
        format!(
            "streamlet tag {{\n\
             port {{ in pi : text/plain; out po : text/plain; }}\n\
             attribute {{ type = STATELESS; library = \"builtin/tag\"; }}\n}}\n\
             streamlet sink {{\n\
             port {{ in pi : text/plain; }}\n\
             attribute {{ type = STATELESS; library = \"builtin/sink\"; }}\n}}\n\
             main stream s {{\n\
             streamlet a = new-streamlet (tag);\n\
             streamlet b = new-streamlet (tag);\n\
             streamlet c = new-streamlet (tag);\n\
             streamlet out = new-streamlet (sink);\n\
             connect (a.po, b.pi);\n\
             connect (b.po, c.pi);\n\
             connect (c.po, out.pi);\n\
             {extra}\n}}"
        )
    }

    #[test]
    fn sink_tail_ends_the_run() {
        let p = plan_for(&sink_chain_source(""));
        assert_eq!(p.runs.len(), 1, "{p:?}");
        assert_eq!(p.runs[0].members, vec!["a", "b", "c", "out"]);
        assert_eq!(p.runs[0].interior_channels.len(), 3);
    }

    #[test]
    fn when_referenced_sink_stays_discrete() {
        let p = plan_for(&sink_chain_source(
            "when (LOW_BANDWIDTH) { streamlet x = new-streamlet (tag); insert (c.po, out.pi, x); }",
        ));
        assert!(p.run_of("out").is_none(), "{p:?}");
        assert!(
            p.run_of("c").is_none(),
            "c is an insert endpoint too: {p:?}"
        );
        assert_eq!(p.runs.len(), 1, "{p:?}");
        assert_eq!(p.runs[0].members, vec!["a", "b"]);
    }

    #[test]
    fn fan_in_sink_stays_discrete() {
        // webaccel's shape: two branches merge into one sink input.
        let p = plan_for(&sink_chain_source(
            "streamlet d = new-streamlet (tag);\nconnect (d.po, out.pi);",
        ));
        assert!(
            p.run_of("out").is_none(),
            "fan-in sink must not fuse: {p:?}"
        );
        assert_eq!(p.runs.len(), 1, "{p:?}");
        assert_eq!(p.runs[0].members, vec!["a", "b", "c"]);
    }

    #[test]
    fn partial_runs_fuse_around_blockers() {
        // a→b fuse; c is when-referenced so b→c stays a real channel.
        let p = plan_for(&chain_source("when (LOW_BANDWIDTH) { disconnectall (c); }"));
        assert_eq!(p.runs.len(), 1);
        assert_eq!(p.runs[0].members, vec!["a", "b"]);
    }
}
