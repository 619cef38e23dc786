//! Harness for Figure 7-6: reconfiguration time vs. number of inserted
//! streamlets.
//!
//! The paper's `ReconfigExp` reacts to LOW_BANDWIDTH "by inserting a number
//! of streamlet redirectors", timing `T_e − T_s` around the whole action
//! series (Figure 7-5). This harness builds the equivalent action list
//! (create + splice per redirector) and executes it as one instrumented
//! reconfiguration, yielding both the total and the Equation 7-1
//! components.

use mobigate::core::pool::PayloadMode;
use mobigate::core::{MobiGate, ReconfigStats, ServerConfig, StreamletDirectory, StreamletPool};
use mobigate::mcl::config::ReconfigAction;
use std::sync::Arc;

/// Deploys a fresh two-streamlet stream and inserts `n` redirectors
/// between them in a single reconfiguration, returning the Eq 7-1 stats.
pub fn reconfig_time(n: usize) -> ReconfigStats {
    let server = MobiGate::with_config(
        ServerConfig {
            mode: PayloadMode::Reference,
            ..Default::default()
        },
        Arc::new(StreamletDirectory::new()),
        Arc::new(StreamletPool::new(64)),
    );
    mobigate_streamlets::register_builtins(server.directory());
    let stream = server
        .deploy_mcl(
            "streamlet redirector {\n\
             port { in pi : */*; out po : */*; }\n\
             attribute { type = STATELESS; library = \"builtin/redirector\"; }\n}\n\
             main stream reconfigExp {\n\
             streamlet a = new-streamlet (redirector);\n\
             streamlet b = new-streamlet (redirector);\n\
             connect (a.po, b.pi);\n}",
        )
        .expect("deploy ReconfigExp");

    // Build the LOW_BANDWIDTH-style action list: n × (create + insert).
    let mut actions = Vec::with_capacity(n * 2);
    let mut upstream = ("a".to_string(), "po".to_string());
    for i in 0..n {
        let name = format!("ins{i}");
        actions.push(ReconfigAction::NewStreamlet {
            name: name.clone(),
            def: "redirector".into(),
        });
        actions.push(ReconfigAction::Insert {
            from: upstream.clone(),
            to: ("b".to_string(), "pi".to_string()),
            instance: name.clone(),
        });
        upstream = (name, "po".to_string());
    }
    let stats = stream.reconfigure(&actions);
    assert_eq!(stats.errors, 0, "reconfiguration actions must all apply");
    stream.shutdown();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inserts_scale_with_n() {
        let one = reconfig_time(1);
        assert_eq!(one.suspensions, 1);
        assert_eq!(one.activations, 1);
        assert_eq!(one.instance_creations, 1);

        let ten = reconfig_time(10);
        assert_eq!(ten.suspensions, 10);
        assert_eq!(ten.instance_creations, 10);
        assert!(ten.channel_ops > one.channel_ops);
    }

    #[test]
    fn figure_7_6_shape_monotone_steps() {
        // More insertions cost more (the paper's linear trend), counted in
        // Equation 7-1's steps rather than timed: a debug-build wall-time
        // comparison of 2 and 30 inserts flaked on a busy host. `repro --
        // fig7_6` guards the wall time on release-build medians.
        let small = reconfig_time(2);
        let large = reconfig_time(30);
        for (step, s, l) in [
            ("suspensions", small.suspensions, large.suspensions),
            ("channel ops", small.channel_ops, large.channel_ops),
            ("activations", small.activations, large.activations),
            (
                "instance creations",
                small.instance_creations,
                large.instance_creations,
            ),
        ] {
            assert!(l > s, "{step}: 30 inserts {l} !> 2 inserts {s}");
        }
        assert_eq!(large.suspensions, 30);
        assert_eq!(large.instance_creations, 30);
    }
}
