//! Property tests on the compiler: whatever it accepts must satisfy the
//! §5.1 formal model and the §5.2 acyclicity analysis; structural facts
//! (exports, channel counts) must match the script.

use mobigate_mcl::analysis::StreamGraph;
use mobigate_mcl::compile::compile;
use mobigate_mcl::model::verify_program;
use mobigate_mime::TypeRegistry;
use proptest::prelude::*;
use std::fmt::Write as _;

/// Builds a linear-pipeline script: `k` streamlets of a shared type chained
/// in order, optionally with explicit channels every other hop.
fn pipeline_script(k: usize, ty: &str, explicit_channels: bool) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "streamlet node {{ port {{ in pi : {ty}; out po : {ty}; }} }}"
    );
    if explicit_channels {
        let _ = writeln!(
            s,
            "channel pipe {{ port {{ in ci : {ty}; out co : {ty}; }} \
             attribute {{ type = ASYNC; category = BK; buffer = 64; }} }}"
        );
    }
    let _ = writeln!(s, "main stream pipeline {{");
    for i in 0..k {
        let _ = writeln!(s, "streamlet n{i} = new-streamlet (node);");
    }
    if explicit_channels {
        for i in 1..k {
            let _ = writeln!(s, "channel ch{i} = new-channel (pipe);");
        }
    }
    for i in 1..k {
        if explicit_channels {
            let _ = writeln!(s, "connect (n{}.po, n{}.pi, ch{i});", i - 1, i);
        } else {
            let _ = writeln!(s, "connect (n{}.po, n{}.pi);", i - 1, i);
        }
    }
    s.push('}');
    s
}

/// A fan-out/fan-in diamond of the given width.
fn diamond_script(width: usize) -> String {
    let mut s = String::from(
        "streamlet node { port { in pi : */*; out po : */*; } }\n\
         main stream diamond {\n\
         streamlet src = new-streamlet (node);\n\
         streamlet dst = new-streamlet (node);\n",
    );
    for i in 0..width {
        let _ = writeln!(s, "streamlet mid{i} = new-streamlet (node);");
        let _ = writeln!(s, "connect (src.po, mid{i}.pi);");
        let _ = writeln!(s, "connect (mid{i}.po, dst.pi);");
    }
    s.push('}');
    s
}

fn type_pool() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("text/plain"),
        Just("text"),
        Just("image/gif"),
        Just("application/octet-stream"),
        Just("*/*"),
    ]
}

proptest! {
    /// Pipelines of any homogeneous type compile, satisfy the formal model,
    /// are acyclic, and export exactly head-input + tail-output.
    #[test]
    fn pipelines_compile_clean(
        k in 1usize..30,
        ty in type_pool(),
        explicit in any::<bool>(),
    ) {
        let script = pipeline_script(k, ty, explicit);
        let program = compile(&script).expect("pipeline compiles");
        prop_assert!(verify_program(&program, &TypeRegistry::standard()).is_empty());

        let table = program.main().expect("main");
        prop_assert_eq!(table.streamlets.len(), k);
        prop_assert_eq!(table.connections.len(), k - 1);
        prop_assert_eq!(table.exported_inputs.len(), 1);
        prop_assert_eq!(table.exported_outputs.len(), 1);
        prop_assert_eq!(table.exported_inputs[0].0.as_str(), "n0");
        prop_assert_eq!(table.exported_outputs[0].0.as_str(), format!("n{}", k - 1));

        let graph = StreamGraph::from_table(table, &program);
        prop_assert!(graph.is_acyclic());
        // n0 reaches the tail through the whole chain.
        if k > 1 {
            let tail = format!("n{}", k - 1);
            prop_assert!(graph.reaches("n0", &tail));
        }
    }

    /// Diamonds (fan-out + fan-in) compile clean and remain acyclic.
    #[test]
    fn diamonds_compile_clean(width in 1usize..12) {
        let script = diamond_script(width);
        let program = compile(&script).expect("diamond compiles");
        prop_assert!(verify_program(&program, &TypeRegistry::standard()).is_empty());
        let table = program.main().unwrap();
        prop_assert_eq!(table.connections.len(), 2 * width);
        let graph = StreamGraph::from_table(table, &program);
        prop_assert!(graph.is_acyclic());
        prop_assert!(graph.reaches("src", "dst"));
        prop_assert!(!graph.reaches("dst", "src"));
    }

    /// Closing any pipeline into a ring is always detected as a feedback
    /// loop by the analysis.
    #[test]
    fn rings_are_always_detected(k in 2usize..20) {
        let mut script = pipeline_script(k, "*/*", false);
        // Replace the closing brace with the back edge.
        script.pop();
        let back = format!("connect (n{}.po, n0.pi);\n}}", k - 1);
        script.push_str(&back);
        let program = compile(&script).expect("ring compiles (loop is a semantic error)");
        let table = program.main().unwrap();
        let graph = StreamGraph::from_table(table, &program);
        let loops = graph.feedback_loops();
        prop_assert_eq!(loops.len(), 1);
        prop_assert_eq!(loops[0].len(), k);
    }

    /// Composite expansion preserves the model: wrapping a pipeline as a
    /// streamlet inside an outer stream stays clean.
    #[test]
    fn composites_compile_clean(k in 1usize..10) {
        let mut script = String::new();
        let _ = writeln!(script, "streamlet node {{ port {{ in pi : */*; out po : */*; }} }}");
        let _ = writeln!(script, "stream innerline {{");
        for i in 0..k {
            let _ = writeln!(script, "streamlet n{i} = new-streamlet (node);");
        }
        for i in 1..k {
            let _ = writeln!(script, "connect (n{}.po, n{}.pi);", i - 1, i);
        }
        let _ = writeln!(script, "}}");
        let _ = writeln!(
            script,
            "main stream outer {{\n\
             streamlet w = new-streamlet (innerline);\n\
             streamlet tail = new-streamlet (node);\n\
             connect (w.po, tail.pi);\n}}"
        );
        let program = compile(&script).expect("composite compiles");
        prop_assert!(verify_program(&program, &TypeRegistry::standard()).is_empty());
        let table = program.main().unwrap();
        // k inner instances + the tail.
        prop_assert_eq!(table.streamlets.len(), k + 1);
        let last = format!("w/n{}", k - 1);
        prop_assert!(table.instance(&last).is_some());
    }
}

/// The MCL scripts the examples ship, cut out of their raw string literals
/// (`r#"…"#`); the seed corpus of the mutation fuzzer below.
fn example_scripts() -> Vec<String> {
    let sources = [
        include_str!("../../../examples/distillation.rs"),
        include_str!("../../../examples/mcl_analysis.rs"),
        include_str!("../../../examples/quickstart.rs"),
        include_str!("../../../examples/reconfiguration.rs"),
        include_str!("../../../examples/worker_pool.rs"),
    ];
    let mut scripts = Vec::new();
    for source in sources {
        let mut rest = source;
        while let Some(start) = rest.find("r#\"") {
            let body = &rest[start + 3..];
            let Some(end) = body.find("\"#") else { break };
            scripts.push(body[..end].to_string());
            rest = &body[end + 2..];
        }
    }
    scripts
}

/// Compiles `bytes` (decoded lossily) and fails, naming the input, if the
/// compiler panics. Accepting or rejecting it are both fine.
fn compile_never_panics(bytes: &[u8]) {
    let source = String::from_utf8_lossy(bytes);
    let outcome = std::panic::catch_unwind(|| {
        let _ = compile(&source);
    });
    assert!(outcome.is_ok(), "compile panicked on {source:?}");
}

/// One byte-level edit: replace, insert, delete, or truncate at `pos`. An
/// inserted or replacing byte is `byte` itself, or, when `copy` is set,
/// the script's own byte at `byte`'s position, so edits also shuffle the
/// script's punctuation and keywords around.
fn mutate(bytes: &mut Vec<u8>, (op, pos, byte, copy): (u8, usize, u8, bool)) {
    let len = bytes.len();
    let byte = match (copy, len) {
        (true, 1..) => bytes[byte as usize % len],
        _ => byte,
    };
    match op {
        0 if len > 0 => bytes[pos % len] = byte,
        1 => bytes.insert(pos % (len + 1), byte),
        2 if len > 0 => {
            bytes.remove(pos % len);
        }
        3 => bytes.truncate(pos % (len + 1)),
        _ => {}
    }
}

#[test]
fn example_scripts_are_extracted() {
    let scripts = example_scripts();
    assert!(scripts.len() >= 10, "only {} scripts", scripts.len());
    // At least one seed is a whole, valid program, so mutations start from
    // inputs the compiler accepts.
    assert!(scripts.iter().any(|s| compile(s).is_ok()));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// Arbitrary bytes never panic the compiler.
    #[test]
    fn compile_never_panics_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        compile_never_panics(&bytes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4096, ..ProptestConfig::default() })]

    /// Byte-level mutations of the example scripts never panic the
    /// compiler.
    #[test]
    fn compile_never_panics_on_mutated_example_scripts(
        seed in any::<usize>(),
        edits in proptest::collection::vec(
            (0u8..4, any::<usize>(), any::<u8>(), any::<bool>()),
            1..12,
        ),
    ) {
        let scripts = example_scripts();
        let mut bytes = scripts[seed % scripts.len()].clone().into_bytes();
        for edit in edits {
            mutate(&mut bytes, edit);
        }
        compile_never_panics(&bytes);
    }
}
