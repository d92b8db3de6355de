//! The `spindle-node` configuration surface from outside: the binary's
//! failure path (every violation in one run, then the generated usage),
//! and hostile text — arbitrary bytes as the cluster file and arbitrary
//! argument vectors build a config or a non-empty error list, and never
//! panic.

use std::process::Command;

use proptest::prelude::*;
use spindle_net::NodeConfig;

const FLAGS: [&str; 21] = [
    "--config",
    "--node",
    "--join",
    "--listen",
    "--data-dir",
    "--sync-policy",
    "--segment-cap",
    "--sends",
    "--payload",
    "--seed",
    "--trace-out",
    "--replay-out",
    "--deadline-secs",
    "--linger-ms",
    "--min-epoch",
    "--quiesce-ms",
    "--crash-after-delivered",
    "--metrics-addr",
    "--relay-addr",
    "--serve-secs",
    "--log-level",
];

const KEYS: [&str; 9] = [
    "nodes",
    "window",
    "max_msg",
    "senders",
    "heartbeat_ms",
    "suspect_ms",
    "data_dir",
    "sync_policy",
    "segment_cap",
];

/// Runs the binary to completion: `(succeeded, stdout, stderr)`.
fn spindle_node(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_spindle-node"))
        .args(args)
        .output()
        .expect("run spindle-node");
    let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
    (out.status.success(), text(&out.stdout), text(&out.stderr))
}

#[test]
fn every_violation_is_reported_in_one_run_then_the_usage() {
    let dir = std::env::temp_dir().join(format!("spindle-node-config-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let config = dir.join("cluster.toml");
    let text = "nodes = [\"127.0.0.1:1\", \"127.0.0.1:2\", \"127.0.0.1:3\"]\n\
                window = 0\n\
                max_msg = 64\n\
                colour = \"red\"\n";
    std::fs::write(&config, text).expect("write config");
    let config = config.to_str().expect("utf-8 temp path");

    let bad = [
        "--config",
        config,
        "--node",
        "9",
        "--payload",
        "4",
        "--bogus",
    ];
    let (ok, stdout, stderr) = spindle_node(&bad);
    assert!(
        !ok && stdout.is_empty(),
        "stdout: {stdout}\nstderr: {stderr}"
    );
    for want in [
        "config error: line 2: `window`: must be positive",
        "config error: line 4: unknown key `colour`",
        "config error: --bogus: unknown flag",
        "config error: --payload: must be at least 8 bytes",
        "config error: --node: 9 out of range (cluster has 3 nodes)",
        "\nusage: spindle-node [--config <cluster.toml>]",
    ] {
        assert!(stderr.contains(want), "{want:?} not in:\n{stderr}");
    }

    let (ok, stdout, help) = spindle_node(&["--help"]);
    assert!(!ok && stdout.is_empty(), "stdout: {stdout}\nstderr: {help}");
    for name in FLAGS.iter().chain(&KEYS) {
        assert!(help.contains(name), "{name} not in:\n{help}");
    }
    assert!(stderr.ends_with(help.trim_start_matches("spindle-node: ")));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A string of arbitrary bytes, lossily decoded.
fn hostile(max: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<u8>(), 0..max)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

/// A plausible value: what a well-meaning or a careless operator types.
fn value() -> impl Strategy<Value = String> {
    let plausible = [
        "0",
        "7",
        "4294967296",
        "99999999999999999999",
        "\"\"",
        "\"a:1\"",
        "[\"a:1\", \"b:2\"]",
        "[0, 1]",
        "[[",
        "[\"",
        "never",
        "every-n=0",
        "a:1,b:2",
        "",
    ];
    prop_oneof![
        proptest::sample::select(plausible.map(String::from).to_vec()),
        hostile(24),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn hostile_text_and_arguments_never_panic(
        noise in hostile(256),
        lines in proptest::collection::vec(
            (proptest::sample::select(KEYS.to_vec()), value()),
            0..8,
        ),
        args in proptest::collection::vec(
            prop_oneof![
                proptest::sample::select(FLAGS.map(String::from).to_vec()),
                value(),
            ],
            0..10,
        ),
    ) {
        let mut text = String::new();
        for (key, value) in &lines {
            text.push_str(&format!("{key} = {value}\n"));
        }
        text.push_str(&noise);
        match NodeConfig::from_args(args.clone(), |_| Ok(text.clone())) {
            Ok(_) => {}
            Err(errors) => prop_assert!(!errors.is_empty(), "{args:?} over {text:?}"),
        }
    }
}
