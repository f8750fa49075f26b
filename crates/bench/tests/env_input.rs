//! Black-box check of loud environment input: a bench binary given a
//! malformed `COLT_*` variable must exit with status 2 and an error
//! naming the variable and the value — not panic, and not run silently
//! at the default.

use std::process::Command;

/// Run `bin` with every `COLT_*` input well-formed except `var=value`.
fn run_with(bin: &str, var: &str, value: &str) -> std::process::Output {
    let mut cmd = Command::new(bin);
    for (k, v) in
        [("COLT_SCALE", "0.004"), ("COLT_SEED", "42"), ("COLT_THREADS", "1"), ("COLT_OBS", "off")]
    {
        cmd.env(k, v);
    }
    cmd.env(var, value).env_remove("COLT_OBS_PATH").output().expect("spawn bench binary")
}

#[test]
fn malformed_env_exits_2_naming_the_variable() {
    let cases = [
        ("COLT_SCALE", "0,01"),
        ("COLT_SCALE", "-1"),
        ("COLT_SCALE", "NaN"),
        ("COLT_SEED", "4x2"),
        ("COLT_SEED", "-3"),
        ("COLT_THREADS", "0"),
        ("COLT_OBS", "ful"),
    ];
    for (var, value) in cases {
        for bin in [env!("CARGO_BIN_EXE_table1"), env!("CARGO_BIN_EXE_fig3")] {
            let out = run_with(bin, var, value);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{bin} {var}={value}: {stderr}");
            assert!(out.stdout.is_empty(), "{bin} {var}={value} printed a result");
            assert!(
                stderr.contains(var) && stderr.contains(&format!("\"{value}\"")),
                "{bin} {var}={value}: error must name both: {stderr}"
            );
            assert!(!stderr.contains("panicked"), "{bin} {var}={value}: {stderr}");
        }
    }
}

#[test]
fn well_formed_env_runs() {
    // Blank means unset, and case and padding are forgiven where the
    // value is still unambiguous.
    for (var, value) in [("COLT_SCALE", " 0.004 "), ("COLT_OBS", "OFF"), ("COLT_SEED", "")] {
        let out = run_with(env!("CARGO_BIN_EXE_table1"), var, value);
        assert!(out.status.success(), "{var}={value:?}: {}", String::from_utf8_lossy(&out.stderr));
        assert!(!out.stdout.is_empty());
    }
}
