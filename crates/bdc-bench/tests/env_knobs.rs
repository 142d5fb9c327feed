//! The shared environment front door (`bdc_exec::env_config`) as the CLI
//! sees it: a removed knob that is still set exits with status 2 and a
//! one-line diagnostic naming its replacement, and a removed `BDC_FAULTS`
//! kind exits 2 as an unknown key.

use std::process::Command;

#[test]
fn removed_no_batch_knob_exits_2_pointing_at_batch_lanes() {
    let out = Command::new(env!("CARGO_BIN_EXE_bdc"))
        .arg("list")
        .env("BDC_NO_BATCH", "1")
        .output()
        .expect("spawn bdc");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.contains("BDC_BATCH_LANES=1"), "{stderr}");
}

#[test]
fn removed_delay_fault_kinds_exit_2_as_unknown_keys() {
    for (spec, key) in [("io_slow=1ms", "io_slow"), ("peer_slow=1ms", "peer_slow")] {
        let out = Command::new(env!("CARGO_BIN_EXE_bdc"))
            .arg("list")
            .env("BDC_FAULTS", spec)
            .output()
            .expect("spawn bdc");
        assert_eq!(out.status.code(), Some(2), "{spec}");
        assert!(out.stdout.is_empty(), "{spec}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.lines().count(), 1, "{stderr}");
        assert!(stderr.contains(&format!("unknown key `{key}`")), "{stderr}");
    }
}
