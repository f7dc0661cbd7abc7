//! Command-line contract of the `repro` binary: unknown subcommands are
//! usage errors, a `BENCH_*.json` document that cannot be written fails
//! the run, and a reader that closes stdout early ends the run cleanly.

use std::process::{Command, Stdio};

fn repro() -> Command {
    let mut c = Command::new(env!("CARGO_BIN_EXE_repro"));
    // Some subcommands write BENCH_*.json into the working directory.
    c.current_dir(std::env::temp_dir());
    c
}

#[test]
fn unknown_subcommand_prints_usage_and_exits_nonzero() {
    let out = repro().arg("no-such-experiment").output().expect("spawn repro");
    assert!(!out.status.success(), "unknown subcommand exited {:?}", out.status);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("no-such-experiment"), "{err}");
    assert!(err.contains("usage: repro"), "{err}");
    assert!(out.stdout.is_empty(), "nothing runs for an unknown subcommand");
}

#[test]
fn closed_stdout_exits_cleanly() {
    let mut child = repro().arg("table2").stdout(Stdio::piped()).spawn().expect("spawn repro");
    // Close the read end before the table is printed: every write
    // then fails with a broken pipe.
    drop(child.stdout.take());
    let status = child.wait().expect("wait for repro");
    assert!(status.success(), "repro with a closed stdout exited {status:?}");
}

/// `/proc` accepts no new files, even from root.
#[cfg(target_os = "linux")]
#[test]
fn unwritable_bench_document_exits_nonzero() {
    let out =
        repro().args(["fig10", "--quick"]).current_dir("/proc").output().expect("spawn repro");
    assert!(!out.status.success(), "failed BENCH write exited {:?}", out.status);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("could not write BENCH_fig10.json"), "{err}");
}
