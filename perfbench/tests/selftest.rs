//! Benchmark self-tests at smoke size: the printed result has the shape
//! `BENCHMARK.json` declares, every virtual-clock or count metric repeats
//! bit for bit (same seed; one or two workers), and the seed reaches the
//! droplet mesh.

use std::process::Command;
use std::sync::Mutex;

use perfbench::{run, Opts, Report, E2E, LAYER, WORKLOADS};
use serde_json::Value;

/// In-process runs share the global pool size; run them one at a time.
static POOL: Mutex<()> = Mutex::new(());

fn smoke(seed: u64, workers: usize, trace: bool) -> Opts {
    Opts { seed, seconds: 0.0, trace, smoke: true, workers }
}

fn run_locked(workload: &str, opts: &Opts) -> Report {
    let _g = POOL.lock().unwrap_or_else(|p| p.into_inner());
    run(workload, opts).unwrap_or_else(|e| panic!("{workload}: {e}"))
}

fn declared(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    doc.get(key)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k| m.get(k).and_then(Value::as_str).expect("name and unit").to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_lists_the_metrics_the_code_reports() {
    let names = |defs: &[perfbench::Def]| -> Vec<(String, String)> {
        defs.iter().map(|d| (d.name.to_string(), d.unit.to_string())).collect()
    };
    assert_eq!(declared("end_to_end"), names(E2E));
    assert_eq!(declared("per_layer"), names(LAYER));
}

#[test]
fn printed_result_has_the_declared_shape() {
    for &w in WORKLOADS {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args(["--workload", w, "--seed", "7", "--seconds", "0", "--trace", trace])
                .arg("--smoke")
                .output()
                .expect("run the benchmark");
            assert!(out.status.success(), "{w} trace {trace}: {out:?}");
            let stdout = String::from_utf8(out.stdout).expect("utf-8");
            let last = stdout.lines().last().expect("a result line");
            let v = serde_json::from_str(last).expect("last line is JSON");
            let obj = v.as_object().expect("an object");
            let keys: Vec<&str> = obj.keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"], "{w}");
            assert_eq!(v.get("correct").and_then(Value::as_bool), Some(true), "{w}");
            assert!(v.get("attempted").and_then(Value::as_u64).is_some_and(|n| n >= 1), "{w}");
            assert_eq!(v.get("failed").and_then(Value::as_u64), Some(0), "{w}");
            let metrics = v.get("metrics").and_then(Value::as_object).expect("metrics");
            let want = declared(key);
            assert_eq!(metrics.len(), want.len(), "{w} trace {trace}");
            for (name, unit) in want {
                let m = metrics.get(&name).unwrap_or_else(|| panic!("{w}: {name} missing"));
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()), "{name}");
                let x = m.get("value").and_then(Value::as_f64).expect("numeric value");
                assert!(x.is_finite(), "{w}: {name} = {x}");
                if trace == "0" {
                    assert!(x > 0.0, "{w}: end-to-end {name} = {x}");
                }
            }
        }
    }
}

/// Every metric marked exact, bit for bit.
fn exact_metrics(r: &Report, trace: bool) -> Vec<(&'static str, u64)> {
    let defs = if trace { LAYER } else { E2E };
    defs.iter().filter(|d| d.exact).map(|d| (d.name, r.metrics[d.name].to_bits())).collect()
}

#[test]
fn exact_metrics_repeat_across_runs_and_worker_counts() {
    for &w in WORKLOADS {
        for trace in [false, true] {
            let a = run_locked(w, &smoke(11, 2, trace));
            let b = run_locked(w, &smoke(11, 2, trace));
            let one = run_locked(w, &smoke(11, 1, trace));
            for r in [&a, &b, &one] {
                assert_eq!(r.failed, 0, "{w}: {:?}", r.failures);
            }
            assert_eq!(exact_metrics(&a, trace), exact_metrics(&b, trace), "{w} same seed");
            assert_eq!(exact_metrics(&a, trace), exact_metrics(&one, trace), "{w} 1 vs 2 workers");
            assert_eq!((a.fingerprint, a.attempted), (b.fingerprint, b.attempted), "{w}");
            assert_eq!((a.fingerprint, a.attempted), (one.fingerprint, one.attempted), "{w}");
        }
    }
}

#[test]
fn seed_changes_the_droplet_mesh() {
    let a = run_locked("droplet", &smoke(1, 2, false));
    let b = run_locked("droplet", &smoke(2, 2, false));
    assert_ne!(a.fingerprint, b.fingerprint, "seeds 1 and 2 meshed the same droplet");
    assert_ne!(exact_metrics(&a, false), exact_metrics(&b, false));
}
