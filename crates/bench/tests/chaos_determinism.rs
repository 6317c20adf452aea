//! The chaos plane's parallel-determinism contract: a small `chaos_soak`
//! sweep produces **byte-identical** result JSON at `--jobs 1` and
//! `--jobs 4`, including exact-match injected-fault counts. Every fault
//! decision is a pure function of `(seed, coordinates)`, so neither
//! thread interleaving nor work stealing may change what gets injected.

use imcf_bench::chaos::{cell_config, chaos_cells, chaos_sweep, sweep_json, ChaosCell};
use imcf_controller::soak::run_soak;

const RATES: [f64; 3] = [0.0, 0.1, 0.3];
const REPS: u64 = 2;

fn sweep(jobs: usize) -> String {
    let outcomes = chaos_sweep(jobs, chaos_cells(&RATES, REPS));
    sweep_json(&RATES, &outcomes, REPS)
}

#[test]
fn jobs_1_and_jobs_4_produce_byte_identical_soak_json() {
    let sequential = sweep(1);
    let parallel = sweep(4);
    assert!(
        sequential.len() > 100,
        "sweep produced suspiciously little output:\n{sequential}"
    );
    assert_eq!(sequential, parallel, "parallel soak diverged");
}

#[test]
fn injected_fault_counts_match_exactly_across_worker_counts() {
    let cells = chaos_cells(&RATES, REPS);
    let a = chaos_sweep(1, cells.clone());
    let b = chaos_sweep(4, cells);
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.faults_injected, y.faults_injected, "seed {}", x.seed);
        assert_eq!(x.failed, y.failed, "seed {}", x.seed);
        assert_eq!(x.retried, y.retried, "seed {}", x.seed);
        assert_eq!(x.breaker_opens, y.breaker_opens, "seed {}", x.seed);
    }
    // The faulted cells actually injected something.
    assert!(
        a.iter().any(|o| o.faults_injected > 0),
        "sweep injected nothing"
    );
    // Zero-rate cells injected nothing.
    for o in &a[..REPS as usize] {
        assert_eq!(o.faults_injected, 0, "zero-rate cell injected a fault");
    }
}

/// FNV-1a-64 of the sweep JSON: pins the soak loop's output bytes across
/// refactors, where the tests above only compare two runs of the same
/// code.
#[test]
fn sweep_json_bytes_are_pinned() {
    let json = sweep(1);
    let hash = json.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3)
    });
    assert_eq!(format!("{hash:016x}"), "7450acac781d8e2d");
}

#[test]
fn single_cell_matches_direct_run() {
    let cell = ChaosCell { rate: 0.2, seed: 1 };
    let direct = run_soak(&cell_config(cell), None);
    let swept = chaos_sweep(2, vec![cell]);
    assert_eq!(swept.len(), 1);
    assert_eq!(swept[0], direct);
}
